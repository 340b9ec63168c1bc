import weakref

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from parahom import cell as cl
from parahom import fibers as fb
from parahom import fields as fd
from parahom import linalg
from parahom import presets
from parahom.abstract import x0_decomposition
from parahom.errors import (MismatchBeyondTolerance, NonPositiveEffective,
                            PositivityViolation)
from parahom.fields import Truncation
from parahom.lattice import cubic_lattice

import oracles


def test_free_fiber_is_diagonal():
    # n = m = 1, b(D) = D, g = f = 1, a = 0, Q = 0, lam = 1:
    # matrix = diag((xi + k)^2 + eps^2)
    lat = cubic_lattice(1)
    g = fd.constant_field((16,), [[1.0]])
    prob = cl.PeriodicProblem(lat, np.array([[[1.0]]]), g, lam=1.0)
    tr = Truncation(4, 1)
    k, eps = np.array([0.37]), 0.2
    fib = fb.assemble_fiber(prob, tr, k, eps)
    freqs = tr.modes[:, 0] * 2 * np.pi + k[0]
    expected = np.diag(freqs ** 2 + eps ** 2)
    assert np.abs(fib.matrix - expected).max() < 1e-12


def test_constant_matrix_g_blocks():
    lat = cubic_lattice(2)
    g0 = np.array([[1.4, 0.2], [0.2, 1.1]])
    g = fd.constant_field((12, 12), g0)
    b = np.zeros((2, 2, 1))
    b[0, 0, 0] = 1.0
    b[1, 1, 0] = 1.0
    prob = cl.PeriodicProblem(lat, b, g, lam=2.0)
    tr = Truncation(3, 2)
    k, eps = np.array([0.3, -0.4]), 0.5
    fib = fb.assemble_fiber(prob, tr, k, eps)
    freqs = tr.modes @ lat.dual_basis + k
    expected = np.diag([f @ g0 @ f + eps ** 2 * 2.0 for f in freqs])
    assert np.abs(fib.matrix - expected).max() < 1e-11


def test_oscillatory_entries_vs_quadrature_oracle():
    prob = presets.osc1d(n_modes=6)
    tr = Truncation(6, 1)
    k, eps, lam = 0.45, 0.3, 1.0
    fib = fb.assemble_fiber(prob, tr, np.array([k]), eps)
    modes = tr.modes[:, 0]

    def gfun(x):
        return 2.0 + np.cos(2 * np.pi * x)

    for i in (0, 3, 6):
        for j in (2, 6, 9):
            ref = oracles.fiber_entry_quad(gfun, k, eps, lam,
                                           modes[i], modes[j])
            assert fib.matrix[i, j] == pytest.approx(ref, abs=1e-10)


def test_fiber_hermitian_and_lower_bound():
    prob = presets.random_fiber_instance(3, d=1, n_modes=10)
    tr = Truncation(10, 1)
    consts = fb.estimate_constants(prob)
    rng = np.random.default_rng(0)
    for _ in range(4):
        k = np.array([rng.uniform(-np.pi, np.pi)])
        eps = rng.uniform(0.05, 1.0)
        fib = fb.assemble_fiber(prob, tr, k, eps, consts)
        rel = oracles.hermiticity_defect(fib.matrix)
        assert rel < 1e-10
        wmin = np.linalg.eigvalsh(fib.matrix).min()
        assert wmin >= fib.lower_bound - 1e-9


def test_positivity_violation_raises():
    # lam chosen far too negative: the fiber loses its lower bound
    prob = presets.osc1d(n_modes=6, lam=-3.0)
    tr = Truncation(6, 1)
    consts = fb.estimate_constants(presets.osc1d(n_modes=6, lam=1.0))
    fib = fb.assemble_fiber(prob, tr, np.array([0.05]), 0.9, consts)
    with pytest.raises(PositivityViolation):
        fb.partial_flow(fib, 0.0)


def test_partial_flow_at_s_zero_is_the_full_eigh():
    # the infinite cut keeps every pair, from the one eigh of a full flow
    prob = presets.osc1d_full(n_modes=8)
    tr = Truncation(8, 1)
    consts = fb.estimate_constants(prob)
    fib = fb.assemble_fiber(prob, tr, np.array([0.3]), 0.25, consts)
    flow = fb.partial_flow(fib, 0.0)
    w, v = np.linalg.eigh(fib.matrix)
    assert np.array_equal(flow.w, w) and np.array_equal(flow.v, v)


def test_fiber_evaluation_runs_no_eigensolver(monkeypatch):
    # the floor is checked where the fiber is decomposed, not where it is
    # evaluated
    prob = presets.osc1d_full(n_modes=8)
    tr = Truncation(8, 1)
    consts = fb.estimate_constants(prob)
    assert consts.cstar_check > 0.0
    pencil = fb.FiberPencil(prob, tr)

    def refuse(*args, **kwargs):
        raise AssertionError("eigensolver called")

    for module in (np.linalg, scipy.linalg):
        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(module, name, refuse)
    fib = pencil.fiber(np.array([0.3]), 0.25, consts)
    assert fib.lower_bound > 0.0


def test_remainder_norms_enforce_fiber_floor():
    # the sweep path measures the fiber spectrum anyway; a floor above it
    # must raise, the honest floor must not
    prob = presets.osc1d(n_modes=6)
    tr = Truncation(6, 1)
    consts = fb.estimate_constants(prob)
    sol = cl.solve_cell_problems(prob, tr)
    ng = cl.ng_coefficients(prob, sol)
    k, eps = np.array([0.3]), 0.4
    fib = fb.assemble_fiber(prob, tr, k, eps, consts)
    fb.remainder_norms(sol, ng, fib, 1.0)
    wmin = float(np.linalg.eigvalsh(fib.matrix).min())
    inflated = fb.FiberOperator(fib.k, fib.eps, fib.matrix,
                                2.0 * wmin / (k @ k + eps ** 2), tr)
    with pytest.raises(PositivityViolation):
        fb.remainder_norms(sol, ng, inflated, 1.0)
    # at a large s the cut CUT/s lies below the inflated floor; the partial
    # flow then reaches up to that floor, so the check still sees wmin
    s_big = 10.0 * fb.CUT / wmin
    assert fb.CUT / s_big < inflated.lower_bound
    fb.remainder_norms(sol, ng, fib, s_big)
    with pytest.raises(PositivityViolation):
        fb.remainder_norms(sol, ng, inflated, s_big)


def test_kernel_dimension_at_origin():
    for n_modes in (4, 8):
        prob = presets.random_fiber_instance(7, d=1, n_modes=max(8, n_modes))
        tr = Truncation(n_modes, 1)
        fib = fb.assemble_fiber(prob, tr, np.array([0.0]), 0.0)
        n_kernel = x0_decomposition(fib.matrix).kernel_basis.shape[1]
        assert n_kernel == prob.n


def test_directional_consistency_with_abstract_pencil():
    # assemble_fiber(k = t theta, eps) equals B(t, eps) of the grid-space
    # pencil built from X0, X1(theta), Y0, Y1(theta), Y2
    prob = presets.random_fiber_instance(5, d=1, n_modes=8)
    tr = Truncation(8, 1)
    theta = np.array([1.0])
    fam = fb.hatted_family(prob, tr, theta)
    t, eps = 0.33, 0.21
    fib = fb.assemble_fiber(prob, tr, t * theta, eps)
    assert np.abs(fam.B(t, eps) - fib.matrix).max() < 1e-10


def test_fiber_corrector_zero_when_data_zero():
    prob = presets.divergence_free_2d(n_modes=6)
    tr = Truncation(6, 2)
    sol = cl.solve_cell_problems(prob, tr)
    ng = cl.ng_coefficients(prob, sol)
    K = fb.fiber_corrector(sol, ng, tr, np.array([0.2, 0.1]), 0.3, 1.0)
    assert np.abs(K).max() < 1e-10


def test_fiber_corrector_s_zero_form():
    prob = presets.osc1d_full(n_modes=8)
    tr = Truncation(8, 1)
    sol = cl.solve_cell_problems(prob, tr)
    ng = cl.ng_coefficients(prob, sol)
    k, eps = np.array([0.3]), 0.25
    K0 = fb.fiber_corrector(sol, ng, tr, k, eps, 0.0)
    n = prob.n
    sl = fb._zero_block_slice(tr, n)
    gp = np.zeros((tr.size * n, tr.size * n), dtype=complex)
    gp[sl, sl] = sol.f0 @ sol.f0
    bd_k = fd.symbol_blockdiag(lambda q: prob.b_of(q), tr, prob.lattice, k)
    op1 = fd.mult_matrix(sol.LambdaG, tr) @ bd_k \
        + eps * fd.mult_matrix(sol.LambdaTildeG, tr)
    expected = op1 @ gp + (op1 @ gp).conj().T
    assert np.abs(K0 - expected).max() < 1e-12


def test_fiber_corrector_integral_vs_quadrature():
    prob = presets.osc1d_full(n_modes=8)
    tr = Truncation(8, 1)
    consts = fb.estimate_constants(prob)
    sol = cl.solve_cell_problems(prob, tr)
    ng = cl.ng_coefficients(prob, sol)
    k, eps, s = np.array([0.2]), 0.15, 0.8
    H = linalg.herm(sol.B0_symbol(k, eps))
    inner = sol.f0 @ ng.symbol(k, eps) @ sol.f0
    ref = sol.f0 @ oracles.semigroup_integral_quad(H, inner, s) @ sol.f0
    # read the integral term off the zero-mode block of the corrector
    K = fb.fiber_corrector(sol, ng, tr, k, eps, s, consts.cstar_check)
    sl = fb._zero_block_slice(tr, prob.n)
    bd_k = fd.symbol_blockdiag(lambda q: prob.b_of(q), tr, prob.lattice, k)
    op1 = fd.mult_matrix(sol.LambdaG, tr) @ bd_k \
        + eps * fd.mult_matrix(sol.LambdaTildeG, tr)
    w, v = np.linalg.eigh(H)
    ez = sol.f0 @ ((v * np.exp(-w * s)) @ v.conj().T) @ sol.f0
    gp = np.zeros_like(K)
    gp[sl, sl] = ez
    pair = op1 @ gp
    integral_block = (pair + pair.conj().T - K)[sl, sl]
    assert np.abs(integral_block - ref).max() < 1e-9


def test_fiber_remainder_constant_coefficients_floor():
    prob = presets.constant_2d(n_modes=5)
    tr = Truncation(5, 2)
    consts = fb.estimate_constants(prob)
    sol = cl.solve_cell_problems(prob, tr)
    ng = cl.ng_coefficients(prob, sol)
    rep = fb.fiber_remainder(
        sol, ng, fb.assemble_fiber(prob, tr, np.array([0.4, -0.3]), 0.5,
                                   consts), 2.0)
    assert rep["remainder_norm"] < 1e-11


def test_fiber_remainder_envelope_bounded_over_s():
    prob = presets.osc1d(n_modes=12)
    tr = Truncation(12, 1)
    consts = fb.estimate_constants(prob)
    sol = cl.solve_cell_problems(prob, tr)
    ng = cl.ng_coefficients(prob, sol)
    k, eps = np.array([0.4]), 0.3
    fib = fb.assemble_fiber(prob, tr, k, eps, consts)
    ratios = []
    for s in (0.5, 1.0, 2.0, 4.0, 8.0):
        rep = fb.fiber_remainder(sol, ng, fib, s)
        ratios.append(rep["ratio_s_pos"])
    assert max(ratios) < np.inf
    assert max(ratios) / max(min(ratios), 1e-30) < 1e3


@pytest.mark.parametrize("seed,d,n_modes", [(42, 1, 16), (13, 1, 16)])
def test_cross_validation_d1(seed, d, n_modes):
    prob = presets.random_fiber_instance(seed, d=d, n_modes=n_modes)
    tr = Truncation(n_modes, d)
    consts = fb.estimate_constants(prob)
    rep = fb.cross_validate_abstract(prob, tr, [1.0], 0.5 * consts.tau0,
                                     constants=consts)
    assert rep["Z"] < 1e-7 and rep["Ztilde"] < 1e-7
    assert rep["germ"] < 1e-7 and rep["L"] < 1e-7 and rep["N"] < 1e-6


@pytest.mark.parametrize("theta,tau", [
    ([0.0], 0.1), ([np.nan], 0.1), ([np.inf], 0.1), ([1.0, 0.0], 0.1),
    ([1.0], 0.0), ([1.0], -0.1), ([1.0], np.nan), ([1.0], np.inf)])
def test_cross_validation_rejects_invalid_direction_and_radius(
        monkeypatch, theta, tau):
    prob = presets.random_fiber_instance(42, d=1, n_modes=6)
    _forbid_cross_validation_work(monkeypatch)
    with pytest.raises(ValueError):
        fb.cross_validate_abstract(prob, Truncation(6, 1), theta, tau)


def test_cross_validation_frees_the_family_before_the_residuals(monkeypatch):
    # the hatted family is the largest object of a cross-validation; nothing
    # reads it after compute_threshold, so it must be gone by the time the
    # residual phase evaluates the kernel-basis middles of L and N
    refs, polys = [], []
    real_threshold, real_poly = fb.compute_threshold, fb.kernel_poly

    def threshold(family, *args, **kwargs):
        refs.append(weakref.ref(family))
        return real_threshold(family, *args, **kwargs)

    def kernel_poly(*args, **kwargs):
        alive = [ref for ref in refs if ref() is not None]
        assert refs and not alive, "the hatted family is still alive"
        polys.append(args)
        return real_poly(*args, **kwargs)

    monkeypatch.setattr(fb, "compute_threshold", threshold)
    monkeypatch.setattr(fb, "kernel_poly", kernel_poly)
    prob = presets.random_fiber_instance(42, d=1, n_modes=6)
    consts = fb.estimate_constants(prob)
    fb.cross_validate_abstract(prob, Truncation(6, 1), [1.0],
                               0.5 * consts.tau0, constants=consts)
    assert len(refs) == 1 and len(polys) == 2


def test_cross_validation_expands_no_full_space_operator(monkeypatch):
    # the residuals are normed from their kernel-basis factors: no threshold
    # object is expanded to a dim x dim matrix
    from parahom import abstract as ab

    def expanded(*args, **kwargs):
        raise AssertionError("a dim x dim threshold operator was formed")

    monkeypatch.setattr(ab.ThresholdData, "expand", expanded)
    for name in ("P", "Z", "Ztilde", "S_block"):
        monkeypatch.setattr(ab.ThresholdData, name, property(expanded))
    prob = presets.random_fiber_instance(42, d=1, n_modes=6)
    consts = fb.estimate_constants(prob)
    rep = fb.cross_validate_abstract(prob, Truncation(6, 1), [1.0],
                                     0.5 * consts.tau0, constants=consts)
    assert set(rep) == {"Z", "Ztilde", "germ", "L", "N"}


def _crossval_2d_case():
    # the perfbench crossval_2d configuration: seed 201, N = 11, dim 529
    angle = np.random.default_rng(201).uniform(0.0, 2.0 * np.pi)
    return (presets.random_fiber_instance(201, d=2, n_modes=11),
            Truncation(11, 2), [np.cos(angle), np.sin(angle)], 0.5)


@pytest.mark.parametrize("case", [
    lambda: (presets.random_fiber_instance(42, d=1, n_modes=16),
             Truncation(16, 1), [1.0], 0.5),
    lambda: (presets.random_fiber_instance(13, d=1, n_modes=16),
             Truncation(16, 1), [1.0], 0.5),
    lambda: (presets.constant_2d(n_modes=5), Truncation(5, 2), [0.6, 0.8],
             0.4),
    _crossval_2d_case,
], ids=["random_d1_seed42", "random_d1_seed13", "constant_2d", "crossval_2d"])
def test_cross_validation_norms_match_dense_residuals(case):
    prob, tr, theta, tau_frac = case()
    consts = fb.estimate_constants(prob)
    tau = tau_frac * consts.tau0
    rep = fb.cross_validate_abstract(prob, tr, theta, tau, constants=consts,
                                     raise_on_fail=False)
    ref = oracles.cross_validation_dense_norms(prob, tr, theta, tau, consts)
    assert set(rep) == set(ref)
    for name, val in ref.items():
        assert abs(rep[name] - val) < 1e-13, (name, rep[name], val)


def test_cross_validation_builds_only_x0_densely(monkeypatch):
    # the grid maps are factored: the only dense map a cross-validation
    # builds is X0, for its QR, and it is gone when the decomposition returns
    from parahom import abstract as ab

    x0_maps, dense_of, alive_at_return = [], [], []
    real_x0, real_array = fb.GridRectangles.X0, fb.GridMap.__array__

    def x0(self):
        x0_maps.append(real_x0(self))
        return x0_maps[-1]

    def array(self, *args, **kwargs):
        out = real_array(self, *args, **kwargs)
        dense_of.append((self, weakref.ref(out if out.base is None
                                           else out.base)))
        return out

    def x0_decomposition(X0):
        split = real_split(X0)
        alive_at_return.append(sum(ref() is not None for _, ref in dense_of))
        return split

    real_split = ab.x0_decomposition
    monkeypatch.setattr(fb.GridRectangles, "X0", x0)
    monkeypatch.setattr(fb.GridMap, "__array__", array)
    monkeypatch.setattr(ab, "x0_decomposition", x0_decomposition)
    for prob, tr, theta in (
            (presets.random_fiber_instance(42, d=1, n_modes=6),
             Truncation(6, 1), [1.0]),
            (presets.random_fiber_instance(201, d=2, n_modes=4),
             Truncation(4, 2), [0.6, 0.8])):
        x0_maps.clear()
        dense_of.clear()
        alive_at_return.clear()
        consts = fb.estimate_constants(prob)
        fb.cross_validate_abstract(prob, tr, theta, 0.5 * consts.tau0,
                                   constants=consts)
        assert len(x0_maps) == 1
        assert [m for m, _ in dense_of] == x0_maps
        assert alive_at_return == [0]


def _traced_peak(call):
    """Bytes traced by tracemalloc at the peak of ``call()``, above its
    start."""
    import tracemalloc

    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_cross_validation_peak_memory_is_bounded_by_x0():
    # crossval_2d: the traced peak above the start stays below 1.5 times
    # X0's bytes, X0 and its R factor in the QR; with dense Q and Q0 held
    # by the family it read 2.07 times, with X0 held by the family, a dense
    # E and a second copy of X0 in the QR 3.56 times
    prob, tr, theta, tau_frac = _crossval_2d_case()
    consts = fb.estimate_constants(prob)
    x0_bytes = 16 * np.prod(fb.GridRectangles(
        prob, tr, fb.rectangle_grid(prob, tr)).X0().shape)
    peak = _traced_peak(lambda: fb.cross_validate_abstract(
        prob, tr, theta, tau_frac * consts.tau0, constants=consts))
    assert peak < 1.5 * x0_bytes, peak / x0_bytes


def test_cell_solve_peak_memory_is_bounded_by_the_galerkin_matrix():
    # crossval_2d's cell solve: the traced peak above the start stays below
    # 4.5 (Mn) x (Mn) complex matrices; with (M, M, d) mode-difference
    # indices, broadcast temporaries and the full Galerkin matrix held
    # through the certificate it read 5.06
    prob, tr, _, _ = _crossval_2d_case()
    galerkin_bytes = 16 * (tr.size * prob.n) ** 2
    peak = _traced_peak(lambda: cl.solve_cell_problems(prob, tr))
    assert peak < 4.5 * galerkin_bytes, peak / galerkin_bytes


def _forbid_cross_validation_work(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the arguments were checked")

    for name in ("estimate_constants", "solve_cell_problems", "hatted_family"):
        monkeypatch.setattr(fb, name, no_work)


def test_cross_validation_rejects_weighted_f_before_any_work(monkeypatch):
    _, prob, tr = next(p for p in BLOCK_STACK_PROBLEMS
                       if p[0] == "weighted_f_1d")
    assert not prob.f_is_identity
    _forbid_cross_validation_work(monkeypatch)
    with pytest.raises(NotImplementedError):
        fb.cross_validate_abstract(prob, tr, [1.0], 0.1)


def test_cross_validation_never_passes_a_nan_residual(monkeypatch):
    prob = presets.random_fiber_instance(42, d=1, n_modes=6)
    consts = fb.estimate_constants(prob)
    monkeypatch.setattr(linalg, "opnorm", lambda a: np.nan)
    with pytest.raises(MismatchBeyondTolerance):
        fb.cross_validate_abstract(prob, Truncation(6, 1), [1.0],
                                   0.5 * consts.tau0, constants=consts)


@pytest.mark.parametrize("seed,d", [(5, 1), (201, 2)])
def test_grid_rectangles_match_einsum_construction(seed, d):
    # each factored map against the einsum build of its dense rectangle:
    # the dense form, map @ C and map.T @ V
    prob = presets.random_fiber_instance(seed, d=d, n_modes=6)
    assert prob.a is not None
    tr = Truncation(6, d)
    theta = np.ones(d) / np.sqrt(d)
    rect = fb.GridRectangles(prob, tr, fb.rectangle_grid(prob, tr))
    ref = oracles.grid_rectangles_einsum(rect, theta)
    got = {"X0": rect.X0(), "X1": rect.X1(theta), "Y0": rect.Y0(),
           "Y1": rect.Y1(theta), "Y2": rect.Y2()}
    rng = np.random.default_rng(seed)

    def close(a, b):
        return np.abs(a - b).max() < 1e-13 * max(1.0, np.abs(b).max())

    for name, op in got.items():
        dense = ref[name]
        assert op.shape == dense.shape and op.T.shape == dense.T.shape
        cols = rng.standard_normal((dense.shape[1], 3)) \
            + 1j * rng.standard_normal((dense.shape[1], 3))
        rows = rng.standard_normal((dense.shape[0], 3)) \
            + 1j * rng.standard_normal((dense.shape[0], 3))
        assert close(np.asarray(op), dense), name
        assert close(np.asarray(op.T), dense.T), name
        assert close(op @ cols, dense @ cols), name
        assert close(op.T @ rows, dense.T @ rows), name


def test_hatted_threshold_matches_dense_formulas():
    prob = presets.random_fiber_instance(201, d=2, n_modes=6)
    tr = Truncation(6, 2)
    consts = fb.estimate_constants(prob)
    fam = fb.hatted_family(prob, tr, [0.6, 0.8], consts,
                           fb.rectangle_grid(prob, tr))
    from parahom.abstract import compute_threshold
    th = compute_threshold(fam, delta=consts.delta, tau0=consts.tau0)
    ref = oracles.dense_threshold(fam)
    got = oracles.dense_objects(th)
    for name, val in ref.items():
        scale = max(1.0, float(np.abs(val).max()))
        assert np.abs(got[name] - val).max() < 1e-12 * scale, name


def test_cross_validation_on_random_fiber_in_3d():
    # random_fiber's 3D preset is b = grad with m = 3: the abstract and the
    # explicit routes agree as in 1D and 2D
    prob = presets.random_fiber_instance(201, d=3, n_modes=2)
    assert prob.b_symbols.shape == (3, 3, 1)
    consts = fb.estimate_constants(prob)
    rep = fb.cross_validate_abstract(prob, Truncation(2, 3), [0.6, 0.8, 0.0],
                                     0.5 * consts.tau0, constants=consts)
    assert max(rep.values()) < 1e-12


def test_cross_validation_constant_coefficients():
    prob = presets.constant_2d(n_modes=5)
    tr = Truncation(5, 2)
    consts = fb.estimate_constants(prob)
    theta = np.array([0.6, 0.8])
    rep = fb.cross_validate_abstract(prob, tr, theta, 0.4 * consts.tau0,
                                     constants=consts, raise_on_fail=False)
    # both routes give zero Z, Ztilde, N and the germ b(theta)* g b(theta)
    assert rep["Z"] < 1e-12 and rep["Ztilde"] < 1e-12 and rep["N"] < 1e-12
    fam = fb.hatted_family(prob, tr, theta, consts)
    from parahom.abstract import compute_threshold
    th = compute_threshold(fam, delta=consts.delta, tau0=consts.tau0)
    bth = prob.b_of(theta)
    g0 = fd.mean_field(prob.g)
    sl = fb._zero_block_slice(tr, prob.n)
    assert np.abs(th.S_block[sl, sl] - bth.conj().T @ g0 @ bth).max() < 1e-10


def _close(got, ref, rtol=1e-13):
    return np.abs(got - ref).max() <= rtol * max(1.0, float(np.abs(ref).max()))


BLOCK_STACK_PROBLEMS = oracles.block_stack_problems()


@pytest.mark.parametrize("name,prob,tr", BLOCK_STACK_PROBLEMS,
                         ids=[p[0] for p in BLOCK_STACK_PROBLEMS])
def test_fiber_matches_dense_block_diagonal_assembly(name, prob, tr):
    for k, eps in ((0.3, 0.25), (-0.7, 0.1), (0.0, 0.0)):
        kv = np.full(prob.d, k)
        got = fb.assemble_fiber(prob, tr, kv, eps).matrix
        assert _close(got, oracles.dense_fiber(prob, tr, kv, eps)), (k, eps)


@pytest.mark.parametrize("name,prob,tr", BLOCK_STACK_PROBLEMS,
                         ids=[p[0] for p in BLOCK_STACK_PROBLEMS])
def test_fiber_corrector_matches_dense_formulas(name, prob, tr):
    sol = cl.solve_cell_problems(prob, tr)
    ng = cl.ng_coefficients(prob, sol)
    for k, eps, s in ((0.3, 0.25, 8.0), (-0.7, 0.1, 0.5)):
        kv = np.full(prob.d, k)
        got = fb.fiber_corrector(sol, ng, tr, kv, eps, s)
        ref = oracles.dense_fiber_corrector(sol, ng, tr, kv, eps, s)
        assert _close(got, ref), (k, eps, s)


def test_fiber_effective_block_enforces_floor():
    prob = presets.osc1d_full(n_modes=8)
    tr = Truncation(8, 1)
    consts = fb.estimate_constants(prob)
    sol = cl.solve_cell_problems(prob, tr)
    ng = cl.ng_coefficients(prob, sol)
    k, eps, s = np.array([0.3]), 0.25, 2.0
    fb.fiber_corrector(sol, ng, tr, k, eps, s, consts.cstar_check)
    wmin = float(np.linalg.eigvalsh(linalg.herm(sol.B0_symbol(k, eps))).min())
    inflated = 2.0 * wmin / (k @ k + eps ** 2)
    with pytest.raises(NonPositiveEffective):
        fb.principal_term(sol, tr, k, eps, s, inflated)
    with pytest.raises(NonPositiveEffective):
        fb.fiber_corrector(sol, ng, tr, k, eps, s, inflated)


@pytest.mark.parametrize("name,prob,tr", BLOCK_STACK_PROBLEMS,
                         ids=[p[0] for p in BLOCK_STACK_PROBLEMS])
def test_pencil_matches_reference_assembly(name, prob, tr):
    pencil = fb.FiberPencil(prob, tr)
    for k, eps in ((0.3, 0.25), (-0.7, 0.1), (0.0, 0.0), (2.1, 1.3)):
        kv = k * np.arange(1.0, prob.d + 1.0)
        got = pencil.fiber(kv, eps).matrix
        ref = oracles.assemble_fiber_reference(prob, tr, kv, eps)
        assert _close(got, ref), (k, eps)


def test_pencil_builds_no_multiplication_matrix(monkeypatch):
    # with f = I every coefficient (g, each a_j and Q) is a Galerkin
    # sandwich: no (M n)^2 multiplication matrix is built
    calls, original = [], fd.mult_matrix
    monkeypatch.setattr(fd, "mult_matrix",
                        lambda *args: calls.append(1) or original(*args))
    _, prob, tr = BLOCK_STACK_PROBLEMS[1]
    assert prob.f_is_identity and prob.a is not None \
        and prob.Qdensity is not None
    fb.FiberPencil(prob, tr)
    assert not calls


def _weighted_f_2d():
    # random_fiber_2d with a non-identity weight f: the pencil also gathers
    # the rectangular [f] from the extended mode set to the truncation
    _, prob, tr = BLOCK_STACK_PROBLEMS[1]
    f = fd.harmonic_field(prob.grid_shape, 1, 1, [((1, 0), [[0.3]], 1.1)],
                          const=[[1.2]])
    return None, cl.PeriodicProblem(prob.lattice, prob.b_symbols, prob.g,
                                    f=f, a=prob.a, Qdensity=prob.Qdensity,
                                    lam=prob.lam), tr


@pytest.mark.parametrize("case", [lambda: BLOCK_STACK_PROBLEMS[1],
                                  lambda: BLOCK_STACK_PROBLEMS[2],
                                  _weighted_f_2d],
                         ids=["random_fiber_2d", "scalar_example_2d",
                              "weighted_f_2d"])
def test_gathers_hold_no_index_above_two_axis_ranges(case, monkeypatch):
    # the pencil, the cell solve and the rectangular [f] gathers index the
    # FFT bins one axis at a time: no index array holds more than
    # (2N+1)^2 entries, where an (M, M) index holds (2N+1)^(2d)
    sizes, original = [], fd.difference_index

    def spy(rows, cols, grid):
        index = original(rows, cols, grid)
        width = 2 * max(rows.n_modes, cols.n_modes) + 1
        sizes.extend(a.size / width ** 2 for a in index)
        return index

    monkeypatch.setattr(fd, "difference_index", spy)
    _, prob, tr = case()
    assert prob.d == 2
    fb.FiberPencil(prob, tr)
    cl.solve_cell_problems(prob, tr)
    assert sizes and max(sizes) <= 1.0


_PENCIL_CASE = BLOCK_STACK_PROBLEMS[1]
_PENCIL = fb.FiberPencil(_PENCIL_CASE[1], _PENCIL_CASE[2])


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.floats(-np.pi, np.pi), st.floats(-np.pi, np.pi),
       st.floats(0.0, 2.0))
def test_pencil_matches_reference_at_random_points(k1, k2, eps):
    _, prob, tr = _PENCIL_CASE
    kv = np.array([k1, k2])
    got = _PENCIL.fiber(kv, eps).matrix
    assert _close(got, oracles.assemble_fiber_reference(prob, tr, kv, eps))


def test_span_norms_match_dense_norms_of_planted_residuals():
    # X w* and w M w* against the dense norms of the same D x D products,
    # for a random pair of columns and for the production case: the kernel
    # vector u is the zero-mode column e0 up to a tilt near rounding
    rng = np.random.default_rng(11)
    dim = 40

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    e0 = np.eye(dim)[:, [19]]
    bases = [cplx(dim, 2)]
    for tilt in (1e-9, 1e-15):
        u = e0 + tilt * cplx(dim, 1)
        bases.append(np.concatenate([u / np.linalg.norm(u), e0], axis=1))

    for w in bases:
        for scale in (1e-8, 1e-3, 1.0):
            x = scale * cplx(dim, 2)
            m = scale * linalg.herm(cplx(2, 2))
            got = fb._span_norms(w, [x], [m])
            ref = [linalg.opnorm(x @ w.conj().T),
                   linalg.opnorm(w @ m @ w.conj().T)]
            assert got == pytest.approx(ref, rel=1e-13, abs=0.0)


def _parity_tol(fib, s, ref):
    """Rounding of the fiber eigenvalues amplified by s, plus 1e-13
    relative for the O(1) parts.  The oracle's divide-and-conquer eigh and
    the partial MRRR eigh each put the small eigenvalues a few ||B||_2 u
    from the exact ones: on random_fiber_2d at k = 0, eps = 0.0234 a 30-digit
    value put them 3.7 and 0.35 ||B||_2 u off with two OpenBLAS threads."""
    return (4.0 * s * np.linalg.norm(fib.matrix, 2) * 2.0 ** -52
            + 1e-13 * max(1.0, ref))


def _sol_ng(prob, tr):
    sol = cl.solve_cell_problems(prob, tr)
    return sol, cl.ng_coefficients(prob, sol)


@pytest.mark.parametrize("name,prob,tr", BLOCK_STACK_PROBLEMS,
                         ids=[p[0] for p in BLOCK_STACK_PROBLEMS])
def test_remainder_norms_match_dense_oracle(name, prob, tr):
    # no flow, a full flow and a partial flow all give the dense norms
    consts = fb.estimate_constants(prob)
    sol, ng = _sol_ng(prob, tr)
    pencil = fb.FiberPencil(prob, tr)
    for k, eps in ((0.3, 0.25), (-0.7, 0.1), (1.4, 0.6)):
        kv = k * np.arange(1.0, prob.d + 1.0)
        fib = pencil.fiber(kv, eps, consts)
        full = fb.partial_flow(fib, 0.0)
        for s in (0.0, 1.0, 0.5 / eps ** 2):
            ref = oracles.dense_remainder_norms(sol, ng, tr, kv, eps, s, fib)
            for flow in (None, full, fb.partial_flow(fib, s)):
                got = fb.remainder_norms(sol, ng, fib, s, flow)
                for g, r in zip(got, ref):
                    assert abs(g - r) <= _parity_tol(fib, s, r), (k, eps, s)


def test_remainder_norms_with_an_eigenvalue_at_the_cut():
    _, prob, tr = BLOCK_STACK_PROBLEMS[2]
    consts = fb.estimate_constants(prob)
    sol, ng = _sol_ng(prob, tr)
    k, eps = np.array([0.4, -0.2]), 0.3
    fib = fb.FiberPencil(prob, tr).fiber(k, eps, consts)
    w = np.linalg.eigvalsh(fib.matrix)
    for delta, kept in ((-5e-7, 1), (5e-7, 2)):
        s = fb.CUT / (w[1] + delta)          # w[1] within 1e-6 of the cut
        assert fb.partial_flow(fib, s).w.size == kept
        got = fb.remainder_norms(sol, ng, fib, s)
        ref = oracles.dense_remainder_norms(sol, ng, tr, k, eps, s, fib)
        for g, r in zip(got, ref):
            assert abs(g - r) <= _parity_tol(fib, s, r), delta


_ORACLE_SOL_NG = _sol_ng(_PENCIL_CASE[1], _PENCIL_CASE[2])


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(st.floats(-np.pi, np.pi), st.floats(-np.pi, np.pi),
       st.floats(0.02, 1.0), st.floats(0.0, 200.0))
def test_remainder_norms_match_dense_oracle_at_random_points(k1, k2, eps, s):
    _, prob, tr = _PENCIL_CASE
    sol, ng = _ORACLE_SOL_NG
    kv = np.array([k1, k2])
    fib = _PENCIL.fiber(kv, eps)
    got = fb.remainder_norms(sol, ng, fib, s)
    ref = oracles.dense_remainder_norms(sol, ng, tr, kv, eps, s, fib)
    for g, r in zip(got, ref):
        assert abs(g - r) <= _parity_tol(fib, s, r)


def test_effective_factors_batched_match_single_points():
    _, prob, tr = BLOCK_STACK_PROBLEMS[0]
    sol, ng = _sol_ng(prob, tr)
    ks = np.random.default_rng(4).uniform(-np.pi, np.pi, (3, 4, prob.d))
    stacked = fb.effective_factors(sol, ng, tr, ks, 0.2, 3.0)
    for idx in np.ndindex(ks.shape[:-1]):
        single = fb.effective_factors(sol, ng, tr, ks[idx], 0.2, 3.0)
        for got, ref in zip(stacked, single):
            assert _close(got[idx], ref), idx


def _planted_fiber(lam_min, dim=40, seed=5):
    """Hermitian fiber with spectrum lam_min, then 1, 2, ... above it."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim))
                        + 1j * rng.standard_normal((dim, dim)))
    w = np.concatenate(([lam_min], lam_min + np.arange(1.0, dim)))
    mat = linalg.herm((q * w) @ q.conj().T)
    return fb.FiberOperator(np.zeros(1), 0.1, mat, 0.0, None)


def test_spectrum_above_decides_a_planted_eigenvalue_at_the_cut():
    # the margin gamma is ~5e-12 here, far inside the 1e-6 offsets: the
    # certificate holds just above the cut and the partial eigh runs below
    vu = 2.5
    s = fb.CUT / vu
    for rel, kept in ((1e-6, 0), (-1e-6, 1)):
        fib = _planted_fiber(vu * (1.0 + rel))
        assert fb.spectrum_above(fib.matrix, vu) == (kept == 0)
        flow = fb.partial_flow(fib, s)
        assert flow.w.size == kept
        assert flow.v.shape == (fib.matrix.shape[0], kept)
    # an eigenvalue at the cut is kept, so the margin must not certify it
    assert not fb.spectrum_above(_planted_fiber(vu).matrix, vu)


def test_partial_flow_owns_compact_arrays():
    # at a finite cut the kept vectors are their own (D, r) array, not a view
    # of a D x D buffer that every holder of the flow would keep alive
    vu = 2.5
    for lam_min, kept in ((vu * (1.0 - 1e-6), 1), (vu * (1.0 + 1e-6), 0)):
        fib = _planted_fiber(lam_min)
        flow = fb.partial_flow(fib, fb.CUT / vu)
        assert flow.w.size == kept
        assert flow.v.base is None
        assert flow.v.nbytes == fib.matrix.shape[0] * kept * 16
    # the 2D scalar example at a quarter of its fibers' pairs
    _, prob, tr = BLOCK_STACK_PROBLEMS[2]
    fib = fb.FiberPencil(prob, tr).fiber(np.array([0.4, -0.2]), 0.3)
    w = np.linalg.eigvalsh(fib.matrix)
    dim = len(w)
    flow = fb.partial_flow(fib, fb.CUT / w[dim // 4])
    assert 0 < flow.w.size < dim
    assert flow.v.base is None and flow.v.shape == (dim, flow.w.size)


def test_spectrum_above_never_certifies_nan_or_an_infinite_cut():
    fib = _planted_fiber(5.0)
    assert fb.spectrum_above(fib.matrix, 1.0)
    # s = 0 keeps every pair: the cut is infinite and nothing is certified
    assert not fb.spectrum_above(fib.matrix, np.inf)
    assert fb.partial_flow(fib, 0.0).w.size == fib.matrix.shape[0]
    # a NaN entry fails the Cholesky and reaches eigh's finiteness check
    bad = fib.matrix.copy()
    bad[3, 7] = bad[7, 3] = np.nan
    assert not fb.spectrum_above(bad, 1.0)
    with pytest.raises(ValueError):
        fb.partial_flow(fb.FiberOperator(fib.k, fib.eps, bad, 0.0, None),
                        fb.CUT / 1.0)


@pytest.mark.parametrize("name,prob,tr", BLOCK_STACK_PROBLEMS,
                         ids=[p[0] for p in BLOCK_STACK_PROBLEMS])
def test_projected_norms_batch_matches_single_fibers(name, prob, tr):
    # fibers away from k = 0 keep no pair at this s; the sweep norms them in
    # one stacked call, which must give each fiber's remainder_norms
    consts = fb.estimate_constants(prob)
    sol, ng = _sol_ng(prob, tr)
    pencil = fb.FiberPencil(prob, tr)
    eps, s = 0.125, 8.0
    ks = np.random.default_rng(6).uniform(1.5, np.pi, (5, prob.d))
    fibs = [pencil.fiber(k, eps, consts) for k in ks]
    assert all(fb.partial_flow(f, s).w.size == 0 for f in fibs)
    dim = fibs[0].matrix.shape[0]
    for mode in ("both", "principal", "corrected"):
        effective = fb.effective_factors(
            sol, ng if mode != "principal" else None, tr, ks, eps, s)
        got = fb.projected_norms(tr, np.zeros((len(ks), dim, 0)),
                                 np.zeros((len(ks), 0)), effective, mode)
        for k, f, row in zip(ks, fibs, got):
            ref = fb.remainder_norms(sol, ng, f, s, mode=mode)
            assert np.allclose(row, ref, rtol=1e-12, atol=0.0), (mode, k)
        # the norms are tiny but positive; a norm not computed reads 0.0
        computed = [mode != "corrected", mode != "principal"]
        assert np.all((got > 0.0) == computed), mode


@pytest.mark.parametrize("name,prob,tr", BLOCK_STACK_PROBLEMS,
                         ids=[p[0] for p in BLOCK_STACK_PROBLEMS])
def test_batched_partial_flow_matches_single_fibers(name, prob, tr):
    # one evaluation, one certificate and the partial eighs of a batch give
    # each fiber's own matrix and pairs; the batch pads the fibers that keep
    # fewer pairs with zero columns and eigenvalues at their cut
    consts = fb.estimate_constants(prob)
    pencil = fb.FiberPencil(prob, tr)
    eps, s = 0.25, 8.0
    ks = np.concatenate([np.zeros((1, prob.d)), np.random.default_rng(9)
                         .uniform(-np.pi, np.pi, (5, prob.d))])
    batch = pencil.fiber(ks, eps, consts)
    flow = fb.partial_flow(batch, s)
    singles = [pencil.fiber(k, eps, consts) for k in ks]
    flows = [fb.partial_flow(f, s) for f in singles]
    kept = [f.w.size for f in flows]
    assert flow.w.shape == (len(ks), max(kept))
    assert flow.v.shape == (len(ks), batch.matrix.shape[-1], max(kept))
    assert 0 in kept and max(kept) > 0
    assert np.all(np.isfinite(flow.decay(s)))
    cuts = fb.cut_value(batch, s)
    for i, (fib, single, m) in enumerate(zip(singles, flows, kept)):
        assert np.array_equal(batch.matrix[i], fib.matrix)
        assert cuts[i] == fb.cut_value(fib, s)
        assert np.array_equal(flow.w[i, :m], single.w)
        assert np.array_equal(flow.v[i, :, :m], single.v)
        assert np.all(flow.w[i, m:] == cuts[i])
        assert not np.any(flow.v[i, :, m:])
    # leading axes keep their shape
    grid = fb.partial_flow(pencil.fiber(ks.reshape(2, 3, -1), eps, consts), s)
    assert np.array_equal(grid.v, flow.v.reshape(2, 3, *flow.v.shape[1:]))


def test_batched_partial_flow_holds_every_fiber_to_its_floor():
    # floor 1.0 (c*-check 100 at tau^2 = 0.01) and cut 2.5: the batch keeps
    # 1, 3 and 0 pairs, and the second fiber alone lies below the floor
    vu = 2.5
    mats = [_planted_fiber(lam).matrix for lam in (2.0, 0.4, 3.0)]

    def batch(*idx):
        return fb.FiberOperator(np.zeros((len(idx), 1)), 0.1,
                                np.stack([mats[i] for i in idx]), 100.0, None)

    flow = fb.partial_flow(batch(0, 2), fb.CUT / vu)
    assert flow.w.shape == (2, 1) and flow.w[1, 0] == vu
    for idx in ((1,), (0, 1, 2), (2, 0, 1)):
        with pytest.raises(PositivityViolation):
            fb.partial_flow(batch(*idx), fb.CUT / vu)
