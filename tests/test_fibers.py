import numpy as np
import pytest

from parahom import cell as cl
from parahom import fibers as fb
from parahom import fields as fd
from parahom import linalg
from parahom import presets
from parahom.abstract import kernel_projection
from parahom.errors import PositivityViolation
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
        rel = linalg.hermiticity_defect(fib.matrix)
        assert rel < 1e-10
        wmin = np.linalg.eigvalsh(fib.matrix).min()
        assert wmin >= fib.lower_bound - 1e-9


def test_positivity_violation_raises():
    # lam chosen far too negative: the fiber loses its lower bound
    prob = presets.osc1d(n_modes=6, lam=-3.0)
    tr = Truncation(6, 1)
    consts = fb.estimate_constants(presets.osc1d(n_modes=6, lam=1.0))
    with pytest.raises(PositivityViolation):
        fb.assemble_fiber(prob, tr, np.array([0.05]), 0.9, consts)


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
    fb.remainder_norms(sol, ng, tr, k, eps, 1.0, consts, fib)
    wmin = float(np.linalg.eigvalsh(fib.matrix).min())
    inflated = fb.FiberOperator(fib.k, fib.eps, fib.matrix,
                                2.0 * wmin / (k @ k + eps ** 2), tr, fib.n)
    with pytest.raises(PositivityViolation):
        fb.remainder_norms(sol, ng, tr, k, eps, 1.0, consts, inflated)


def test_kernel_dimension_at_origin():
    for n_modes in (4, 8):
        prob = presets.random_fiber_instance(7, d=1, n_modes=max(8, n_modes))
        tr = Truncation(n_modes, 1)
        fib = fb.assemble_fiber(prob, tr, np.array([0.0]), 0.0, check=False)
        _, n_kernel, _ = kernel_projection(fib.matrix)
        assert n_kernel == prob.n


def test_directional_consistency_with_abstract_pencil():
    # assemble_fiber(k = t theta, eps) equals B(t, eps) of the grid-space
    # pencil built from X0, X1(theta), Y0, Y1(theta), Y2
    prob = presets.random_fiber_instance(5, d=1, n_modes=8)
    tr = Truncation(8, 1)
    theta = np.array([1.0])
    fam = fb.hatted_family(prob, tr, theta)
    t, eps = 0.33, 0.21
    fib = fb.assemble_fiber(prob, tr, t * theta, eps, check=False)
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
    H = fb.effective_zero_block(sol, k, eps)
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
    rep = fb.fiber_remainder(sol, ng, tr, np.array([0.4, -0.3]), 0.5, 2.0,
                             consts)
    assert rep["remainder_norm"] < 1e-11


def test_fiber_remainder_envelope_bounded_over_s():
    prob = presets.osc1d(n_modes=12)
    tr = Truncation(12, 1)
    consts = fb.estimate_constants(prob)
    sol = cl.solve_cell_problems(prob, tr)
    ng = cl.ng_coefficients(prob, sol)
    k, eps = np.array([0.4]), 0.3
    ratios = []
    for s in (0.5, 1.0, 2.0, 4.0, 8.0):
        rep = fb.fiber_remainder(sol, ng, tr, k, eps, s, consts)
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


@pytest.mark.parametrize("seed,d", [(5, 1), (201, 2)])
def test_grid_rectangles_match_einsum_construction(seed, d):
    prob = presets.random_fiber_instance(seed, d=d, n_modes=6)
    assert prob.a is not None
    tr = Truncation(6, d)
    theta = np.ones(d) / np.sqrt(d)
    rect = fb.GridRectangles(prob, tr, fb.rectangle_grid(prob, tr))
    ref = oracles.grid_rectangles_einsum(rect, theta)
    got = {"X0": rect.X0(), "X1": rect.X1(theta), "Y0": rect.Y0(),
           "Y1": rect.Y1(theta), "Y2": rect.Y2()}
    for name, mat in got.items():
        assert mat.shape == ref[name].shape
        assert np.abs(mat - ref[name]).max() < 1e-13 * max(
            1.0, np.abs(ref[name]).max())


def test_hatted_threshold_matches_dense_formulas():
    prob = presets.random_fiber_instance(201, d=2, n_modes=6)
    tr = Truncation(6, 2)
    consts = fb.estimate_constants(prob)
    fam = fb.hatted_family(prob, tr, [0.6, 0.8], consts,
                           fb.rectangle_grid(prob, tr))
    from parahom.abstract import compute_threshold
    th = compute_threshold(fam, delta=consts.delta, tau0=consts.tau0)
    ref = oracles.dense_threshold(fam)
    for name, val in ref.items():
        scale = max(1.0, float(np.abs(val).max()))
        assert np.abs(getattr(th, name) - val).max() < 1e-12 * scale, name


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
