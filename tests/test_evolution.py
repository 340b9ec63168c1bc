import dataclasses
import gc
import weakref

import numpy as np
import pytest

from parahom import cell as cl
from parahom import evolution as ev
from parahom import fibers as fb
from parahom import fields as fd
from parahom import linalg
from parahom import presets
from parahom import scalar_example as se
from parahom.errors import (NonPositiveEffective, PositivityViolation,
                            QuadratureUnderResolved, RegimeViolation)
from parahom.fields import Truncation
from parahom.lattice import cubic_lattice

import oracles


def make_setup(preset="osc1d", n_modes=8, eps=0.25, n_cells=16, **kw):
    prob = presets.make_problem(preset, n_modes=n_modes, **kw)
    tr = Truncation(n_modes, prob.lattice.dimension)
    consts = fb.estimate_constants(prob)
    sol = cl.solve_cell_problems(prob, tr)
    ng = cl.ng_coefficients(prob, sol)
    return ev.EvolutionSetup(sol, ng, consts, eps, n_cells, tr)


@pytest.fixture(scope="module")
def setup_1d():
    return make_setup()


@pytest.fixture(scope="module")
def phi_1d(setup_1d):
    return setup_1d.random_band_limited(np.random.default_rng(0))


def test_bloch_roundtrip(setup_1d, phi_1d):
    back = setup_1d.recompose(setup_1d.decompose(phi_1d))
    assert np.abs(back - phi_1d).max() < 1e-12


def test_smoothing_constant_unchanged(setup_1d):
    c = np.ones((int(np.prod(setup_1d.box_shape)), 1), dtype=complex)
    out = ev.smoothing_apply(setup_1d, c)
    assert np.abs(out - c).max() < 1e-13


def test_smoothing_outside_mode_killed(setup_1d):
    # pure mode far outside the zone / eps maps to zero
    g = setup_1d.box_shape[0]
    x = np.arange(g) / g
    mode = np.exp(2j * np.pi * (g // 3) * x)[:, None]
    out = ev.smoothing_apply(setup_1d, mode)
    assert np.abs(out).max() < 1e-12


def test_smoothing_matches_mask_oracle(setup_1d, phi_1d):
    mask = ev.brillouin_mask(setup_1d)
    ref = oracles.fft_mask_oracle(phi_1d, setup_1d.box_shape, mask)
    out = ev.smoothing_apply(setup_1d, phi_1d)
    assert np.abs(out - ref).max() < 1e-12


def test_smoothing_idempotent_self_adjoint(setup_1d, phi_1d):
    p1 = ev.smoothing_apply(setup_1d, phi_1d)
    p2 = ev.smoothing_apply(setup_1d, p1)
    assert setup_1d.box_norm(p2 - p1) < 1e-12
    psi = setup_1d.random_band_limited(np.random.default_rng(7))
    lhs = np.vdot(psi, p1)
    rhs = np.vdot(ev.smoothing_apply(setup_1d, psi), phi_1d)
    assert abs(lhs - rhs) < 1e-12


def test_fine_flow_s_zero_identity(setup_1d, phi_1d):
    u = ev.evolve_fine(setup_1d, phi_1d, 0.0)
    assert setup_1d.box_norm(u - phi_1d) < 1e-12


def test_hom_flow_s_zero_identity(setup_1d, phi_1d):
    u = ev.evolve_homogenized(setup_1d, phi_1d, 0.0)
    assert setup_1d.box_norm(u - phi_1d) < 1e-12


def test_semigroup_property(setup_1d, phi_1d):
    s1, s2 = 0.07, 0.12
    a = ev.evolve_fine(setup_1d, phi_1d, s1 + s2)
    b = ev.evolve_fine(setup_1d, ev.evolve_fine(setup_1d, phi_1d, s1), s2)
    assert setup_1d.box_norm(a - b) < 1e-10
    a0 = ev.evolve_homogenized(setup_1d, phi_1d, s1 + s2)
    b0 = ev.evolve_homogenized(
        setup_1d, ev.evolve_homogenized(setup_1d, phi_1d, s1), s2)
    assert setup_1d.box_norm(a0 - b0) < 1e-10


def test_constant_coefficients_single_mode_decay():
    setup = make_setup(preset="constant_2d", n_modes=5, eps=0.5, n_cells=4,
                       lam=2.0)
    g = setup.box_shape[0]
    x = np.arange(g) / g
    xx, yy = np.meshgrid(x, x, indexing="ij")
    mode = np.exp(2j * np.pi * (xx + 2 * yy)).reshape(-1, 1)
    s = 0.4
    u = ev.evolve_fine(setup, mode, s)
    # physical frequency xi, scaled zeta = eps * xi; fine flow decay is
    # exp(-(b(zeta)* g0 b(zeta) + eps^2 lam) s / eps^2)
    lat = setup.cell.problem.lattice
    zeta = np.array([1.0, 2.0]) @ (lat.dual_basis / setup.n_cells)
    g0 = np.array([[1.4, 0.2], [0.2, 1.1]])
    rate = (zeta @ g0 @ zeta + setup.eps ** 2 * 2.0) / setup.eps ** 2
    expected = np.exp(-rate * s) * mode
    assert setup.box_norm(u - expected) < 1e-10


def test_hom_flow_harmonic_mean_mode():
    setup = make_setup(preset="osc1d", n_modes=8, eps=0.25, n_cells=16,
                       lam=1.0)
    g = setup.box_shape[0]
    x = np.arange(g) / g
    mode = np.exp(2j * np.pi * 3 * x)[:, None]   # physical frequency per box
    s = 0.3
    u0 = ev.evolve_homogenized(setup, mode, s)
    # scaled frequency of box index m: zeta = 2 pi m / n_cells
    zeta = 2 * np.pi * 3 / setup.n_cells
    rate = (np.sqrt(3.0) * zeta ** 2 + setup.eps ** 2 * 1.0) / setup.eps ** 2
    expected = np.exp(-rate * s) * mode
    assert setup.box_norm(u0 - expected) < 1e-9


def test_scaling_identity_per_fiber(setup_1d):
    # fine flow of a single-fiber excitation equals the fiber exponential
    idx = 3
    rng = np.random.default_rng(4)
    coeffs = np.zeros((setup_1d.n_fibers, setup_1d.trunc.size, 1),
                      dtype=complex)
    coeffs[idx] = rng.standard_normal((setup_1d.trunc.size, 1))
    phi = setup_1d.recompose(coeffs)
    s = 0.21
    u = ev.evolve_fine(setup_1d, phi, s)
    direct = setup_1d.flow(idx).apply(
        s / setup_1d.eps ** 2, coeffs[idx].reshape(-1))
    out = np.zeros_like(coeffs)
    out[idx] = direct.reshape(-1, 1)
    expected = setup_1d.recompose(out)
    assert setup_1d.box_norm(u - expected) < 1e-11


def test_fine_flow_vs_crank_nicolson_oracle():
    setup = make_setup(preset="osc1d", n_modes=8, eps=0.25, n_cells=8)
    g_box = setup.box_shape[0]
    rng = np.random.default_rng(1)
    phi = setup.random_band_limited(rng, band=g_box // 6)
    s = 0.3

    # collocation assembly of the scaled generator on the box grid
    g_cell = setup.cell_field_on_box(setup.cell.problem.g)[:, 0, 0]
    lat = setup.cell.problem.lattice
    freqs = 2 * np.pi * np.fft.fftfreq(g_box, 1.0 / g_box) / setup.n_cells

    def apply_op(u_cols):
        # B(eps) u = D g D u + eps^2 lam u, columns independently
        uhat = np.fft.fft(u_cols, axis=0)
        du = np.fft.ifft(freqs[:, None] * uhat, axis=0)
        gdu = g_cell[:, None] * du
        out = np.fft.ifft(freqs[:, None] * np.fft.fft(gdu, axis=0), axis=0)
        return out + setup.eps ** 2 * 1.0 * u_cols

    ref = oracles.crank_nicolson_reference(
        apply_op, g_box, phi[:, 0], s / setup.eps ** 2, n_steps=3000)
    u = ev.evolve_fine(setup, phi, s)
    assert setup.box_norm(u - ref[:, None]) < 1e-5


def test_contraction_envelope(setup_1d, phi_1d):
    s = 0.8
    u = ev.evolve_fine(setup_1d, phi_1d, s)
    cc = setup_1d.constants.cstar_check
    bound = np.exp(-cc * s) * setup_1d.box_norm(phi_1d)
    assert setup_1d.box_norm(u) <= bound * (1 + 1e-9)


def test_corrector_zero_for_divergence_free():
    setup = make_setup(preset="divergence_free_2d", n_modes=5, eps=0.5,
                       n_cells=4)
    phi = setup.random_band_limited(np.random.default_rng(2))
    k = ev.corrector_apply(setup, phi, 0.5)
    assert setup.box_norm(k) < 1e-10


def test_corrector_regime_violation():
    setup = make_setup()
    phi = setup.random_band_limited(np.random.default_rng(3))
    with pytest.raises(RegimeViolation):
        ev.corrector_apply(setup, phi, 0.01, variant="without_smoothing")


def test_corrected_beats_principal(setup_1d, phi_1d):
    errs = ev.solution_error(setup_1d, phi_1d, 0.5)
    assert errs["corrected"] < errs["principal"]


def test_corrector_matches_fiber_operator_single_mode(setup_1d):
    # single-fiber excitation: the corrector field equals the fiber-level
    # corrector matrix applied to the fiber coefficients (smoothing acts as
    # the averaging projector on interior fibers)
    idx = 2
    rng = np.random.default_rng(9)
    coeffs = np.zeros((setup_1d.n_fibers, setup_1d.trunc.size, 1),
                      dtype=complex)
    coeffs[idx] = rng.standard_normal((setup_1d.trunc.size, 1)) \
        + 1j * rng.standard_normal((setup_1d.trunc.size, 1))
    phi = setup_1d.recompose(coeffs)
    s = 0.4
    field = ev.corrector_apply(setup_1d, phi, s)
    k_vec = setup_1d.fiber_k[idx]
    K = fb.fiber_corrector(setup_1d.cell, setup_1d.ng, setup_1d.trunc,
                           k_vec, setup_1d.eps, s / setup_1d.eps ** 2)
    out = np.zeros_like(coeffs)
    out[idx] = (K @ coeffs[idx].reshape(-1)).reshape(-1, 1) / setup_1d.eps
    expected = setup_1d.recompose(out)
    assert setup_1d.box_norm(field - expected) < 1e-8


def test_duhamel_zero_source_reduces(setup_1d, phi_1d):
    rep = ev.duhamel_solve(setup_1d, phi_1d, None, 0.5)
    u = ev.evolve_fine(setup_1d, phi_1d, 0.5)
    assert setup_1d.box_norm(rep["u_eps"] - u) < 1e-12
    u0 = ev.evolve_homogenized(setup_1d, phi_1d, 0.5)
    assert setup_1d.box_norm(rep["u0"] - u0) < 1e-12


def test_duhamel_constant_source_closed_form():
    # constant coefficients, constant-in-time source: per mode
    # u(s) = B^{-1} F + exp(-B s)(phi - B^{-1} F)
    setup = make_setup(preset="constant_2d", n_modes=5, eps=0.5, n_cells=4,
                       lam=2.0)
    rng = np.random.default_rng(5)
    phi = setup.random_band_limited(rng, band=1)
    f_field = setup.random_band_limited(rng, band=1)
    s = 0.6
    rep = ev.duhamel_solve(setup, phi, lambda t: f_field, s, p_norm=np.inf,
                           n_steps=256)
    coeff_phi = setup.decompose(phi)
    coeff_f = setup.decompose(f_field)
    out = np.zeros_like(coeff_phi)
    for idx in range(setup.n_fibers):
        mat = setup.fiber(idx).matrix / setup.eps ** 2
        w, v = np.linalg.eigh(mat)
        fvec = v.conj().T @ coeff_f[idx].reshape(-1)
        pvec = v.conj().T @ coeff_phi[idx].reshape(-1)
        stat = fvec / w
        sol = stat + np.exp(-w * s) * (pvec - stat)
        out[idx] = (v @ sol).reshape(-1, 1)
    expected = setup.recompose(out)
    # midpoint at 2*n_steps: deviation bounded by the step-halving drift
    dev = setup.box_norm(rep["u_eps"] - expected)
    assert dev < 10.0 * rep["quad_drift"] + 1e-9


def test_duhamel_source_corrector_second_order():
    # every Duhamel node carries the full corrector of the free term, so the
    # corrected driven error is O(eps^2) and far below the principal one
    errs = {}
    for eps in (0.25, 0.125):
        setup = make_setup(preset="osc1d_full", n_modes=8, eps=eps,
                           n_cells=int(round(4.0 / eps)))
        rng = np.random.default_rng(0)
        phi = setup.random_band_limited(rng)
        f_field = setup.random_band_limited(rng, band=2)
        rep = ev.duhamel_solve(setup, phi, lambda t: f_field, 0.5,
                               n_steps=32)
        assert rep["err_corrected"] < 0.2 * rep["err_principal"]
        errs[eps] = rep["err_corrected"]
    assert errs[0.125] / errs[0.25] < 0.35


def test_duhamel_coarse_pass_only_fine_flow(setup_1d, phi_1d, monkeypatch):
    # the coarse pass feeds only the step-halving drift, so the effective
    # flow's weights are evaluated at the 2n fine nodes and once for the
    # free term, each shared by the homogenized flow and the corrector
    calls = []
    flow = setup_1d.effective_flow
    real = flow.decay

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(flow, "decay", counted)
    f_field = setup_1d.random_band_limited(np.random.default_rng(3))
    n = 4
    ev.duhamel_solve(setup_1d, phi_1d, lambda t: f_field, 0.5, n_steps=n,
                     quad_tol=1.0)
    assert len(calls) == 2 * n + 1


def test_duhamel_tiles_cell_fields_once_per_setup(monkeypatch):
    # f != I: the tiled f, Lambda_G and LambdaTilde_G are built once per
    # setup, however many quadrature nodes the solve visits
    _, prob, tr = next(p for p in oracles.block_stack_problems()
                       if p[0] == "weighted_f_1d")
    assert not prob.f_is_identity
    calls = []
    real = ev.EvolutionSetup.cell_field_on_box

    def counted(self, field):
        calls.append(1)
        return real(self, field)

    monkeypatch.setattr(ev.EvolutionSetup, "cell_field_on_box", counted)
    consts = fb.estimate_constants(prob)
    sol = cl.solve_cell_problems(prob, tr)
    ng = cl.ng_coefficients(prob, sol)
    counts = []
    for n_steps in (2, 4):
        setup = ev.EvolutionSetup(sol, ng, consts, 0.25, 8, tr)
        rng = np.random.default_rng(4)
        phi = setup.random_band_limited(rng)
        f_field = setup.random_band_limited(rng, band=2)
        calls.clear()
        ev.duhamel_solve(setup, phi, lambda t: f_field, 0.5,
                         n_steps=n_steps, quad_tol=1.0)
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 3


def test_duhamel_underresolved_raises(setup_1d, phi_1d):
    rng = np.random.default_rng(11)
    f_field = setup_1d.random_band_limited(rng)

    def jumpy(t):
        # violently oscillating source defeats a 2-node midpoint rule
        return np.cos(300.0 * t) * f_field

    with pytest.raises(QuadratureUnderResolved):
        ev.duhamel_solve(setup_1d, phi_1d, jumpy, 0.5, n_steps=2,
                         quad_tol=1e-6)


def test_theta_weights():
    assert ev.theta1(0.1, 1.5) == pytest.approx(0.1 ** (2 - 2 / 1.5))
    assert ev.theta1(0.1, 2.0) == pytest.approx(
        0.1 * np.sqrt(1 + abs(np.log(0.1))))
    assert ev.theta1(0.1, 5.0) == pytest.approx(0.1)
    assert ev.theta2(0.1, 3.0) == 1.0
    assert ev.theta2(0.1, np.inf) == pytest.approx(1 + abs(np.log(0.1)))


def test_convergence_sweep_constant_coefficients_floor():
    # fiber equals effective exactly; only the complement block survives and
    # is exponentially negligible at this time horizon
    prob = presets.constant_2d(n_modes=4)
    tr = Truncation(4, 2)
    rows = ev.convergence_sweep(prob, tr, [0.5, 0.25, 0.125], 1.2,
                                mode="principal", box_size=2.0)
    assert all(r["err_exact"] < 1e-12 for r in rows)
    from parahom.cli import fit_rate
    fit = fit_rate([(r["eps"], r["err_exact"]) for r in rows])
    assert fit.exact_agreement


def test_convergence_sweep_insufficient_points():
    prob = presets.constant_2d(n_modes=4)
    tr = Truncation(4, 2)
    with pytest.raises(Exception):
        ev.convergence_sweep(prob, tr, [0.5, 0.25], 0.4)


def test_convergence_sweep_keeps_no_fiber_cache(monkeypatch):
    # the sweep assembles each fiber where it is used and needs only the
    # fiber quasimomenta: without probes it builds no evolution setup, so
    # neither its box index maps nor its fiber cache
    def refuse(setup):
        raise AssertionError("convergence_sweep built an EvolutionSetup")

    monkeypatch.setattr(ev.EvolutionSetup, "__post_init__", refuse)
    prob = presets.osc1d_full(n_modes=6)
    tr = Truncation(6, 1)
    rows = ev.convergence_sweep(prob, tr, [0.5, 0.25, 0.125], 0.5,
                                box_size=2.0, n_probes=0)
    assert len(rows) == 3
    assert all(r["err_principal"] > r["err_corrected"] > 0 for r in rows)


def test_box_effective_flow_enforces_floor():
    setup = make_setup(n_cells=4)
    phi = setup.random_band_limited(np.random.default_rng(1))
    ev.evolve_homogenized(setup, phi, 0.5)
    inflated = dataclasses.replace(setup.constants, cstar_check=1e3)
    bad = ev.EvolutionSetup(setup.cell, setup.ng, inflated, setup.eps,
                            setup.n_cells, setup.trunc)
    with pytest.raises(NonPositiveEffective):
        ev.evolve_homogenized(bad, phi, 0.5)


def test_fine_flow_enforces_fiber_floor():
    # the stacked fiber spectra are checked before the fine flow is applied
    setup = make_setup(n_cells=4)
    phi = setup.random_band_limited(np.random.default_rng(1))
    ev.evolve_fine(setup, phi, 0.5)
    floor = min(np.linalg.eigvalsh(setup.fiber(idx).matrix).min()
                / (setup.fiber_k[idx] @ setup.fiber_k[idx] + setup.eps ** 2)
                for idx in range(setup.n_fibers))
    inflated = dataclasses.replace(setup.constants, cstar_check=2.0 * floor)
    bad = ev.EvolutionSetup(setup.cell, setup.ng, inflated, setup.eps,
                            setup.n_cells, setup.trunc)
    with pytest.raises(PositivityViolation):
        ev.evolve_fine(bad, phi, 0.5)


def test_fine_flow_decomposes_through_partial_flow(monkeypatch):
    # one full partial_flow per box fiber, which also holds the floor
    setup = make_setup(n_cells=4)
    calls, original = [], fb.partial_flow

    def counting(fiber, s):
        calls.append(s)
        return original(fiber, s)

    monkeypatch.setattr(fb, "partial_flow", counting)
    setup.fine_flow()
    assert calls == [0.0] * setup.n_fibers


@pytest.mark.parametrize("preset,n_modes,n_cells", [("osc1d_full", 6, 8),
                                                    ("divergence_free_2d", 3, 4)])
def test_stacked_fine_flow_matches_per_fiber_flows(preset, n_modes, n_cells):
    setup = make_setup(preset=preset, n_modes=n_modes, n_cells=n_cells)
    phi = setup.random_band_limited(np.random.default_rng(2))
    s = 0.3
    coeffs = setup.decompose(phi)
    out = np.empty_like(coeffs)
    for idx in range(setup.n_fibers):
        flow = linalg.HermitianFlow(setup.fiber(idx).matrix)
        out[idx] = flow.apply(s / setup.eps ** 2,
                              coeffs[idx].reshape(-1)).reshape(out[idx].shape)
    ref = setup.recompose(out)
    got = ev.evolve_fine(setup, phi, s)
    assert setup.box_norm(got - ref) <= 1e-12 * setup.box_norm(ref)


def test_convergence_sweep_multiplications_independent_of_fibers(monkeypatch):
    # every multiplication matrix and Galerkin sandwich is built once per
    # sweep and the corrector's coefficient columns once per eps, not per
    # fiber
    calls = []

    def counting(original):
        def wrapper(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)
        return wrapper

    for name in ("mult_matrix", "sandwich_matrices"):
        monkeypatch.setattr(fd, name, counting(getattr(fd, name)))
    for module in (cl, fb):
        monkeypatch.setattr(module, "coeff_vector",
                            counting(cl.coeff_vector))
    prob = presets.random_fiber_instance(3, d=2, n_modes=4)
    tr = Truncation(4, 2)
    counts = []
    for box in (2.0, 4.0):
        calls.clear()
        ev.convergence_sweep(prob, tr, [0.5, 0.25, 0.125], 0.5,
                             box_size=box)
        counts.append(len(calls))
    assert counts[0] == counts[1]


@pytest.mark.parametrize("preset,n_modes,n_cells", [("osc1d", 4, 5),
                                                    ("divergence_free_2d", 3, 3),
                                                    ("divergence_free_2d", 3, 4)])
def test_fiber_quasimomenta_match_setup(preset, n_modes, n_cells):
    setup = make_setup(preset=preset, n_modes=n_modes, n_cells=n_cells)
    got = ev.fiber_quasimomenta(setup.cell.problem.lattice, n_cells)
    assert np.array_equal(got, setup.fiber_k)


def test_convergence_sweep_decomposes_no_fiber_matrix(monkeypatch):
    # the fine side is one partial eigendecomposition per fiber and both
    # norms live on an (r + 2n)-dimensional range, so no numpy eigh or
    # eigvalsh sees a D x D matrix
    shapes = []
    for name in ("eigh", "eigvalsh"):
        def recording(a, *args, _original=getattr(np.linalg, name), **kw):
            shapes.append(np.shape(a))
            return _original(a, *args, **kw)

        monkeypatch.setattr(np.linalg, name, recording)
    prob = presets.osc1d_full(n_modes=6)
    tr = Truncation(6, 1)
    ev.convergence_sweep(prob, tr, [0.5, 0.25, 0.125], 0.5, box_size=2.0)
    assert shapes
    assert max(sh[-1] for sh in shapes) < tr.size * prob.n


_STACK = {name: (prob, tr) for name, prob, tr in oracles.block_stack_problems()}
PARITY_PROBLEMS = [
    ("osc1d_full", presets.osc1d_full(n_modes=16), Truncation(16, 1), 2.0),
    ("scalar_example_2d", *_STACK["scalar_example_2d"], 1.0),
    ("random_fiber_2d", *_STACK["random_fiber_2d"], 1.0),
    ("weighted_f_1d", *_STACK["weighted_f_1d"], 2.0)]


@pytest.mark.parametrize("name,prob,tr,box", PARITY_PROBLEMS,
                         ids=[c[0] for c in PARITY_PROBLEMS])
def test_certified_sweep_matches_exhaustive_route(name, prob, tr, box,
                                                  monkeypatch):
    # with the certificate switched off every fiber is decomposed; a
    # per-fiber loop over remainder_norms is the reference of both routes
    eps_list, s = [0.5, 0.25, 0.125], 0.5
    consts = fb.estimate_constants(prob)
    sol = cl.solve_cell_problems(prob, tr)
    ng = cl.ng_coefficients(prob, sol)
    pencil = fb.FiberPencil(prob, tr)
    kw = dict(box_size=box, constants=consts, cell_solution=sol, ng_coeffs=ng)
    for mode in ("both", "principal", "corrected"):
        certified = ev.convergence_sweep(prob, tr, eps_list, s, mode=mode, **kw)
        with monkeypatch.context() as mp:
            mp.setattr(fb, "spectrum_above", lambda matrix, mu: False)
            exhaustive = ev.convergence_sweep(prob, tr, eps_list, s,
                                              mode=mode, **kw)
            reference = []
            for row in certified:
                eps = row["eps"]
                norms = [fb.remainder_norms(
                    sol, ng, pencil.fiber(k, eps, consts), s / eps ** 2,
                    mode=mode)
                    for k in ev.fiber_quasimomenta(prob.lattice,
                                                   row["n_cells"])]
                reference.append(np.max(norms, axis=0))
        for got, ex, ref in zip(certified, exhaustive, reference):
            eps = got["eps"]
            b0 = np.linalg.norm(pencil.fiber(np.zeros(prob.d), eps).matrix, 2)
            tol = s / eps ** 2 * b0 * 2.0 ** -52
            for j, key in enumerate(("err_principal", "err_corrected")):
                assert abs(got[key] - ex[key]) <= tol, (mode, eps, key)
                assert abs(got[key] - ref[j]) <= tol, (mode, eps, key)
        # the certified route did leave fibers to the batch
        assert any(r["n_decomposed"] < r["n_fibers"] for r in certified)


def test_sweep_decomposes_only_uncertified_fibers(monkeypatch):
    # the sweep_2d benchmark configuration: 89 fibers over three eps; only
    # those the Cholesky cannot certify reach scipy's partial eigh
    from parahom import scalar_example as se
    import scipy.linalg
    prob, _ = se.build_scalar_problem(se.scalar_preset(d=2, n_modes=5,
                                                       seed=201))
    tr = Truncation(5, 2)
    calls = {"eigh": 0, "uncertified": 0}
    original_eigh, original_above = scipy.linalg.eigh, fb.spectrum_above

    def eigh(*args, **kwargs):
        calls["eigh"] += 1
        return original_eigh(*args, **kwargs)

    def above(matrix, mu):
        ok = original_above(matrix, mu)
        calls["uncertified"] += not ok
        return ok

    monkeypatch.setattr(scipy.linalg, "eigh", eigh)
    monkeypatch.setattr(fb, "spectrum_above", above)
    rows = ev.convergence_sweep(prob, tr, [0.5, 0.25, 0.125], 0.5,
                                box_size=1.0)
    assert sum(r["n_fibers"] for r in rows) == 89
    assert calls["eigh"] == calls["uncertified"] \
        == sum(r["n_decomposed"] for r in rows)
    assert calls["eigh"] < 89


def test_sweep_enforces_fiber_floor_above_the_cut():
    # a floor between the fiber and the effective spectra, above CUT/s at
    # the violating fiber: the cut is the floor, so the Cholesky fails there
    # and the decomposed spectrum trips the floor check
    prob = presets.osc1d_full(n_modes=6)
    tr = Truncation(6, 1)
    consts = fb.estimate_constants(prob)
    sol = cl.solve_cell_problems(prob, tr)
    pencil = fb.FiberPencil(prob, tr)
    eps, s, box = 0.5, 2.0, 2.0
    ks = ev.fiber_quasimomenta(prob.lattice, int(round(box / eps)))
    tau_sq = np.sum(ks ** 2, axis=1) + eps ** 2
    fiber_ratio = [np.linalg.eigvalsh(pencil.fiber(k, eps).matrix).min()
                   for k in ks] / tau_sq
    eff_ratio = [np.linalg.eigvalsh(linalg.herm(sol.B0_symbol(k, eps))).min()
                 for k in ks] / tau_sq
    c = 0.5 * (fiber_ratio.min() + eff_ratio.min())
    assert fiber_ratio.min() < c < eff_ratio.min()
    assert c * tau_sq[np.argmin(fiber_ratio)] > fb.CUT * eps ** 2 / s
    inflated = dataclasses.replace(consts, cstar_check=c)
    with pytest.raises(PositivityViolation):
        ev.convergence_sweep(prob, tr, [eps, eps / 2, eps / 4], s,
                             box_size=box, constants=inflated)


def test_sweep_argmax_fiber_attains_the_reported_sup():
    prob = presets.osc1d_full(n_modes=8)
    tr = Truncation(8, 1)
    consts = fb.estimate_constants(prob)
    sol = cl.solve_cell_problems(prob, tr)
    ng = cl.ng_coefficients(prob, sol)
    s = 0.5
    rows = ev.convergence_sweep(prob, tr, [0.25, 0.125, 0.0625], s,
                                box_size=2.0, constants=consts,
                                cell_solution=sol, ng_coeffs=ng)
    pencil = fb.FiberPencil(prob, tr)
    for row in rows:
        eps = row["eps"]
        for j, kind in enumerate(("principal", "corrected")):
            k = np.array(row[f"k_argmax_{kind}"])
            fib = pencil.fiber(k, eps, consts)
            got = fb.remainder_norms(sol, ng, fib, s / eps ** 2,
                                     fb.partial_flow(fib, 0.0))[j]
            tol = (4.0 * s / eps ** 2 * np.linalg.norm(fib.matrix, 2)
                   * 2.0 ** -52 + 1e-13 * got)
            assert abs(got - row[f"err_{kind}"]) <= tol, (eps, kind)


def test_sweep_with_every_fiber_certified():
    # at s = 20 no fiber keeps a pair, so each sup comes from the batch
    # alone; it must match the per-fiber norms relatively, tiny as they are
    prob = presets.osc1d_full(n_modes=8)
    tr = Truncation(8, 1)
    consts = fb.estimate_constants(prob)
    sol = cl.solve_cell_problems(prob, tr)
    ng = cl.ng_coefficients(prob, sol)
    pencil = fb.FiberPencil(prob, tr)
    s = 20.0
    rows = ev.convergence_sweep(prob, tr, [0.5, 0.25, 0.125], s, box_size=2.0,
                                constants=consts, cell_solution=sol,
                                ng_coeffs=ng)
    for row in rows:
        eps = row["eps"]
        assert row["n_decomposed"] == 0
        ref = np.max([fb.remainder_norms(
            sol, ng, pencil.fiber(k, eps, consts), s / eps ** 2)
            for k in ev.fiber_quasimomenta(prob.lattice, row["n_cells"])],
            axis=0)
        got = [row["err_principal"], row["err_corrected"]]
        assert np.all(ref > 0.0)
        assert np.allclose(got, ref, rtol=1e-12, atol=0.0), eps


def _setup_of(prob, tr, eps, n_cells):
    consts = fb.estimate_constants(prob)
    sol = cl.solve_cell_problems(prob, tr)
    return ev.EvolutionSetup(sol, cl.ng_coefficients(prob, sol), consts, eps,
                             n_cells, tr)


# (name, problem, truncation, eps, n_cells): d = 1 and 2, f != I, and an
# n = 2 system whose f0, B0 and N do not commute
EVOLUTION_PROBLEMS = [
    ("osc1d_full", presets.osc1d_full(n_modes=6), Truncation(6, 1), 0.25, 8),
    ("random_fiber_2d", presets.random_fiber_instance(7, d=2, n_modes=3),
     Truncation(3, 2), 0.5, 3),
    ("weighted_f_1d", *_STACK["weighted_f_1d"], 0.25, 8),
    ("weighted_system_1d", *_STACK["weighted_system_1d"], 0.25, 8)]


@pytest.fixture(scope="module", params=EVOLUTION_PROBLEMS,
                ids=[c[0] for c in EVOLUTION_PROBLEMS])
def box_case(request):
    _, prob, tr, eps, n_cells = request.param
    setup = _setup_of(prob, tr, eps, n_cells)
    rng = np.random.default_rng(6)
    phi = setup.random_band_limited(rng)
    f_field = setup.random_band_limited(rng, band=2)
    g_field = setup.random_band_limited(rng, band=3)
    return setup, phi, lambda t: np.cos(3.0 * t) * f_field + t * g_field


def test_correctors_match_grid_space_formulas(box_case):
    setup, phi, _ = box_case
    s = 0.5
    for variant, smooth in (("with_smoothing", True),
                            ("without_smoothing", False)):
        got = ev.corrector_apply(setup, phi, s, variant=variant)
        ref = oracles.grid_corrector(setup, phi, s, smooth)
        assert setup.box_norm(got - ref) <= 1e-12 * setup.box_norm(ref)
    if setup.n > 1:
        return                          # the commuted form is scalar only
    got = se.commuted_corrector_apply(setup, phi, s)
    ref = oracles.grid_commuted_corrector(setup, phi, s)
    assert setup.box_norm(got - ref) <= 1e-12 * setup.box_norm(ref)


@pytest.mark.parametrize("p_norm", [2.0, np.inf])
def test_duhamel_matches_per_node_reference(box_case, p_norm):
    setup, phi, source = box_case
    s, n_steps = 0.5, 4
    rep = ev.duhamel_solve(setup, phi, source, s, p_norm=p_norm,
                           n_steps=n_steps, quad_tol=1.0)
    ref = oracles.duhamel_per_node(setup, phi, source, s, p_norm, n_steps)
    for key in ("u_eps", "u0", "corrected"):
        dev = setup.box_norm(rep[key] - ref[key])
        assert dev <= 1e-12 * setup.box_norm(ref[key]), key
    assert abs(rep["quad_drift"] - ref["quad_drift"]) \
        <= 1e-12 * ref["quad_drift"]


@pytest.mark.parametrize("name", ["osc1d_full", "weighted_f_1d"])
def test_duhamel_transforms_once_per_node(name, monkeypatch):
    # a node costs only its forward transforms: at most 2 at a fine node (f
    # and the corrector's adjoint fields) and 1 at a coarse one, one more
    # each for f* f when f != I; the inverse transforms run once per pass
    _, prob, tr, eps, n_cells = next(c for c in EVOLUTION_PROBLEMS
                                     if c[0] == name)
    extra = 0 if prob.f_is_identity else 1
    forward, inverse = {}, {}
    for n in (4, 8):
        setup = _setup_of(prob, tr, eps, n_cells)
        rng = np.random.default_rng(4)
        phi = setup.random_band_limited(rng)
        f_field = setup.random_band_limited(rng, band=2)
        counts = {"fft": 0, "ifft": 0}
        for kind in counts:
            def counted(values, _real=getattr(setup, kind), _kind=kind):
                counts[_kind] += 1
                return _real(values)
            monkeypatch.setattr(setup, kind, counted)
        ev.duhamel_solve(setup, phi, lambda t: f_field, 0.5, n_steps=n,
                         quad_tol=1.0)
        forward[n], inverse[n] = counts["fft"], counts["ifft"]
    assert forward[8] - forward[4] <= (2 + extra) * 8 + (1 + extra) * 4
    assert inverse[8] == inverse[4]


@pytest.mark.parametrize("name", ["osc1d_full", "weighted_f_1d"])
def test_solution_error_transforms_phi_once(name, monkeypatch):
    # one spectral sum of the three flows: one forward FFT of phi, one more
    # of f* phi when f != I, and one batched FFT of the corrector's adjoint
    # fields; the inverse FFTs are the fine, homogenized and corrector ones
    _, prob, tr, eps, n_cells = next(c for c in EVOLUTION_PROBLEMS
                                     if c[0] == name)
    extra = 0 if prob.f_is_identity else 1
    setup = _setup_of(prob, tr, eps, n_cells)
    phi = setup.random_band_limited(np.random.default_rng(2))
    for corrected in (True, False):
        counts = {"fft": 0, "ifft": 0}
        for kind in counts:
            def counted(values, _real=getattr(ev.EvolutionSetup, kind),
                        _kind=kind):
                counts[_kind] += 1
                return _real(setup, values)
            monkeypatch.setattr(setup, kind, counted)
        ev.solution_error(setup, phi, 0.5, corrected=corrected)
        assert counts["fft"] == 1 + extra + corrected, corrected
        assert counts["ifft"] == 2 + corrected, corrected


def test_duhamel_fine_flow_holds_only_surviving_pairs(monkeypatch):
    # the evolve_2d benchmark configuration: after a driven solve the fine
    # flow holds, per fiber, owned arrays of the pairs below the cut at the
    # smallest node gap s/(4 n_steps), far less than the full eigenbases
    prob, _ = se.build_scalar_problem(se.scalar_preset(d=2, n_modes=5,
                                                       seed=201))
    tr = Truncation(5, 2)
    setup = _setup_of(prob, tr, 0.25, 8)
    rng = np.random.default_rng(201)
    phi = setup.random_band_limited(rng, band=3)
    f_field = setup.random_band_limited(rng, band=1)
    s, n_steps = 0.5, 32
    ev.duhamel_solve(setup, phi, lambda t: f_field, s, n_steps=n_steps,
                     quad_tol=5e-2)
    calls = []
    original = fb.partial_flow
    monkeypatch.setattr(fb, "partial_flow",
                        lambda *args: calls.append(1) or original(*args))
    flows = setup.fine_flow(s)
    assert not calls                    # the solve's flow, not a rebuild
    dim = tr.size * prob.n
    held = sum(flow.w.nbytes + flow.v.nbytes for flow in flows)
    assert held < setup.n_fibers * dim ** 2 * 16 / 2
    tau = s / (4 * n_steps) / setup.eps ** 2
    for idx, flow in enumerate(flows):
        assert flow.v.base is None and flow.v.shape == (dim, flow.w.size)
        assert np.all(flow.w <= fb.cut_value(setup.fiber(idx), tau))


def test_fine_flow_releases_the_pencil():
    # the evolve_2d benchmark configuration: once the driven solve has built
    # the fine flow, the setup holds no fiber pencil, and a later fiber read
    # rebuilds the same one
    prob, _ = se.build_scalar_problem(se.scalar_preset(d=2, n_modes=5,
                                                       seed=201))
    tr = Truncation(5, 2)
    setup = _setup_of(prob, tr, 0.25, 8)
    pencil = weakref.ref(setup.pencil)
    rng = np.random.default_rng(201)
    phi = setup.random_band_limited(rng, band=3)
    f_field = setup.random_band_limited(rng, band=1)
    ev.duhamel_solve(setup, phi, lambda t: f_field, 0.5, n_steps=32,
                     quad_tol=5e-2)
    gc.collect()
    assert pencil() is None
    fresh = fb.FiberPencil(prob, tr).fiber(setup.fiber_k[0], setup.eps,
                                           setup.constants)
    assert np.array_equal(setup.fiber(0).matrix, fresh.matrix)
