import numpy as np
import pytest

from parahom import cell as cl
from parahom import evolution as ev
from parahom import fibers as fb
from parahom import fields as fd
from parahom import presets
from parahom.errors import QuadratureUnderResolved, RegimeViolation
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
    # the coarse pass feeds only the step-halving drift, so the homogenized
    # flow runs at the 2n fine nodes and once for the free term
    calls = []
    real = ev.evolve_homogenized

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(ev, "evolve_homogenized", counted)
    f_field = setup_1d.random_band_limited(np.random.default_rng(3))
    n = 4
    ev.duhamel_solve(setup_1d, phi_1d, lambda t: f_field, 0.5, n_steps=n,
                     quad_tol=1.0)
    assert len(calls) == 2 * n + 1


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


def test_convergence_sweep_threads_match_serial():
    prob = presets.osc1d_full(n_modes=6)
    tr = Truncation(6, 1)
    args = (prob, tr, [0.5, 0.25, 0.125], 0.5)
    serial = ev.convergence_sweep(*args, box_size=2.0, threads=1)
    pooled = ev.convergence_sweep(*args, box_size=2.0, threads=2)
    assert pooled == serial
