import numpy as np
import pytest

from parahom import cell as cl
from parahom import evolution as ev
from parahom import fibers as fb
from parahom import scalar_example as se
from parahom.errors import DataError, MeanNotZero
from parahom.fields import Truncation
from parahom.lattice import cubic_lattice


@pytest.fixture(scope="module")
def instance():
    inp = se.scalar_preset(d=2, n_modes=8, seed=3)
    problem, extras = se.build_scalar_problem(inp)
    tr = Truncation(8, 2)
    eff = se.scalar_effective(inp, problem, tr)
    sol = cl.solve_cell_problems(problem, tr)
    ng = cl.ng_coefficients(problem, sol)
    return inp, problem, extras, tr, eff, sol, ng


def test_poisson_closed_form_1d():
    lat = cubic_lattice(1)
    grid = (64,)
    x = np.arange(64) / 64
    v = np.cos(2 * np.pi * x)
    g = np.ones((*grid, 1, 1))
    inp = se.ScalarInput(lat, g, np.zeros((*grid, 1)), v, np.zeros(grid),
                         lam=1.0)
    _, extras = se.build_scalar_problem(inp)
    phi_ref = -np.cos(2 * np.pi * x) / (4 * np.pi ** 2)
    zeta_ref = -np.sin(2 * np.pi * x) / (2 * np.pi)
    assert np.abs(extras["Phi"] - phi_ref).max() < 1e-13
    assert np.abs(extras["zeta"][..., 0] - zeta_ref).max() < 1e-13
    assert extras["divergence_defect"] < 1e-12


def test_pure_metric_case():
    lat = cubic_lattice(1)
    grid = (32,)
    x = np.arange(32) / 32
    g = (2.0 + np.cos(2 * np.pi * x))[:, None, None]
    inp = se.ScalarInput(lat, g, np.zeros((*grid, 1)), np.zeros(grid),
                         np.zeros(grid), lam=1.0)
    problem, _ = se.build_scalar_problem(inp)
    assert problem.a is None or np.abs(problem.a).max() < 1e-14
    assert np.abs(problem.Qdensity).max() < 1e-14
    eff = se.scalar_effective(inp, problem, Truncation(12, 1))
    assert abs(eff.g0[0, 0] - np.sqrt(3)) < 1e-10
    assert np.abs(eff.LambdaTilde1).max() < 1e-13
    assert np.abs(eff.LambdaTilde2).max() < 1e-13
    assert eff.W == pytest.approx(0.0, abs=1e-13)
    assert np.abs(eff.A0).max() < 1e-12
    assert eff.V0 == pytest.approx(0.0, abs=1e-12)


def test_trivial_input_identity():
    lat = cubic_lattice(2)
    grid = (16, 16)
    g = np.zeros((*grid, 2, 2))
    g[..., 0, 0] = 1.0
    g[..., 1, 1] = 1.0
    inp = se.ScalarInput(lat, g, np.zeros((*grid, 2)), np.zeros(grid),
                         np.ones(grid) * 0.7, lam=1.0)
    problem, _ = se.build_scalar_problem(inp)
    eff = se.scalar_effective(inp, problem, Truncation(4, 2))
    assert np.abs(eff.Psi).max() < 1e-13
    assert np.abs(eff.g0 - np.eye(2)).max() < 1e-13
    assert eff.V0 == pytest.approx(0.7)


def test_mean_not_zero_raises():
    lat = cubic_lattice(1)
    grid = (16,)
    g = np.ones((*grid, 1, 1))
    inp = se.ScalarInput(lat, g, np.zeros((*grid, 1)),
                         np.ones(grid), np.zeros(grid))
    with pytest.raises(MeanNotZero):
        se.build_scalar_problem(inp)


def test_asymmetric_metric_raises_data_error():
    # an asymmetric g is malformed data, not a nonzero mean of v
    lat = cubic_lattice(2)
    grid = (16, 16)
    g = np.zeros((*grid, 2, 2))
    g[..., 0, 0] = g[..., 1, 1] = 1.0
    g[..., 0, 1] = 0.3
    inp = se.ScalarInput(lat, g, np.zeros((*grid, 2)), np.zeros(grid),
                         np.zeros(grid))
    with pytest.raises(DataError, match="symmetric"):
        se.build_scalar_problem(inp)


def test_lambda_is_i_psi(instance):
    _, _, _, _, eff, sol, _ = instance
    assert np.abs(sol.Lambda - 1j * eff.Psi[..., None, :]).max() < 1e-10


def test_lambda_tilde_split(instance):
    _, _, _, _, eff, sol, _ = instance
    lt = (eff.LambdaTilde1 + 1j * eff.LambdaTilde2)[..., None, None]
    assert np.abs(sol.LambdaTilde - lt).max() < 1e-10


def test_real_valued_fields(instance):
    _, _, _, _, eff, sol, _ = instance
    assert np.abs(np.imag(eff.g_tilde)).max() < 1e-12
    assert np.abs(np.imag(sol.g0)).max() < 1e-12
    assert np.abs(np.imag(eff.LambdaTilde1)).max() < 1e-12
    assert np.abs(np.imag(eff.LambdaTilde2)).max() < 1e-12


def test_effective_data_cross_module(instance):
    _, _, _, _, eff, sol, _ = instance
    assert np.abs(sol.g0 - eff.g0).max() < 1e-8
    assert np.abs(sol.V[:, 0] - (eff.V1 + 1j * eff.V2)).max() < 1e-8
    assert abs(sol.W[0, 0] - eff.W) < 1e-8


def test_effective_operator_identities(instance):
    inp, _, _, _, eff, sol, _ = instance
    # A0 = (g0)^{-1}(V1 + mean(g A)); V0 consistent with the zero-order data
    eta = np.einsum("...ij,...j->...i", inp.g, inp.A)
    gA_bar = np.real(np.mean(eta.reshape(-1, inp.d), axis=0))
    assert np.abs(eff.g0 @ eff.A0 - (eff.V1 + gA_bar)).max() < 1e-10
    qbar = float(np.real(sol.Qbar[0, 0]))
    v0_ref = qbar - eff.A0 @ eff.g0 @ eff.A0 - eff.W
    assert eff.V0 == pytest.approx(v0_ref, abs=1e-10)


def test_N_coefficients_match_generic(instance):
    inp, _, _, _, eff, _, ng = instance
    coeffs = se.scalar_N_coefficients(inp, eff)
    rng = np.random.default_rng(0)
    for _ in range(10):
        xi = rng.standard_normal(2) * rng.uniform(0.2, 2.0)
        gen = ng.symbol(xi, 1.0)[0, 0]
        assert abs(gen - se.scalar_N_symbol(coeffs, xi)) < 1e-8


def test_N12_symmetric(instance):
    inp, _, _, _, eff, _, _ = instance
    coeffs = se.scalar_N_coefficients(inp, eff)
    assert np.abs(coeffs["N12"] - coeffs["N12"].T).max() < 1e-14


def test_N_vanishes_without_v_and_A():
    lat = cubic_lattice(1)
    grid = (32,)
    x = np.arange(32) / 32
    g = (2.0 + 0.8 * np.cos(2 * np.pi * x))[:, None, None]
    inp = se.ScalarInput(lat, g, np.zeros((*grid, 1)), np.zeros(grid),
                         (0.3 + 0.2 * np.cos(2 * np.pi * x)), lam=1.0)
    problem, _ = se.build_scalar_problem(inp)
    eff = se.scalar_effective(inp, problem, Truncation(8, 1))
    coeffs = se.scalar_N_coefficients(inp, eff)
    assert np.abs(coeffs["N12"]).max() < 1e-13
    assert np.abs(coeffs["N21"]).max() < 1e-13
    assert abs(coeffs["N22"]) < 1e-13


def test_commuted_corrector_matches_generic(instance):
    inp, problem, _, tr, eff, sol, ng = instance
    consts = fb.estimate_constants(problem)
    eps = 0.5
    setup = ev.EvolutionSetup(sol, ng, consts, eps, n_cells=4, trunc=tr)
    phi = setup.random_band_limited(np.random.default_rng(1))
    s = 0.5                                  # s >= eps^2 regime
    generic = ev.corrector_apply(setup, phi, s, variant="without_smoothing")
    commuted = se.commuted_corrector_apply(setup, phi, s)
    assert setup.box_norm(generic - commuted) < 1e-9
