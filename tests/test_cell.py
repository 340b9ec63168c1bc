import numpy as np
import pytest
import scipy.linalg

from parahom import abstract as ab
from parahom import cell as cl
from parahom import fields as fd
from parahom import linalg
from parahom import presets
from parahom.errors import DataError, IllConditioned
from parahom.fields import Truncation
from parahom.lattice import cubic_lattice

import oracles


def test_constant_g_trivial():
    lat = cubic_lattice(2)
    g0 = np.array([[1.5, 0.3], [0.3, 1.2]])
    g = fd.constant_field((12, 12), g0)
    b = np.zeros((2, 2, 1))
    b[0, 0, 0] = 1.0
    b[1, 1, 0] = 1.0
    prob = cl.PeriodicProblem(lat, b, g, lam=1.0)
    sol = cl.solve_cell_problems(prob, Truncation(4, 2))
    assert np.abs(sol.Lambda).max() < 1e-12
    assert np.abs(sol.g0 - g0).max() < 1e-12
    assert np.abs(sol.g_tilde - g0).max() < 1e-12


def _shape_mismatches():
    # each problem has one array whose shape does not fit the 2D lattice or
    # the other arrays
    lat = cubic_lattice(2)
    grid = (12, 12)
    g = fd.constant_field(grid, np.eye(2))
    b = np.eye(2)[:, :, None]
    one = fd.constant_field(grid, [[1.0]])
    return {
        "b_of_3d": dict(b_symbols=np.eye(3)[:, :, None]),
        "b_of_1d": dict(b_symbols=np.eye(1)[:, :, None],
                        g=fd.constant_field(grid, [[1.0]])),
        "g_on_3d_grid": dict(g=fd.constant_field((12,) * 3, np.eye(2))),
        "g_blocks": dict(g=fd.constant_field(grid, np.eye(3))),
        "a_count": dict(a=np.stack([one] * 3)),
        "a_grid": dict(a=np.stack([fd.constant_field((8, 8), [[1.0]])] * 2)),
        "Qdensity_on_1d_grid": dict(Qdensity=fd.constant_field((12,),
                                                               [[1.0]])),
        "f_blocks": dict(f=fd.constant_field(grid, np.eye(2))),
    }, lat, b, g


@pytest.mark.parametrize("case", sorted(_shape_mismatches()[0]))
def test_validate_refuses_shapes_that_disagree_with_the_lattice(case):
    cases, lat, b, g = _shape_mismatches()
    kwargs = {"b_symbols": b, "g": g, **cases[case]}
    prob = cl.PeriodicProblem(lat, kwargs.pop("b_symbols"), kwargs.pop("g"),
                              **kwargs)
    with pytest.raises(DataError):
        prob.validate()


def test_harmonic_mean_1d():
    prob = presets.osc1d(n_modes=32)
    sol = cl.solve_cell_problems(prob, Truncation(32, 1))
    ref = oracles.harmonic_mean_quad(lambda x: 2.0 + np.cos(2 * np.pi * x))
    assert abs(sol.g0[0, 0] - ref) < 1e-10
    assert abs(sol.g0[0, 0] - np.sqrt(3)) < 1e-10
    # m = n forces the harmonic-mean identity
    g_low, _ = cl.voigt_reuss(prob)
    assert abs(sol.g0[0, 0] - g_low[0, 0]) < 1e-10


def test_constant_a_gives_zero_tilde():
    lat = cubic_lattice(1)
    grid = (32,)
    g = fd.harmonic_field(grid, 1, 1, [((1,), [[0.8]], 0.0)], const=[[2.0]])
    a = np.stack([fd.constant_field(grid, [[0.3 + 0.1j]])])
    prob = cl.PeriodicProblem(lat, np.array([[[1.0]]]), g, a=a, lam=1.0)
    sol = cl.solve_cell_problems(prob, Truncation(8, 1))
    assert np.abs(sol.LambdaTilde).max() < 1e-13
    assert np.abs(sol.V).max() < 1e-13
    assert np.abs(sol.W).max() < 1e-13


def test_zero_means():
    prob = presets.random_fiber_instance(5, d=1, n_modes=12)
    sol = cl.solve_cell_problems(prob, Truncation(12, 1))
    assert np.abs(fd.mean_field(sol.Lambda)).max() < 1e-12
    assert np.abs(fd.mean_field(sol.LambdaTilde)).max() < 1e-12
    gf = prob.G_field()
    assert np.abs(fd.mean_field(gf @ sol.LambdaG)).max() < 1e-12
    assert np.abs(fd.mean_field(gf @ sol.LambdaTildeG)).max() < 1e-12


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_voigt_reuss_bracketing(seed):
    prob = presets.random_scalar_2d(seed, n_modes=8)
    sol = cl.solve_cell_problems(prob, Truncation(8, 2))
    g_low, g_up = cl.voigt_reuss(prob)
    assert np.linalg.eigvalsh(sol.g0 - g_low).min() >= -1e-10
    assert np.linalg.eigvalsh(g_up - sol.g0).min() >= -1e-10


def test_divergence_free_columns_give_mean_g():
    prob = presets.divergence_free_2d(n_modes=8)
    sol = cl.solve_cell_problems(prob, Truncation(8, 2))
    assert np.abs(sol.Lambda).max() < 1e-10
    assert np.abs(sol.LambdaTilde).max() < 1e-12
    g_up = cl.voigt_reuss(prob)[1]
    assert np.abs(sol.g0 - g_up).max() < 1e-8


def test_W_hermitian_psd():
    prob = presets.random_fiber_instance(9, d=1, n_modes=12)
    sol = cl.solve_cell_problems(prob, Truncation(12, 1))
    assert np.abs(sol.W - sol.W.conj().T).max() < 1e-12
    assert np.linalg.eigvalsh(sol.W).min() >= -1e-12


def test_truncation_cauchy_sequence():
    vals = {}
    for n_modes in (8, 16, 32):
        prob = presets.osc1d_full(n_modes=n_modes)
        sol = cl.solve_cell_problems(prob, Truncation(n_modes, 1))
        vals[n_modes] = sol.g0[0, 0]
    assert abs(vals[16] - vals[32]) < 1e-6
    assert abs(vals[16] - vals[32]) <= abs(vals[8] - vals[16]) + 1e-12


def test_grid_too_coarse_raises():
    lat = cubic_lattice(1)
    g = fd.constant_field((8,), [[1.0]])
    prob = cl.PeriodicProblem(lat, np.array([[[1.0]]]), g, lam=1.0)
    with pytest.raises(DataError):
        prob.validate(Truncation(16, 1))


def test_effective_symbol_structure():
    prob = presets.random_fiber_instance(11, d=1, n_modes=12)
    sol = cl.solve_cell_problems(prob, Truncation(12, 1))
    q = np.array([0.37])
    eps = 0.21
    sym = sol.L_hat_symbol(q, eps)
    bq = prob.b_of(q)
    manual = (bq.conj().T @ sol.g0 @ bq
              - eps * (bq.conj().T @ sol.V + sol.V.conj().T @ bq)
              + eps * q[0] * sol.abar_sum[0]
              + eps ** 2 * (sol.Qbar - sol.W + prob.lam * np.eye(1)))
    assert np.abs(sym - manual).max() < 1e-13


def test_ng_symbol_hermitian_and_cubic_bound():
    prob = presets.random_fiber_instance(13, d=2, n_modes=6)
    tr = Truncation(6, 2)
    sol = cl.solve_cell_problems(prob, tr)
    ng = cl.ng_coefficients(prob, sol)
    rng = np.random.default_rng(0)
    ratios = []
    for _ in range(20):
        k = rng.standard_normal(2)
        eps = rng.uniform(0.05, 1.0)
        val = ng.symbol(k, eps)
        assert np.abs(val - val.conj().T).max() < 1e-12
        ratios.append(np.linalg.norm(val, 2)
                      / (k @ k + eps ** 2) ** 1.5)
    assert max(ratios) < 50 * min(r for r in ratios if r > 0) + 1e3


def test_ng_zero_when_correctors_vanish():
    prob = presets.divergence_free_2d(n_modes=8)
    tr = Truncation(8, 2)
    sol = cl.solve_cell_problems(prob, tr)
    ng = cl.ng_coefficients(prob, sol)
    for k in (np.array([0.3, -0.2]), np.array([1.0, 0.5])):
        assert np.abs(ng.symbol(k, 0.7)).max() < 1e-10


def test_ng_only_MG_survives_without_lower_order():
    # a = 0, Q = 0, lam = 0, LambdaTilde = 0: every block except M_G carries
    # a factor that vanishes
    prob = presets.osc1d(n_modes=12, lam=0.0)
    tr = Truncation(12, 1)
    sol = cl.solve_cell_problems(prob, tr)
    ng = cl.ng_coefficients(prob, sol)
    assert np.abs(ng.M_G1_symbols).max() < 1e-13
    assert np.abs(ng.M_G2_symbols).max() < 1e-13
    assert np.abs(ng.T_G0).max() < 1e-13
    assert np.abs(ng.T_G).max() < 1e-13
    assert np.abs(ng.N22).max() < 1e-13
    assert np.abs(ng.M_G_symbols).max() > 0.0


BLOCK_STACK_PROBLEMS = oracles.block_stack_problems()


@pytest.mark.parametrize("name,prob,tr", BLOCK_STACK_PROBLEMS,
                         ids=[p[0] for p in BLOCK_STACK_PROBLEMS])
def test_batched_symbols_match_per_point_formulas(name, prob, tr):
    sol = cl.solve_cell_problems(prob, tr)
    ng = cl.ng_coefficients(prob, sol)
    qs = np.random.default_rng(0).standard_normal((3, 4, prob.d))
    eps = 0.3
    checks = (
        (sol.L_hat_symbol(qs, eps), lambda q: oracles.L_hat_point(sol, q, eps)),
        (sol.B0_symbols(qs, eps),
         lambda q: sol.f0 @ oracles.L_hat_point(sol, q, eps) @ sol.f0),
        (ng.symbol(qs, eps), lambda q: oracles.ng_symbol_point(ng, q, eps)),
    )
    for got, point in checks:
        assert got.shape == (3, 4, prob.n, prob.n)
        ref = np.array([[point(q) for q in row] for row in qs])
        assert np.abs(got - ref).max() <= 1e-13 * max(1.0, np.abs(ref).max())
    # one point gives the values of the stack, and b_of batches alike
    for one, stack in ((sol.L_hat_symbol(qs[1, 2], eps),
                        sol.L_hat_symbol(qs, eps)[1, 2]),
                       (prob.b_of(qs[2, 3]), prob.b_of(qs)[2, 3])):
        assert np.abs(one - stack).max() <= 1e-15 * max(1.0, np.abs(one).max())


def _planted_system(cond, trunc=Truncation(6, 1), n=2, c=3, seed=7):
    """(A, rhs) whose A_red (A without its zero-mode block) has the spectrum
    geomspace(1, cond) in a random unitary basis."""
    rng = np.random.default_rng(seed)
    dim = trunc.size * n
    red = dim - n
    q, _ = np.linalg.qr(rng.standard_normal((red, red))
                        + 1j * rng.standard_normal((red, red)))
    a_red = (q * np.geomspace(1.0, cond, red)) @ q.conj().T
    keep = np.ones(dim, dtype=bool)
    z = trunc.zero_index
    keep[z * n:(z + 1) * n] = False
    A = np.eye(dim, dtype=complex)
    A[np.ix_(keep, keep)] = 0.5 * (a_red + a_red.conj().T)
    rhs = (rng.standard_normal((trunc.size, n, c))
           + 1j * rng.standard_normal((trunc.size, n, c)))
    return A, rhs


def test_solve_zero_mean_refuses_a_condition_above_the_cap(monkeypatch):
    tr = Truncation(6, 1)
    A, rhs = _planted_system(2e6, tr)
    monkeypatch.setattr(linalg, "COND_CAP", 1e6)
    with pytest.raises(IllConditioned):
        cl.solve_zero_mean(A, rhs, tr, (16,))


def test_one_condition_cap_moves_both_certificates(monkeypatch):
    # the cell solve and the threshold engine's X0 decomposition read the
    # one cap, linalg.COND_CAP: both pass a condition of 1e6 under the
    # default cap and both refuse it under a cap of 1e4
    tr = Truncation(6, 1)
    A, rhs = _planted_system(1e6, tr)
    X0 = np.array([[1.0, 0.0, 0.0], [0.0, 1e-3, 0.0]])
    cl.solve_zero_mean(A, rhs, tr, (16,))
    ab.x0_decomposition(X0)
    monkeypatch.setattr(linalg, "COND_CAP", 1e4)
    with pytest.raises(IllConditioned):
        cl.solve_zero_mean(A, rhs, tr, (16,))
    with pytest.raises(IllConditioned):
        ab.x0_decomposition(X0)


def test_solve_zero_mean_never_certifies_a_nan():
    tr = Truncation(6, 1)
    A, rhs = _planted_system(10.0, tr)
    A[3, 5] = A[5, 3] = np.nan
    with pytest.raises(IllConditioned):
        cl.solve_zero_mean(A, rhs, tr, (16,))


def test_solve_zero_mean_matches_dense_solve():
    tr = Truncation(6, 1)
    A, rhs = _planted_system(1e3, tr)
    got = cl.coeff_vector(cl.solve_zero_mean(A, rhs, tr, (16,)), tr)
    ref = oracles.zero_mean_solve(A, rhs, tr)
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_cell_solve_decomposes_no_galerkin_matrix(monkeypatch):
    # the condition cap is certified by Cholesky, so no eigensolver ever
    # sees a matrix of the Galerkin dimension
    prob = presets.random_fiber_instance(201, d=2, n_modes=6)
    tr = Truncation(6, 2)
    dim = tr.size * prob.n
    sizes = []

    def spy(real):
        def wrapped(a, *args, **kwargs):
            sizes.append(np.shape(a)[-1])
            return real(a, *args, **kwargs)
        return wrapped

    for owner in (np.linalg, scipy.linalg):
        for name in ("eigvalsh", "eigh"):
            monkeypatch.setattr(owner, name, spy(getattr(owner, name)))
    cl.solve_cell_problems(prob, tr)
    assert sizes and max(sizes) < dim - prob.n


def _random_symbol_problem(seed, d, m=4, n=2):
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((d, m, n)) + 1j * rng.standard_normal((d, m, n))
    return cl.PeriodicProblem(cubic_lattice(d), b,
                              fd.constant_field((4,) * d, np.eye(m)))


@pytest.mark.parametrize("prob", [p[1] for p in BLOCK_STACK_PROBLEMS]
                         + [_random_symbol_problem(s, d) for s in (0, 1)
                            for d in (1, 2, 3)])
def test_symbol_bounds_match_per_direction_loop(prob):
    # the batched draw, symbols and eigvalsh sum in another order than the
    # loop: equal up to a few units of rounding
    got = np.array(prob.symbol_bounds())
    ref = np.array(oracles.symbol_bounds_loop(prob))
    assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()
