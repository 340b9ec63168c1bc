import numpy as np
import pytest

from parahom import abstract as ab
from parahom import linalg
from parahom.errors import (DegenerateKernel, IllConditioned, NonPositiveL,
                            OutsideThresholdBall, RankMismatch)

import oracles

THETA = np.array([0.6, 0.8])


@pytest.fixture(scope="module")
def family():
    fam = ab.random_family(np.random.default_rng(11), dim_H=8, n=2)
    return fam, ab.compute_threshold(fam)


def test_kernel_projection_zero_matrix():
    P, n, _ = ab.kernel_projection(np.zeros((2, 2)))
    assert n == 2
    assert np.allclose(P, np.eye(2))


def test_kernel_projection_diag():
    P, n, d0 = ab.kernel_projection(np.diag([0.0, 1.0]))
    assert n == 1
    assert np.allclose(P, np.diag([1.0, 0.0]))
    assert d0 == pytest.approx(1.0)


def test_kernel_projection_rank_factor_vs_nullspace_oracle():
    rng = np.random.default_rng(3)
    left = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    right = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    X0 = left @ right                      # rank 3, kernel dim 1
    P, n, _ = ab.kernel_projection(X0)
    P_ref, n_ref = oracles.null_projector(X0)
    assert n == n_ref == 1
    assert np.abs(P - P_ref).max() < 1e-12


def test_kernel_projection_trivial_kernel_raises():
    with pytest.raises(DegenerateKernel):
        ab.kernel_projection(np.eye(3))


def test_projector_invariants(family):
    fam, th = family
    P = th.P
    assert np.abs(P - P.conj().T).max() < 1e-12
    assert np.abs(P @ P - P).max() < 1e-12
    assert np.abs(fam.X0 @ P).max() < 1e-10 * np.linalg.norm(fam.X0)


def test_solve_Z_zero_X1(family):
    fam, th = family
    fam0 = ab.AbstractFamily(fam.X0, np.zeros_like(fam.X1), fam.Y0, fam.Y1,
                             fam.Y2, fam.Q, fam.Q0, fam.lam)
    assert np.abs(ab.solve_Z(fam0, th.P)).max() < 1e-14


def test_solve_Z_orthogonal_range(family):
    # X1 P mapped into Ker X0^*: the defining functional vanishes, so Z = 0
    fam, th = family
    w = np.linalg.svd(fam.X0)[0]
    rank = np.linalg.matrix_rank(fam.X0)
    tail = w[:, rank:]
    X1 = tail @ (tail.conj().T @ fam.X1)
    fam0 = ab.AbstractFamily(fam.X0, X1, fam.Y0, fam.Y1, fam.Y2,
                             fam.Q, fam.Q0, fam.lam)
    assert np.abs(ab.solve_Z(fam0, th.P)).max() < 1e-12


def test_solve_Z_pinv_oracle(family):
    fam, th = family
    Z_ref = oracles.pinv_solution(fam.X0, fam.X0.conj().T @ fam.X1, th.P)
    assert np.abs(th.Z - Z_ref).max() < 1e-12
    residual = fam.X0.conj().T @ (fam.X0 @ th.Z + fam.X1 @ th.P)
    # weak equation holds against the complement of the kernel
    assert np.abs(residual - th.P @ residual).max() < 1e-10


def test_solve_Ztilde_trivial_and_oracle(family):
    fam, th = family
    fam0 = ab.AbstractFamily(fam.X0, fam.X1, fam.Y0, fam.Y1,
                             np.zeros_like(fam.Y2), fam.Q, fam.Q0, fam.lam)
    assert np.abs(ab.solve_Ztilde(fam0, th.P)).max() < 1e-14
    fam1 = ab.AbstractFamily(fam.X0, fam.X1, np.zeros_like(fam.Y0), fam.Y1,
                             fam.Y2, fam.Q, fam.Q0, fam.lam)
    assert np.abs(ab.solve_Ztilde(fam1, th.P)).max() < 1e-14
    Zt_ref = oracles.pinv_solution(fam.X0, fam.Y0.conj().T @ fam.Y2, th.P)
    assert np.abs(th.Ztilde - Zt_ref).max() < 1e-12


@pytest.mark.parametrize("n,degenerate", [(1, False), (2, False),
                                         (3, False), (2, True)])
def test_threshold_matches_dense_formulas(n, degenerate):
    # the kernel-factored engine against full-space products with P, the
    # Gram eigendecomposition and a QR of Ran X0
    fam = ab.random_family(np.random.default_rng(40 + n), dim_H=8 + n, n=n,
                           degenerate_copies=degenerate)
    th = ab.compute_threshold(fam)
    ref = oracles.dense_threshold(fam)
    for name, val in ref.items():
        scale = max(1.0, float(np.abs(val).max()))
        assert np.abs(getattr(th, name) - val).max() < 1e-12 * scale, name
    u = th.kernel_basis
    assert np.abs(u.conj().T @ u - np.eye(th.n)).max() < 1e-12
    assert np.abs(u @ u.conj().T - ref["P"]).max() < 1e-12


def _cplx(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _family_with_X0(X0, seed):
    """Random pencil around a given X0, with no sampled constants."""
    rng = np.random.default_rng(seed)
    dim_star, dim = X0.shape
    return ab.AbstractFamily(
        X0, _cplx(rng, dim_star, dim), _cplx(rng, dim + 1, dim),
        _cplx(rng, dim + 1, dim), _cplx(rng, dim + 1, dim),
        linalg.herm(_cplx(rng, dim, dim)), np.eye(dim, dtype=complex), 1.0)


def _full_svd_threshold(fam, rel_tol=ab.KERNEL_RTOL):
    """Kernel data, Z, Ztilde and R = (I - U_r U_r*) X1 P from a full SVD
    of X0 with its left singular vectors."""
    U, sing, vh = np.linalg.svd(fam.X0)
    r = int(np.sum(sing > rel_tol * max(sing[0], 1.0)))
    V = vh.conj().T
    P = V[:, r:] @ V[:, r:].conj().T
    gram_pinv = (V[:, :r] / sing[:r] ** 2) @ V[:, :r].conj().T
    U_r = U[:, :r]
    X1P = fam.X1 @ P
    return {"n": fam.dim_H - r, "d0": sing[r - 1] ** 2, "P": P,
            "Z": -gram_pinv @ fam.X0.conj().T @ X1P,
            "Ztilde": -gram_pinv @ fam.Y0.conj().T @ fam.Y2 @ P,
            "R": X1P - U_r @ (U_r.conj().T @ X1P)}


def _rank_factor(rng, rows, cols, rank):
    return _cplx(rng, rows, rank) @ _cplx(rng, rank, cols)


@pytest.mark.parametrize("shape,rank", [
    ((14, 10), 8),     # tall
    ((6, 10), 6),      # wide, full row rank
    ((6, 10), 4),      # wide, rank-deficient
    ((10, 10), 7)])    # square, rank-deficient
def test_r_factor_threshold_matches_full_svd_oracle(shape, rank):
    rng = np.random.default_rng(sum(shape) + rank)
    fam = _family_with_X0(_rank_factor(rng, *shape, rank), rank)
    th = ab.compute_threshold(fam)
    ref = _full_svd_threshold(fam)
    assert th.n == ref["n"] == shape[1] - rank
    assert th.d0 == pytest.approx(ref["d0"], rel=1e-12)
    for name in ("P", "Z", "Ztilde", "R"):
        val = ref[name]
        err = np.abs(getattr(th, name) - val).max()
        assert err <= 1e-12 * max(1.0, float(np.abs(val).max())), name
    P, n, d0 = ab.kernel_projection(fam.X0)
    assert n == ref["n"] and d0 == pytest.approx(ref["d0"], rel=1e-12)
    assert np.abs(P - ref["P"]).max() <= 1e-12


@pytest.mark.parametrize("shape", [(14, 10), (10, 10)])
def test_r_factor_route_raises_on_trivial_kernel(shape):
    rng = np.random.default_rng(shape[0])
    fam = _family_with_X0(_cplx(rng, *shape), 1)
    with pytest.raises(DegenerateKernel):
        ab.compute_threshold(fam)
    with pytest.raises(DegenerateKernel):
        ab.kernel_projection(fam.X0)


def test_r_factor_route_raises_on_ill_conditioned_gram():
    # a wide X0 with singular values 1 ... 1e-7 off a 6-dimensional kernel
    # (test_ill_conditioned_gram_raises covers a tall one), and X0 = 0
    rng = np.random.default_rng(6)
    left = np.linalg.qr(_cplx(rng, 6, 4))[0]
    right = np.linalg.qr(_cplx(rng, 10, 4))[0]
    X0 = (left * np.geomspace(1.0, 1e-7, 4)) @ right.conj().T
    fam = _family_with_X0(X0, 2)
    with pytest.raises(IllConditioned):
        ab.compute_threshold(fam)
    assert ab.compute_threshold(fam, cond_cap=1e15).n == 6
    with pytest.raises(IllConditioned):
        ab.compute_threshold(_family_with_X0(np.zeros((6, 10)), 2))


def test_ill_conditioned_gram_raises(family):
    # singular values 1, ..., 1e-7 off a 2-dimensional kernel: the restricted
    # Gram condition (sigma_1/sigma_r)^2 is 1e14
    fam, th = family
    u_left, _, vh = np.linalg.svd(fam.X0)
    sing = np.concatenate([np.geomspace(1.0, 1e-7, fam.dim_H - 2),
                           np.zeros(2)])
    X0 = (u_left[:, :fam.dim_H] * sing) @ vh
    bad = ab.AbstractFamily(X0, fam.X1, fam.Y0, fam.Y1, fam.Y2, fam.Q,
                            fam.Q0, fam.lam, dict(fam.form_constants))
    with pytest.raises(IllConditioned):
        ab.compute_threshold(bad)
    with pytest.raises(IllConditioned):
        ab.solve_Z(bad, th.P)
    assert ab.compute_threshold(bad, cond_cap=1e15).n == 2


def test_Z_support_identities(family):
    _, th = family
    for op in (th.Z, th.Ztilde):
        assert np.abs(op @ th.P - op).max() < 1e-12
        assert np.abs(th.P @ op).max() < 1e-12


def test_Z_norm_bounds(family):
    fam, th = family
    c = fam.form_constants
    bound_z = np.sqrt(c["kappa"] / (13 * th.delta)) * np.linalg.norm(fam.X1, 2)
    assert np.linalg.norm(th.Z, 2) <= bound_z + 1e-12
    bound_zt = c["c1"] * np.sqrt(c["kappa"] * c["C1"] / (13 * th.delta))
    assert np.linalg.norm(th.Ztilde, 2) <= bound_zt + 1e-12


def test_germ_theta10_pure_S():
    rng = np.random.default_rng(5)
    fam = ab.random_family(rng, dim_H=7, n=2)
    th = ab.compute_threshold(fam)
    g = ab.germ(th, (1.0, 0.0))
    assert np.abs(g - th.S_block).max() < 1e-14


def test_germ_theta01_identity_case():
    # X1 = 0, Y2 = 0, Q = Q0 = I, lam = 1: germ = identity on the kernel
    rng = np.random.default_rng(6)
    base = ab.random_family(rng, dim_H=6, n=2)
    dim = base.dim_H
    fam = ab.AbstractFamily(base.X0, np.zeros_like(base.X1), base.Y0,
                            base.Y1, np.zeros_like(base.Y2),
                            np.eye(dim), np.eye(dim), lam=1.0,
                            form_constants=dict(base.form_constants))
    th = ab.compute_threshold(fam)
    g = ab.germ_restricted(th, (0.0, 1.0))
    assert np.abs(g - 2.0 * np.eye(th.n)).max() < 1e-12  # Q + lam Q0 = 2I


def test_germ_hermitian_and_bounded_below(family):
    fam, th = family
    gam = np.linalg.eigvalsh(ab.germ_restricted(th, THETA))
    assert gam.min() >= th.cstar_check - 1e-10


def test_B_lower_bound(family):
    fam, th = family
    for frac in (1.0, 0.3, 0.05):
        tau = frac * th.tau0
        t, e = tau * THETA
        wmin = np.linalg.eigvalsh(fam.B(t, e)).min()
        assert wmin >= th.cstar_check * tau ** 2 - 1e-10


def test_n_operator_trivial_zero():
    rng = np.random.default_rng(8)
    base = ab.random_family(rng, dim_H=6, n=1)
    dim = base.dim_H
    fam = ab.AbstractFamily(base.X0, np.zeros_like(base.X1),
                            base.Y0, np.zeros_like(base.Y1),
                            np.zeros_like(base.Y2), np.zeros((dim, dim)),
                            base.Q0, lam=0.0,
                            form_constants=dict(base.form_constants))
    th = ab.compute_threshold(fam)
    assert np.abs(ab.n_operator(th, 0.3, 0.2)).max() < 1e-14


def test_n_operator_t_zero_only_N22(family):
    _, th = family
    eps = 0.1
    assert np.abs(ab.n_operator(th, 0.0, eps) - eps ** 3 * th.N22).max() < 1e-14


def test_n_operator_hermitian(family):
    _, th = family
    N = ab.n_operator(th, 0.2, 0.1)
    assert linalg.hermiticity_defect(N) < 1e-12


def test_n_star_zero_for_n1():
    fam = ab.random_family(np.random.default_rng(7), dim_H=6, n=1)
    th = ab.compute_threshold(fam)
    n_star, _ = ab.n_star_offdiagonal(th, THETA)
    assert np.abs(n_star).max() <= 1e-10


def test_n_star_vanishes_on_degenerate_pairs():
    fam = ab.random_family(np.random.default_rng(9), dim_H=5, n=1,
                           degenerate_copies=True)
    th = ab.compute_threshold(fam)
    n_star, gam = ab.n_star_offdiagonal(th, THETA)
    scale = max(np.abs(gam).max(), 1.0)
    for i in range(len(gam)):
        for j in range(len(gam)):
            if i != j and abs(gam[i] - gam[j]) < 1e-8 * scale:
                assert abs(n_star[i, j]) < 1e-8


def test_corrector_zero_when_all_vanish():
    rng = np.random.default_rng(8)
    base = ab.random_family(rng, dim_H=6, n=1)
    dim = base.dim_H
    fam = ab.AbstractFamily(base.X0, np.zeros_like(base.X1),
                            base.Y0, np.zeros_like(base.Y1),
                            np.zeros_like(base.Y2), np.zeros((dim, dim)),
                            np.eye(dim), lam=1.0,
                            form_constants=dict(base.form_constants))
    th = ab.compute_threshold(fam)
    K = ab.corrector_K(th, 0.05, 0.03, 1.0)
    # Z = Ztilde = 0 and N has only the lam-part which vanishes since Zt = 0
    assert np.abs(K).max() < 1e-13


def test_corrector_s_zero_form(family):
    fam, th = family
    t, e = 0.4 * th.tau0 * THETA
    K0 = ab.corrector_K(th, t, e, 0.0)
    expected = (t * th.Z + e * th.Ztilde) @ th.P \
        + th.P @ (t * th.Z + e * th.Ztilde).conj().T
    assert np.abs(K0 - expected).max() < 1e-13


def test_corrector_integral_vs_quadrature(family):
    fam, th = family
    t, e = 0.5 * th.tau0 * THETA
    s = 1.7
    u = th.kernel_basis
    L_n = u.conj().T @ ab.L_operator(th, t, e) @ u
    N_n = u.conj().T @ ab.n_operator(th, t, e) @ u
    ref = oracles.semigroup_integral_quad(L_n, N_n, s)
    closed = linalg.HermitianFlow(L_n).integral(N_n, s)
    assert np.abs(closed - ref).max() < 1e-9


def test_corrector_hermitian(family):
    _, th = family
    t, e = 0.4 * th.tau0 * THETA
    K = ab.corrector_K(th, t, e, 0.8)
    assert linalg.hermiticity_defect(K) < 1e-12


def test_corrector_nonpositive_L_raises(family):
    fam, th = family
    import dataclasses
    shift = 2.0 * np.linalg.norm(th.D_block, 2) + 1.0
    bad = dataclasses.replace(th, D_block=th.D_block - shift * th.P)
    with pytest.raises(NonPositiveL):
        ab.corrector_K(bad, 0.0, 0.5 * th.tau0, 1.0)


def test_remainder_envelope_bounded(family):
    fam, th = family
    s = 2.0
    ratios = []
    for j in range(6):
        tau = th.tau0 * 0.5 ** j
        t, e = tau * THETA
        nrm, env_pos, env_nonneg = ab.exponential_remainder(fam, th, t, e, s)
        assert nrm <= env_nonneg * (1.0 + s) / s * 1e3  # loose sanity
        ratios.append(nrm / env_pos)
    assert max(ratios) < 10.0 * min(1.0, max(ratios))


def test_remainder_decays_in_s(family):
    fam, th = family
    t, e = 0.7 * th.tau0 * THETA
    svals = [0.5, 2.0, 8.0, 32.0, 128.0]
    norms = [ab.exponential_remainder(fam, th, t, e, s)[0] for s in svals]
    assert all(b <= a * (1 + 1e-9) for a, b in zip(norms, norms[1:]))
    assert norms[-1] < 1e-2 * norms[0] + 1e-12


def test_remainder_block_diagonal_trivial_case():
    # X1 = Y1 = Y2 = 0, Q = 0: B = A0 + lam eps^2 Q0 with Q0 = I; restricted
    # to the kernel everything is exact, remainder supported off the kernel
    rng = np.random.default_rng(12)
    base = ab.random_family(rng, dim_H=6, n=2)
    dim = base.dim_H
    fam = ab.AbstractFamily(base.X0, np.zeros_like(base.X1),
                            base.Y0, np.zeros_like(base.Y1),
                            np.zeros_like(base.Y2), np.zeros((dim, dim)),
                            np.eye(dim), lam=1.0,
                            form_constants=dict(base.form_constants))
    th = ab.compute_threshold(fam)
    t, e = 0.5 * th.tau0 * THETA
    s = 1.0
    B = fam.B(t, e)
    rem = linalg.HermitianFlow(B).expm(s) - ab.exp_L_P(th, t, e, s) \
        - ab.corrector_K(th, t, e, s)
    restricted = th.P @ rem @ th.P
    assert np.abs(restricted).max() < 1e-10


def test_remainder_outside_ball_raises(family):
    fam, th = family
    with pytest.raises(OutsideThresholdBall):
        ab.exponential_remainder(fam, th, 2 * th.tau0, 0.0, 1.0)


def test_threshold_projector_tau_zero(family):
    fam, th = family
    rep = ab.threshold_projector_checks(fam, th, 0.0, THETA)
    assert rep["F_minus_P"] < 1e-12
    assert rep["F_minus_P_tauF1"] < 1e-12


def test_threshold_rank_mismatch_raises(family):
    fam, th = family
    import dataclasses
    bad = dataclasses.replace(th, delta=th.d0 * 10)
    with pytest.raises(RankMismatch):
        ab.spectral_projector(fam, bad, 0.0, 0.0)


@pytest.mark.parametrize("key,expected", [
    ("F_minus_P", 1.0), ("F_minus_P_tauF1", 2.0),
    ("BF_minus_SP", 3.0), ("BF_minus_SP_K", 4.0)])
def test_threshold_order_slopes(family, key, expected):
    fam, th = family
    rows = ab.dyadic_order_sweep(fam, th, THETA, n_points=8)
    taus = np.array([r[0] for r in rows])
    vals = np.array([r[1][key] for r in rows])
    keep = vals > 1e-12 * vals.max()
    slope = oracles.slope_fit(taus[keep], vals[keep])
    assert abs(slope - expected) < 0.25


def test_m_decomposition_n1_closed_form():
    fam = ab.random_family(np.random.default_rng(7), dim_H=6, n=1)
    th = ab.compute_threshold(fam)
    tau, s = 0.5 * th.tau0, 1.2
    rep = ab.m_decomposition_check(th, tau, THETA, s)
    gam, _, N_basis = ab.germ_eigendata(th, THETA)
    mu = float(np.real(N_basis[0, 0]))
    expected = mu * s * np.exp(-tau ** 2 * gam[0] * s)
    assert rep["closed"].shape == (1, 1)
    assert rep["closed"][0, 0] == pytest.approx(expected, rel=1e-12)
    assert np.abs(rep["Mstar"]).max() == 0.0


def test_m_decomposition_zero_N():
    rng = np.random.default_rng(8)
    base = ab.random_family(rng, dim_H=6, n=2)
    dim = base.dim_H
    fam = ab.AbstractFamily(base.X0, np.zeros_like(base.X1),
                            base.Y0, np.zeros_like(base.Y1),
                            np.zeros_like(base.Y2), np.zeros((dim, dim)),
                            np.eye(dim), lam=1.0,
                            form_constants=dict(base.form_constants))
    th = ab.compute_threshold(fam)
    rep = ab.m_decomposition_check(th, 0.3 * th.tau0, THETA, 1.0)
    assert np.abs(rep["closed"]).max() < 1e-13
    assert np.abs(rep["quadrature"]).max() < 1e-11


def test_m_decomposition_matches_quadrature():
    fam = ab.random_family(np.random.default_rng(21), dim_H=8, n=2)
    th = ab.compute_threshold(fam)
    rep = ab.m_decomposition_check(th, 0.5 * th.tau0, THETA, 1.5)
    assert rep["deviation"] < 1e-9


def test_m_decomposition_degenerate_pair():
    fam = ab.random_family(np.random.default_rng(5), dim_H=5, n=1,
                           degenerate_copies=True)
    th = ab.compute_threshold(fam)
    rep = ab.m_decomposition_check(th, 0.5 * th.tau0, THETA, 2.0)
    assert rep["degenerate_pair"]
    assert rep["deviation"] < 1e-9


# ---------------------------------------------------------------------------
# bordered pencil


def _identity_Q0_family(rng, dim_H, n):
    """Random pencil with Q0 = identity (reference side of a bordered pair)."""
    base = ab.random_family(rng, dim_H=dim_H, n=n)
    fam = ab.AbstractFamily(base.X0, base.X1, base.Y0, base.Y1, base.Y2,
                            base.Q, np.eye(dim_H, dtype=complex), lam=0.0)
    consts = ab.estimate_form_constants(fam, rng)
    fam.lam = 1.1 * (consts["c0"] + consts["c4"]) + 0.5
    ab.estimate_form_constants(fam, rng)
    return fam


@pytest.fixture(scope="module")
def bordered():
    rng = np.random.default_rng(31)
    hat = _identity_Q0_family(rng, 7, 2)
    M = np.eye(7) + 0.35 * (rng.standard_normal((7, 7))
                            + 1j * rng.standard_normal((7, 7)))
    bf = ab.BorderedFamily(hat, M)
    ab.estimate_form_constants(bf.base, rng)
    return bf, ab.bordered_data(bf)


def test_bordered_conjugation_identity(bordered):
    bf, _ = bordered
    t, e = 0.05, 0.04
    lhs = bf.base.B(t, e)
    rhs = bf.M.conj().T @ bf.hat.B(t, e) @ bf.M
    assert np.abs(lhs - rhs).max() < 1e-10 * np.linalg.norm(lhs)


def test_bordered_ZG_against_direct_solve(bordered):
    bf, data = bordered
    th_hat = data["th_hat"]
    hat = bf.hat
    # direct route: solve the hatted weak equation, then fix the kernel part
    # by the G-orthogonality constraint
    uh = th_hat.kernel_basis
    G = bf.G
    phi0 = ab.solve_Z(hat, th_hat.P)
    corr = uh @ np.linalg.solve(data["G_n"], uh.conj().T @ (G @ phi0))
    ZG_direct = phi0 - corr
    assert np.abs(data["ZG"] - ZG_direct @ th_hat.P).max() < 1e-10


def test_bordered_identity_M_reduces():
    rng = np.random.default_rng(33)
    fam = _identity_Q0_family(rng, 7, 2)
    th = ab.compute_threshold(fam)
    bf = ab.BorderedFamily(fam, np.eye(fam.dim_H, dtype=complex))
    data = ab.bordered_data(bf)
    t, e = 0.4 * th.tau0 * THETA
    s = 1.0
    rep = ab.bordered_remainder(bf, t, e, s, data)
    nrm, _, _ = ab.exponential_remainder(fam, th, t, e, s)
    assert rep["remainder_norm"] == pytest.approx(nrm, rel=1e-8, abs=1e-12)


def test_bordered_scalar_M_scales():
    # M = c*I multiplies the pencil by c^2, so the remainder picks up the
    # factor c^2 together with the time dilation s -> c^2 s
    rng = np.random.default_rng(34)
    fam = _identity_Q0_family(rng, 6, 2)
    c = 1.7
    bf1 = ab.BorderedFamily(fam, np.eye(fam.dim_H, dtype=complex))
    bfc = ab.BorderedFamily(fam, c * np.eye(fam.dim_H, dtype=complex))
    d1 = ab.bordered_data(bf1)
    dc = ab.bordered_data(bfc)
    t, e, s = 0.002, 0.001, 1.0
    r1 = ab.bordered_remainder(bf1, t, e, c ** 2 * s, d1)["remainder_norm"]
    rc = ab.bordered_remainder(bfc, t, e, s, dc)["remainder_norm"]
    assert rc == pytest.approx(c ** 2 * r1, rel=1e-6)


def test_bordered_exp_and_corrector_identities(bordered):
    # brute-force oracle for the two conjugation identities the bordered
    # remainder relies on: the sandwiched effective flow and M K M* = K_G
    bf, data = bordered
    th = data["th"]
    t, e, s = 0.18 * th.tau0, 0.24 * th.tau0, 1.3
    lhs = bf.M @ ab.exp_L_P(th, t, e, s) @ bf.M.conj().T
    rhs = ab.bordered_principal(bf, data, t, e, s)
    assert np.abs(lhs - rhs).max() < 1e-12
    kg_direct = bf.M @ ab.corrector_K(th, t, e, s) @ bf.M.conj().T
    kg = ab.bordered_corrector(bf, data, t, e, s)
    assert np.abs(kg_direct - kg).max() < 1e-12


def test_bordered_kernel_block_zero_for_trivial_lower_order():
    # pure principal-part base family (Z = Zt = 0, N = 0, no zero-order
    # term): the pencil kernel is flow-invariant and the base-kernel block
    # of the remainder vanishes identically
    rng = np.random.default_rng(17)
    base = ab.random_family(rng, dim_H=6, n=2)
    dim = base.dim_H
    hat = ab.AbstractFamily(base.X0, np.zeros_like(base.X1),
                            base.Y0, np.zeros_like(base.Y1),
                            np.zeros_like(base.Y2), np.zeros((dim, dim)),
                            np.eye(dim), lam=0.0,
                            form_constants=dict(base.form_constants))
    M = np.eye(dim) + 0.3 * (rng.standard_normal((dim, dim))
                             + 1j * rng.standard_normal((dim, dim)))
    bf = ab.BorderedFamily(hat, M)
    data = ab.bordered_data(bf)
    th = data["th"]
    t, e, s = 0.0, 0.008, 1.0
    B = bf.base.B(t, e)
    rem_full = bf.M @ linalg.HermitianFlow(B).expm(s) @ bf.M.conj().T \
        - ab.bordered_principal(bf, data, t, e, s) \
        - ab.bordered_corrector(bf, data, t, e, s)
    minv = data["Minv"]
    blk = th.P @ (minv @ rem_full @ minv.conj().T) @ th.P
    assert np.abs(blk).max() < 1e-10


def test_bordered_ZG_relations(bordered):
    bf, data = bordered
    th, th_hat = data["th"], data["th_hat"]
    Minv = data["Minv"]
    assert np.abs(data["ZG"] - bf.M @ th.Z @ Minv @ th_hat.P).max() < 1e-12
    assert np.abs(data["ZtG"]
                  - bf.M @ th.Ztilde @ Minv @ th_hat.P).max() < 1e-12
