import dataclasses

import numpy as np
import pytest

import parahom
from parahom import abstract as ab
from parahom import fibers as fb
from parahom import linalg
from parahom import presets
from parahom.errors import (DegenerateKernel, IllConditioned, NonPositiveL,
                            OutsideThresholdBall, RankMismatch)
from parahom.fields import Truncation

import oracles

THETA = np.array([0.6, 0.8])


@pytest.fixture(scope="module")
def family():
    fam = ab.random_family(np.random.default_rng(11), dim_H=8, n=2)
    return fam, ab.compute_threshold(fam)


def test_public_names_resolve():
    for name in parahom.__all__:
        assert hasattr(parahom, name), name


def _assert_kernel_shaped(th):
    # every stored array is an n-column factor or an (m, n, n) stack, and so
    # is the array it may be a view of, which a view keeps alive
    arrays = {k: v for k, v in vars(th).items() if isinstance(v, np.ndarray)}
    for name, val in arrays.items():
        while isinstance(val.base, np.ndarray):
            val = val.base
        if val.ndim == 3:
            assert val.shape[1:] == (th.n, th.n), name
        else:
            assert val.ndim == 2 and val.shape[1] <= th.n, (name, val.shape)
    assert {"kernel_basis", "z", "zt", "r", "germ_blocks",
            "n_blocks"} <= set(arrays)


def test_threshold_data_holds_only_kernel_factors(family):
    _assert_kernel_shaped(family[1])


def test_hatted_threshold_data_holds_only_kernel_factors():
    prob = presets.random_fiber_instance(3, d=2, n_modes=3)
    tr = Truncation(3, 2)
    consts = fb.estimate_constants(prob)
    fam = fb.hatted_family(prob, tr, np.array([0.6, 0.8]), consts)
    th = ab.compute_threshold(fam, delta=consts.delta, tau0=consts.tau0)
    assert fam.dim_H == 49 * prob.n and th.n == prob.n
    _assert_kernel_shaped(th)


def test_kernel_projection_zero_matrix():
    # compute_threshold raises IllConditioned on X0 = 0 (no positive
    # spectrum), so the kernel split is read off _x0_svd
    _, _, u = ab._x0_svd(np.zeros((2, 2)))
    assert u.shape[1] == 2
    assert np.allclose(u @ u.conj().T, np.eye(2))


def test_kernel_projection_diag():
    th = ab.compute_threshold(_family_with_X0(np.diag([0.0, 1.0]), 0))
    assert th.n == 1
    assert np.allclose(th.P, np.diag([1.0, 0.0]))
    assert th.d0 == pytest.approx(1.0)


def test_kernel_projection_rank_factor_vs_nullspace_oracle():
    rng = np.random.default_rng(3)
    left = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    right = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    X0 = left @ right                      # rank 3, kernel dim 1
    th = ab.compute_threshold(_family_with_X0(X0, 3))
    P_ref, n_ref = oracles.null_projector(X0)
    assert th.n == n_ref == 1
    assert np.abs(th.P - P_ref).max() < 1e-12


def test_kernel_projection_trivial_kernel_raises():
    with pytest.raises(DegenerateKernel):
        ab.compute_threshold(_family_with_X0(np.eye(3), 0))


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
    assert np.abs(ab.compute_threshold(fam0).Z).max() < 1e-14


def test_solve_Z_orthogonal_range(family):
    # X1 P mapped into Ker X0^*: the defining functional vanishes, so Z = 0
    fam, th = family
    w = np.linalg.svd(fam.X0)[0]
    rank = np.linalg.matrix_rank(fam.X0)
    tail = w[:, rank:]
    X1 = tail @ (tail.conj().T @ fam.X1)
    fam0 = ab.AbstractFamily(fam.X0, X1, fam.Y0, fam.Y1, fam.Y2,
                             fam.Q, fam.Q0, fam.lam)
    assert np.abs(ab.compute_threshold(fam0).Z).max() < 1e-12


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
    assert np.abs(ab.compute_threshold(fam0).Ztilde).max() < 1e-14
    fam1 = ab.AbstractFamily(fam.X0, fam.X1, np.zeros_like(fam.Y0), fam.Y1,
                             fam.Y2, fam.Q, fam.Q0, fam.lam)
    assert np.abs(ab.compute_threshold(fam1).Ztilde).max() < 1e-14
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
    got = oracles.dense_objects(th)
    assert np.array_equal(got["S_block"], th.S_block)
    t, e = 0.3, 0.2
    ref["L"] = (t ** 2 * ref["S_block"] + t * e * ref["C_block"]
                + e ** 2 * ref["D_block"])
    got["L"] = ab.L_operator(th, t, e)
    ref["N"] = (t ** 3 * ref["N11"] + t ** 2 * e * ref["N12"]
                + t * e ** 2 * ref["N21"] + e ** 3 * ref["N22"])
    got["N"] = ab.n_operator(th, t, e)
    assert set(got) == set(ref)
    for name, val in ref.items():
        scale = max(1.0, float(np.abs(val).max()))
        assert np.abs(got[name] - val).max() < 1e-12 * scale, name
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
    got = oracles.dense_objects(th)
    for name in ("P", "Z", "Ztilde", "R"):
        val = ref[name]
        err = np.abs(got[name] - val).max()
        assert err <= 1e-12 * max(1.0, float(np.abs(val).max())), name


@pytest.mark.parametrize("shape", [(14, 10), (10, 10)])
def test_r_factor_route_raises_on_trivial_kernel(shape):
    rng = np.random.default_rng(shape[0])
    fam = _family_with_X0(_cplx(rng, *shape), 1)
    with pytest.raises(DegenerateKernel):
        ab.compute_threshold(fam)


def test_r_factor_route_raises_on_ill_conditioned_gram(monkeypatch):
    # a wide X0 with singular values 1 ... 1e-7 off a 6-dimensional kernel
    # (test_ill_conditioned_gram_raises covers a tall one), and X0 = 0
    rng = np.random.default_rng(6)
    left = np.linalg.qr(_cplx(rng, 6, 4))[0]
    right = np.linalg.qr(_cplx(rng, 10, 4))[0]
    X0 = (left * np.geomspace(1.0, 1e-7, 4)) @ right.conj().T
    fam = _family_with_X0(X0, 2)
    with pytest.raises(IllConditioned):
        ab.compute_threshold(fam)
    monkeypatch.setattr(ab, "COND_CAP", 1e15)
    assert ab.compute_threshold(fam).n == 6
    with pytest.raises(IllConditioned):
        ab.compute_threshold(_family_with_X0(np.zeros((6, 10)), 2))


def test_ill_conditioned_gram_raises(family, monkeypatch):
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
    monkeypatch.setattr(ab, "COND_CAP", 1e15)
    assert ab.compute_threshold(bad).n == 2


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
    g = ab.L_operator(th, 1.0, 0.0)
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
    u = th.kernel_basis
    g = u.conj().T @ ab.L_operator(th, 0.0, 1.0) @ u
    assert np.abs(g - 2.0 * np.eye(th.n)).max() < 1e-12  # Q + lam Q0 = 2I


def test_germ_hermitian_and_bounded_below(family):
    fam, th = family
    gam = ab.germ_eigendata(th, THETA)[0]
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
    N22 = th.expand(th.n_blocks[3])
    assert np.abs(ab.n_operator(th, 0.0, eps) - eps ** 3 * N22).max() < 1e-14


def test_n_operator_hermitian(family):
    _, th = family
    N = ab.n_operator(th, 0.2, 0.1)
    assert oracles.hermiticity_defect(N) < 1e-12


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
    K = ab.kernel_approximation(th, 0.05, 0.03, 1.0)[1]
    # Z = Ztilde = 0 and N has only the lam-part which vanishes since Zt = 0
    assert np.abs(K).max() < 1e-13


def test_corrector_s_zero_form(family):
    fam, th = family
    t, e = 0.4 * th.tau0 * THETA
    K0 = ab.kernel_approximation(th, t, e, 0.0)[1]
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
    K = ab.kernel_approximation(th, t, e, 0.8)[1]
    assert oracles.hermiticity_defect(K) < 1e-12


def test_corrector_nonpositive_L_raises(family):
    fam, th = family
    shift = 2.0 * np.linalg.norm(th.germ_blocks[2], 2) + 1.0
    blocks = th.germ_blocks.copy()
    blocks[2] -= shift * np.eye(th.n)
    bad = dataclasses.replace(th, germ_blocks=blocks)
    with pytest.raises(NonPositiveL):
        ab.kernel_approximation(bad, 0.0, 0.5 * th.tau0, 1.0)


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
    e_full, K = ab.kernel_approximation(th, t, e, s)
    rem = linalg.HermitianFlow(B).expm(s) - e_full - K
    restricted = th.P @ rem @ th.P
    assert np.abs(restricted).max() < 1e-10


def test_remainder_outside_ball_raises(family):
    fam, th = family
    with pytest.raises(OutsideThresholdBall):
        ab.exponential_remainder(fam, th, 2 * th.tau0, 0.0, 1.0)


def test_threshold_projector_tau_zero(family):
    fam, th = family
    rep = ab.threshold_order_norms(fam, th, 0.0, THETA)
    assert rep["F_minus_P"] < 1e-12
    assert rep["F_minus_P_tauF1"] < 1e-12


def test_threshold_order_norms_decompose_once(family, monkeypatch):
    # the four norms share one B(t, eps) and one eigendecomposition of it
    fam, th = family
    calls = []
    real = np.linalg.eigh

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    ab.threshold_order_norms(fam, th, 0.25 * th.tau0, THETA)
    assert len(calls) == 1


def test_threshold_rank_mismatch_raises(family):
    fam, th = family
    bad = dataclasses.replace(th, delta=th.d0 * 10)
    with pytest.raises(RankMismatch):
        ab.spectral_projector(fam, bad, 0.0, 0.0)


@pytest.mark.parametrize("key,expected", [
    ("F_minus_P", 1.0), ("F_minus_P_tauF1", 2.0),
    ("BF_minus_SP", 3.0), ("BF_minus_SP_K", 4.0)])
def test_threshold_order_slopes(family, key, expected):
    fam, th = family
    rows = ab.dyadic_order_sweep(fam, th, THETA)
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
    phi0 = th_hat.Z
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
    e_full, K = ab.kernel_approximation(th, t, e, s)
    rhs, kg = ab.bordered_approximation(bf, data, t, e, s)
    lhs = bf.M @ e_full @ bf.M.conj().T
    assert np.abs(lhs - rhs).max() < 1e-12
    kg_direct = bf.M @ K @ bf.M.conj().T
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
    e_bord, kg = ab.bordered_approximation(bf, data, t, e, s)
    rem_full = bf.M @ linalg.HermitianFlow(B).expm(s) @ bf.M.conj().T \
        - e_bord - kg
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
