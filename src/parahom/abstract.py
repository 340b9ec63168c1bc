"""Finite-dimensional threshold engine for quadratic operator pencils.

The object of study is the Hermitian pencil

    B(t, eps) = X(t)*X(t) + eps (Y2*Y(t) + Y(t)*Y2) + eps^2 (Q + lambda Q0),

X(t) = X0 + t X1, Y(t) = Y0 + t Y1, on finite-dimensional spaces.  The engine
computes an orthonormal basis u of Ker X0, the first-order solution operators
Z and Ztilde, the spectral germ, the third-order operator N(t, eps), all kept
in that basis, and the corrector K(t, eps, s), and measures the remainder of
the semigroup approximation

    exp(-B(t,eps) s) ~= exp(-L(t,eps) s) P + K(t, eps, s),

together with the order checks for the threshold approximations of the
spectral projector.  A bordered variant (pencil conjugated by an isomorphism
M) is provided for weighted problems.
"""

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import (DegenerateKernel, IllConditioned, NonPositiveL,
                     OutsideThresholdBall, RankMismatch)

KERNEL_RTOL = 1e-10
# largest restricted Gram condition (sigma_1/sigma_r)^2 the engine accepts
COND_CAP = 1e12


# ---------------------------------------------------------------------------
# family and derived data


@dataclass
class AbstractFamily:
    """Matrices of one pencil instance; spaces are plain C^dim arrays.

    X0, X1: maps H -> H*; Y0, Y1, Y2: maps H -> Htilde; Q Hermitian, Q0
    Hermitian positive definite on H.  ``lam`` is the zero-order shift and
    ``form_constants`` carries the sampled constants (c0..c4, beta, kappa,
    c1, C1, cstar) used for envelopes and regime checks.
    """

    X0: np.ndarray
    X1: np.ndarray
    Y0: np.ndarray
    Y1: np.ndarray
    Y2: np.ndarray
    Q: np.ndarray
    Q0: np.ndarray
    lam: float
    form_constants: dict = field(default_factory=dict)

    @property
    def dim_H(self):
        return self.X0.shape[1]

    def X(self, t):
        return self.X0 + t * self.X1

    def Y(self, t):
        return self.Y0 + t * self.Y1

    def A(self, t):
        xt = self.X(t)
        return xt.conj().T @ xt

    def B(self, t, eps):
        xt = self.X(t)
        yt = self.Y(t)
        cross = self.Y2.conj().T @ yt
        mat = (xt.conj().T @ xt
               + eps * (cross + cross.conj().T)
               + eps ** 2 * (self.Q + self.lam * self.Q0))
        return linalg.herm(mat)


@dataclass
class ThresholdData:
    """Threshold objects in the kernel basis u of Ker X0, where P = u u*.

    Z = z u*, Ztilde = zt u* and R = P_* X1 P = r u* are kept as their
    n-column factors.  The germ blocks S, C, D (S(theta) = th1^2 S +
    th1 th2 C + th2^2 D) and the cubic blocks N11, N12, N21, N22 (N = t^3 N11
    + t^2 e N12 + t e^2 N21 + e^3 N22) are kept as n x n middles M whose
    full-space form is u M u*.  The dense P, Z, Ztilde and S_block are
    rebuilt on every read.
    """

    kernel_basis: np.ndarray    # dim_H x n orthonormal columns spanning Ker X0
    z: np.ndarray               # dim_H x n
    zt: np.ndarray              # dim_H x n
    r: np.ndarray               # dim_H* x n
    germ_blocks: np.ndarray     # (3, n, n): S, C, D
    n_blocks: np.ndarray        # (4, n, n): N11, N12, N21, N22
    n: int
    d0: float                   # smallest nonzero eigenvalue of X0*X0
    delta: float
    tau0: float
    cstar_check: float

    def expand(self, middle):
        """Full-space form u M u* of an n x n middle M, symmetrized."""
        u = self.kernel_basis
        return linalg.herm(u @ middle @ u.conj().T)

    @property
    def P(self):
        return self.expand(np.eye(self.n))

    @property
    def Z(self):
        return self.z @ self.kernel_basis.conj().T

    @property
    def Ztilde(self):
        return self.zt @ self.kernel_basis.conj().T

    @property
    def S_block(self):
        return self.expand(self.germ_blocks[0])


def _x0_svd(X0):
    """(sigma_r, V_r, u) with X0 = U_r diag(sigma_r) V_r* and u an orthonormal
    basis of Ker X0, from the SVD of the R factor of X0 = QR; U_r is never
    formed; singular values under KERNEL_RTOL * max(sigma_max, 1) are zero.
    """
    R = np.linalg.qr(np.asarray(X0, dtype=complex), mode="r")
    sing, vh = np.linalg.svd(R, full_matrices=True)[1:]
    smax = sing[0] if sing.size else 0.0
    r = int(np.sum(sing > KERNEL_RTOL * max(smax, 1.0)))
    V = vh.conj().T
    # u is kept: copy it, or the view would hold all of V
    return sing[:r], V[:, :r], V[:, r:].copy()


def _gram_pinv(sing, V_r, rhs):
    """(X0*X0)^+ rhs = V_r diag(sigma_r^-2) V_r* rhs.

    Raises IllConditioned when (sigma_1/sigma_r)^2 exceeds COND_CAP.
    """
    if sing.size == 0:
        raise IllConditioned("empty positive spectrum")
    if sing[-1] <= 0 or (sing[0] / sing[-1]) ** 2 > COND_CAP:
        cond = (sing[0] / max(sing[-1], 1e-300)) ** 2
        raise IllConditioned(
            f"restricted Gram condition {cond:.2e} exceeds cap {COND_CAP:.1e}")
    return V_r @ ((V_r.conj().T @ rhs) / sing[:, None] ** 2)


def compute_threshold(family, delta=None, tau0=None):
    """All threshold objects of the pencil in one pass, in the kernel basis.

    One SVD of the R factor of X0 gives u and the pseudo-inverse of X0*X0;
    Z and Ztilde solve X0*X0 Z = -X0*X1 P and X0*X0 Zt = -Y0*Y2 P on
    Ker(X0)^perp.  The work is O(dim^2 n) past that SVD.
    """
    sing, V_r, u = _x0_svd(family.X0)
    if u.shape[1] == 0:
        raise DegenerateKernel("Ker X0 is trivial")
    # one of X1, Y0, Y2 at a time: a family may build each when it is read.
    # A* b is formed as conj(A^T conj(b)), which copies b and not A: the
    # same products with every sign flipped, so the same bits
    x1u = family.X1 @ u
    z = -_gram_pinv(sing, V_r, (family.X0.T @ x1u.conj()).conj())
    y2u = family.Y2 @ u
    zt = -_gram_pinv(sing, V_r, (family.Y0.T @ y2u.conj()).conj())
    # R = P_* X1 P = (X1 + X0 Z) P, as X0 z = -U_r U_r* X1 u = (P_* - I) X1 u
    r = x1u + family.X0 @ z
    blocks = linalg.herm(np.stack(_kernel_blocks(family, u, z, zt, r)))
    d0 = float(sing[-1] ** 2)

    consts = family.form_constants
    if delta is None:
        kappa = consts.get("kappa", 1.0)
        delta = kappa * d0 / 52.0
    if tau0 is None:
        tau0 = _default_tau0(family, delta)
    cstar = consts.get("cstar_check", 0.0)
    return ThresholdData(u, z, zt, r, blocks[:3], blocks[3:], u.shape[1], d0,
                         delta=float(delta), tau0=float(tau0),
                         cstar_check=float(cstar))


def _default_tau0(family, delta):
    consts = family.form_constants
    c1 = consts.get("c1", 1.0)
    c2 = consts.get("c2", 0.0)
    c3 = consts.get("c3", 0.0)
    C1 = consts.get("C1", 0.0)
    nx1 = np.linalg.norm(family.X1, 2)
    nq0 = np.linalg.norm(family.Q0, 2)
    denom = (2 + c1 ** 2 + c2) * nx1 ** 2 + C1 + c3 + abs(family.lam) * nq0
    return float(np.sqrt(delta / max(denom, 1e-300)))


def _kernel_blocks(family, u, z, zt, r):
    """n x n middles of the germ blocks S, C, D and of the cubic blocks
    N11, N12, N21, N22 (N = t^3 N11 + t^2 e N12 + t e^2 N21 + e^3 N22).

    With P = u u*, Z = z u*, Ztilde = zt u* and R = r u*, each full-space
    block is u (middle) u*.  Each map is read once, for its image of
    [u | z | zt], and dropped before the next.
    """
    def sym(a):
        return a + a.conj().T

    def gram(a, b):
        return a.conj().T @ b

    # images of the n-column factors [u | z | zt] under each map
    n = u.shape[1]
    cols = np.concatenate([u, z, zt], axis=1)

    def split(a):
        return a[:, :n], a[:, n:2 * n], a[:, 2 * n:]

    X1u, X1z, X1zt = split(family.X1 @ cols)
    _, X0z, X0zt = split(family.X0 @ cols)
    _, Y0z, Y0zt = split(family.Y0 @ cols)
    Y1u, Y1z, Y1zt = split(family.Y1 @ cols)
    Y2u, Y2z, Y2zt = split(family.Y2 @ cols)
    qu = (family.Q + family.lam * family.Q0) @ u

    S = gram(X1u, r)                        # P X1* P_* X1 P
    C = -sym(gram(X0z, X0zt)) + sym(gram(Y2u, Y1u))
    D = -gram(X0zt, X0zt) + gram(u, qu)
    N11 = sym(gram(X1z, r))
    N12 = (sym(gram(X1zt, r))
           + sym(gram(X1z, X0zt))
           + sym(gram(Y2z, Y0z))
           + sym(gram(Y2z, Y1u))
           + sym(gram(Y2u, Y1z)))
    N21 = (sym(gram(X0zt, X1zt))
           + sym(gram(Y2z, Y0zt))
           + sym(gram(Y2zt, Y0z))
           + sym(gram(Y2zt, Y1u))
           + sym(gram(Y1zt, Y2u))
           + sym(gram(z, qu)))
    N22 = sym(gram(Y0zt, Y2zt)) + sym(gram(zt, qu))
    return S, C, D, N11, N12, N21, N22


# ---------------------------------------------------------------------------
# germ, L, N, corrector


def kernel_poly(blocks, t, eps):
    """sum_j t^(m-j) eps^j blocks[j] over an (m+1, n, n) stack of middles."""
    j = np.arange(len(blocks))
    return np.tensordot(t ** (len(blocks) - 1 - j) * eps ** j, blocks, axes=1)


def L_operator(th, t, eps):
    """L(t, eps) = t^2 S + t eps C + eps^2 D on the kernel (full-space form)."""
    return th.expand(kernel_poly(th.germ_blocks, t, eps))


def n_operator(th, t, eps):
    """N(t, eps) = t^3 N11 + t^2 eps N12 + t eps^2 N21 + eps^3 N22."""
    return th.expand(kernel_poly(th.n_blocks, t, eps))


def _kernel_flow(th, t, eps):
    """Flow of L(t,eps) in the kernel basis; positivity check."""
    flow = linalg.HermitianFlow(kernel_poly(th.germ_blocks, t, eps))
    linalg.check_floor(flow.w, th.cstar_check, t ** 2 + eps ** 2, NonPositiveL,
                       "L(t,eps)")
    return flow


def kernel_approximation(th, t, eps, s):
    """exp(-L(t,eps) s) P and the corrector K(t,eps,s), from one flow of L.

    K is the oscillating pair plus the closed-form integral.
    """
    u = th.kernel_basis
    uh = u.conj().T
    flow = _kernel_flow(th, t, eps)
    e_ker = flow.expm(s)
    # (t Z + eps Ztilde) exp(-Ls) P = (t z + eps zt) e_ker u*, with e_ker
    # the flow in the kernel basis
    first = (t * th.z + eps * th.zt) @ e_ker @ uh
    integral = flow.integral(kernel_poly(th.n_blocks, t, eps), s)
    return u @ e_ker @ uh, first + first.conj().T - u @ integral @ uh


def remainder_envelopes(cstar_check, tau_sq, s):
    """Reference envelopes e^{-c tau^2 s/2}/s (inf at s = 0) and
    e^{-c tau^2 s/2}/(1+s) of a semigroup remainder."""
    decay = np.exp(-0.5 * cstar_check * tau_sq * s)
    env_pos = decay / s if s > 0 else np.inf
    return env_pos, decay / (1.0 + s)


def exponential_remainder(family, th, t, eps, s):
    """Norm of exp(-Bs) - exp(-Ls)P - K and the two reference envelopes."""
    tau = np.hypot(t, eps)
    if tau > th.tau0 * (1 + 1e-12):
        raise OutsideThresholdBall(f"tau={tau:.3e} exceeds tau0={th.tau0:.3e}")
    e_full, corrector = kernel_approximation(th, t, eps, s)
    rem = linalg.HermitianFlow(family.B(t, eps)).expm(s) - (e_full + corrector)
    nrm = linalg.opnorm(rem)
    env_pos, env_nonneg = remainder_envelopes(th.cstar_check, tau ** 2, s)
    return float(nrm), float(env_pos), float(env_nonneg)


# ---------------------------------------------------------------------------
# threshold projector / order checks


def spectral_projector(family, th, t, eps):
    """Projector of B(t,eps) onto [0, 2*delta]; rank must equal n."""
    return _window_projector(family.B(t, eps), th)


def _window_projector(B, th):
    w, v = np.linalg.eigh(B)
    keep = w <= 2.0 * th.delta
    rank = int(np.sum(keep))
    if rank != th.n:
        raise RankMismatch(
            f"rank F = {rank} != n = {th.n} (delta/tau0 configuration invalid)")
    vv = v[:, keep]
    return vv @ vv.conj().T


def threshold_order_norms(family, th, tau, theta):
    """The four threshold-approximation residual norms at one tau.

    Returns ||F-P||, ||F-P-tau F1||, ||BF - tau^2 S P||, and
    ||BF - tau^2 S P - tau^3 K|| with K = K0 + N, from one B(t,eps) and
    one eigendecomposition of it.
    """
    t, eps = tau * theta[0], tau * theta[1]
    B = family.B(t, eps)
    F = _window_projector(B, th)
    # Z(theta) = (th1 z + th2 zt) u* and F1 = Z(theta) + Z(theta)*
    z_theta = theta[0] * th.z + theta[1] * th.zt
    zu = z_theta @ th.kernel_basis.conj().T
    F1 = zu + zu.conj().T
    S_full = L_operator(th, *theta)     # S(theta) P
    BF = B @ F
    # K0 = Z(theta) S_full + S_full Z(theta)*
    zs = z_theta @ (th.kernel_basis.conj().T @ S_full)
    K0 = zs + zs.conj().T
    N_theta = n_operator(th, *theta)
    return {
        "F_minus_P": float(linalg.opnorm(F - th.P)),
        "F_minus_P_tauF1": float(linalg.opnorm(F - th.P - tau * F1)),
        "BF_minus_SP": float(linalg.opnorm(BF - tau ** 2 * S_full)),
        "BF_minus_SP_K": float(linalg.opnorm(
            BF - tau ** 2 * S_full - tau ** 3 * (K0 + N_theta)))}


def expanded_tau_start(family, th, theta):
    """Largest dyadic multiple of tau0/2 where the rank-n window survives.

    The sampled tau0 is very conservative; order measurements start from the
    largest tau at which the spectral projector still captures exactly n
    eigenvalues below the gap (guarded by the rank check), with one halving
    of safety margin; at most 16 doublings are tried.
    """
    tau = 0.5 * th.tau0
    for _ in range(16):
        cand = 2.0 * tau
        try:
            spectral_projector(family, th, cand * theta[0], cand * theta[1])
        except RankMismatch:
            break
        tau = cand
    return 0.5 * tau


def dyadic_order_sweep(family, th, theta):
    """Residual norms over eight dyadic tau values, starting from the largest
    tau that expanding from tau0 reaches while the rank-n window check
    passes."""
    taus = expanded_tau_start(family, th, theta) * 0.5 ** np.arange(8)
    return [(float(tau), threshold_order_norms(family, th, tau, theta))
            for tau in taus]


# ---------------------------------------------------------------------------
# germ eigen-structure: N0 / N* split and the M-decomposition


def germ_eigendata(th, theta):
    """Eigenpairs (gamma_l, omega_l) of S(theta) and N(theta) in that basis."""
    gam, om = np.linalg.eigh(kernel_poly(th.germ_blocks, *theta))
    N_n = kernel_poly(th.n_blocks, *theta)
    return gam, om, linalg.herm(om.conj().T @ N_n @ om)


def n_star_offdiagonal(th, theta):
    """Off-diagonal (germ-basis) part N_* of P N(theta) P; zero when n = 1."""
    gam, om, N_basis = germ_eigendata(th, theta)
    N_star = N_basis - np.diag(np.diag(N_basis))
    return N_star, gam


def m_decomposition_check(th, tau, theta, s):
    """Closed-form M0 + M* versus adaptive quadrature of the M integral.

    M0 uses the diagonal mu_l of N(theta) in the germ basis; M* uses the
    off-diagonal entries with exponential-difference weights (confluent limit
    on degenerate pairs).  Returns the two matrices, their deviation from a
    1e-11 quadrature and a flag for a germ gap below 1e-8 max(gamma_max, 1).
    """
    from scipy.integrate import quad_vec

    gam, om, N_basis = germ_eigendata(th, theta)
    lam = tau ** 2 * gam
    mu = np.real(np.diag(N_basis))
    m0 = np.diag(mu * s * np.exp(-lam * s))
    n_star = N_basis - np.diag(np.diag(N_basis))
    # the germ basis diagonalizes lam, so the flow of diag(lam) carries M*
    m_star = linalg.HermitianFlow(np.diag(lam)).integral(n_star, s)
    closed = m0 + m_star

    def integrand(st):
        left = np.exp(-lam * (s - st))
        right = np.exp(-lam * st)
        return (left[:, None] * N_basis) * right[None, :]

    quad, _ = quad_vec(integrand, 0.0, s, epsabs=1e-11, epsrel=1e-11)
    dev = float(np.abs(closed - quad).max())
    gaps = np.abs(gam[:, None] - gam[None, :])[np.triu_indices(len(gam), 1)]
    degenerate = bool(gaps.size and gaps.min() < 1e-8 * max(gam.max(), 1.0))
    return {"closed": closed, "quadrature": quad, "deviation": dev,
            "degenerate_pair": degenerate, "M0": m0, "Mstar": m_star}


# ---------------------------------------------------------------------------
# bordered pencil


@dataclass
class BorderedFamily:
    """Pencil B = M* Bhat M together with its hatted reference pencil.

    ``hat`` is the reference family (its Q0 must be the identity), ``M`` the
    isomorphism.  The base family is derived: X = Xhat M, etc., Q0 = M*M.
    """

    hat: AbstractFamily
    M: np.ndarray
    base: AbstractFamily = None

    def __post_init__(self):
        eye = np.eye(self.hat.dim_H)
        if np.abs(self.hat.Q0 - eye).max() > 1e-10:
            raise ValueError("reference pencil must carry Q0 = identity")
        if self.base is None:
            M = self.M
            h = self.hat
            self.base = AbstractFamily(
                X0=h.X0 @ M, X1=h.X1 @ M,
                Y0=h.Y0 @ M, Y1=h.Y1 @ M, Y2=h.Y2 @ M,
                Q=M.conj().T @ h.Q @ M,
                Q0=M.conj().T @ M,
                lam=h.lam,
                form_constants=dict(h.form_constants))

    @property
    def G(self):
        mm = self.M @ self.M.conj().T
        return np.linalg.inv(mm)


def bordered_data(bf):
    """Threshold data of both pencils plus the bordered kernel objects."""
    th = compute_threshold(bf.base)
    th_hat = compute_threshold(bf.hat)
    uh = th_hat.kernel_basis
    G_n = linalg.herm(uh.conj().T @ bf.G @ uh)
    M0_n = linalg.inv_sqrtm_herm(G_n)
    Minv = np.linalg.inv(bf.M)
    # u* M^{-1} uh carries the hatted kernel basis to the base one, so
    # Z M^{-1} Phat = z (u* M^{-1} uh) uh*
    ker_map = th.kernel_basis.conj().T @ Minv @ uh
    ZG = bf.M @ th.z @ ker_map @ uh.conj().T
    ZtG = bf.M @ th.zt @ ker_map @ uh.conj().T
    return {"th": th, "th_hat": th_hat, "G_n": G_n, "M0_n": M0_n,
            "ZG": ZG, "ZtG": ZtG, "Minv": Minv, "ker_map": ker_map}


def bordered_approximation(bf, data, t, eps, s):
    """Bordered principal term M0 exp(-M0 Lhat M0 s) M0 Phat and K_G(t,eps,s),
    both from one flow of M0 Lhat M0 (kernel-space closed forms)."""
    th_hat = data["th_hat"]
    uh = th_hat.kernel_basis
    M0 = data["M0_n"]
    flow = linalg.HermitianFlow(
        M0 @ kernel_poly(th_hat.germ_blocks, t, eps) @ M0, outer=M0)
    E_full = uh @ flow.expm(s) @ uh.conj().T
    ZG_t = t * data["ZG"] + eps * data["ZtG"]
    # N_G = Phat (M*)^{-1} N(t,eps) M^{-1} Phat in the hatted kernel basis
    km = data["ker_map"]
    NG_n = km.conj().T @ kernel_poly(data["th"].n_blocks, t, eps) @ km
    J_full = uh @ flow.integral(NG_n, s) @ uh.conj().T
    return E_full, ZG_t @ E_full + E_full @ ZG_t.conj().T - J_full


def bordered_remainder(bf, t, eps, s, data=None):
    """Norm of M exp(-B s) M* minus bordered principal term minus K_G."""
    if data is None:
        data = bordered_data(bf)
    th = data["th"]
    tau = np.hypot(t, eps)
    if tau > th.tau0 * (1 + 1e-12):
        raise OutsideThresholdBall(f"tau={tau:.3e} exceeds tau0={th.tau0:.3e}")
    B = bf.base.B(t, eps)
    lhs = bf.M @ linalg.HermitianFlow(B).expm(s) @ bf.M.conj().T
    principal, corrector = bordered_approximation(bf, data, t, eps, s)
    nrm = linalg.opnorm(lhs - principal - corrector)
    env_pos, env_nonneg = remainder_envelopes(th.cstar_check, tau ** 2, s)
    return {"remainder_norm": float(nrm), "envelope_s_pos": float(env_pos),
            "envelope_s_nonneg": float(env_nonneg)}


# ---------------------------------------------------------------------------
# random family generator (shared by tests and the abstract-check command)


def estimate_form_constants(family, rng):
    """Sample the defining inequalities (9 values of t, 24 probes each).

    All estimates carry a 1.1 safety inflation.  Returns the dict also
    stored in ``family.form_constants``.
    """
    dim = family.dim_H
    taus = np.linspace(-1.0, 1.0, 9)
    c1_sq = 0.0
    for t in taus:
        xt, yt = family.X(t), family.Y(t)
        gram_x = linalg.herm(xt.conj().T @ xt)
        gram_y = linalg.herm(yt.conj().T @ yt)
        wx, vx = np.linalg.eigh(gram_x)
        # generalized bound ||Yu||^2 <= c1^2 ||Xu||^2 needs Ker X(t) in Ker Y(t);
        # sample the ratio on probes orthogonal to Ker X(t)
        for _ in range(24):
            u = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            u -= vx[:, wx < 1e-12 * max(wx.max(), 1.0)] @ (
                vx[:, wx < 1e-12 * max(wx.max(), 1.0)].conj().T @ u)
            nx = np.real(u.conj() @ gram_x @ u)
            ny = np.real(u.conj() @ gram_y @ u)
            if nx > 1e-14:
                c1_sq = max(c1_sq, ny / nx)
    c1 = float(np.sqrt(c1_sq))

    def c_of_nu(nu):
        worst = 0.0
        for t in taus:
            xt = family.X(t)
            mat = linalg.herm(family.Y2.conj().T @ family.Y2
                              - nu * xt.conj().T @ xt)
            worst = max(worst, float(np.linalg.eigvalsh(mat).max()))
        return max(worst, 0.0)

    C1 = 1.1 * c_of_nu(1.0)
    nq = float(np.linalg.norm(family.Q, 2))
    kappa, c0, c2, c3 = 1.0, 1.1 * nq, 0.0, 1.1 * nq
    nu_star = kappa ** 2 / (16.0 * max(c1 ** 2, 1e-14))
    c4 = 4.0 / kappa * c1 ** 2 * 1.1 * c_of_nu(nu_star)
    q0_inv = float(np.linalg.norm(np.linalg.inv(family.Q0), 2))
    beta = family.lam / q0_inv - c0 - c4 if family.lam >= 0 else \
        family.lam * float(np.linalg.norm(family.Q0, 2)) - c0 - c4

    # lower bound A(t) >= cstar t^2 sampled over small t
    cstar = np.inf
    for t in np.geomspace(1e-3, 1.0, 12):
        wmin = float(np.linalg.eigvalsh(family.A(t)).min())
        cstar = min(cstar, wmin / t ** 2)
    cstar = max(cstar, 0.0) / 1.1
    ccheck = 0.5 * min(kappa * cstar, 2.0 * max(beta, 0.0))
    consts = {"c0": c0, "c1": c1, "c2": c2, "c3": c3, "c4": c4,
              "beta": float(beta), "kappa": kappa, "C1": float(C1),
              "cstar": float(cstar), "cstar_check": float(ccheck)}
    family.form_constants.update(consts)
    return consts


def random_family(rng, dim_H=8, n=2, degenerate_copies=False):
    """Random pencil satisfying the structural conditions.

    Y(t) = C X(t) with a random contraction-scaled C, so the subordination
    condition holds for every t with c1 = ||C||.  With
    ``degenerate_copies=True`` the family is two identical diagonal blocks,
    forcing every germ eigenvalue to be doubly degenerate.
    """
    dim_Hstar, dim_Htilde = dim_H + 2, dim_H

    def cplx(shape, sc=1.0):
        return sc * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))

    X0 = cplx((dim_Hstar, dim_H))
    # carve an exact n-dimensional kernel
    q, _ = np.linalg.qr(cplx((dim_H, n)))
    X0 = X0 @ (np.eye(dim_H) - q @ q.conj().T)
    X1 = cplx((dim_Hstar, dim_H))
    C = cplx((dim_Htilde, dim_Hstar), 0.5)
    Y0, Y1 = C @ X0, C @ X1
    Y2 = cplx((dim_Htilde, dim_H))
    Q = linalg.herm(cplx((dim_H, dim_H)))
    Q0 = np.eye(dim_H) + 0.3 * linalg.herm(cplx((dim_H, dim_H), 0.3))
    w = np.linalg.eigvalsh(Q0)
    if w.min() < 0.2:
        Q0 += (0.2 - w.min()) * np.eye(dim_H)

    fam = AbstractFamily(X0, X1, Y0, Y1, Y2, Q, Q0, lam=0.0)
    if degenerate_copies:
        def blk(a):
            z = np.zeros((2 * a.shape[0], 2 * a.shape[1]), dtype=complex)
            z[:a.shape[0], :a.shape[1]] = a
            z[a.shape[0]:, a.shape[1]:] = a
            return z
        fam = AbstractFamily(blk(X0), blk(X1), blk(Y0), blk(Y1), blk(Y2),
                             blk(Q), blk(Q0), lam=0.0)
    consts = estimate_form_constants(fam, rng)
    q0_inv = float(np.linalg.norm(np.linalg.inv(fam.Q0), 2))
    fam.lam = 1.1 * q0_inv * (consts["c0"] + consts["c4"]) + 0.5
    estimate_form_constants(fam, rng)
    return fam
