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
import scipy.linalg
from scipy.linalg import lapack
from scipy.sparse.linalg import LinearOperator, eigsh

from . import linalg
from .errors import (DegenerateKernel, IllConditioned, NonPositiveL,
                     OutsideThresholdBall, RankMismatch)

KERNEL_RTOL = 1e-10


# ---------------------------------------------------------------------------
# family and derived data


@dataclass
class AbstractFamily:
    """Maps of one pencil instance; spaces are plain C^dim arrays.

    X0, X1: maps H -> H*; Y0, Y1, Y2: maps H -> Htilde; Q Hermitian, Q0
    Hermitian positive definite on H.  ``lam`` is the zero-order shift and
    ``form_constants`` carries the sampled constants (c0..c4, beta, kappa,
    c1, C1, cstar) used for envelopes and regime checks.  A map may be a
    dense array or any operator with ``shape``, ``map @ C`` and ``map.T @
    V`` on blocks of columns and ``np.asarray`` (a factored
    ``fibers.GridMap``); Q and Q0 may likewise be operators with ``shape``,
    ``@`` and ``np.asarray`` (``fibers.GridForm``, ``fibers.IdentityMap``).
    The threshold engine applies maps to columns only, and X, Y, A and B
    read them through ``np.asarray``.
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
        return np.asarray(self.X0) + t * np.asarray(self.X1)

    def Y(self, t):
        return np.asarray(self.Y0) + t * np.asarray(self.Y1)

    def A(self, t):
        xt = self.X(t)
        return xt.conj().T @ xt

    def B(self, t, eps):
        xt = self.X(t)
        yt = self.Y(t)
        cross = np.asarray(self.Y2).conj().T @ yt
        mat = (xt.conj().T @ xt
               + eps * (cross + cross.conj().T)
               + eps ** 2 * (np.asarray(self.Q)
                             + self.lam * np.asarray(self.Q0)))
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
    # smallest nonzero eigenvalue sigma_r^2 of X0*X0: Lanczos on (L*L)^-1
    # of x0_decomposition to machine precision, svdvals(L) at r <= 2
    d0: float
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


def _gram_solve(lead, rhs):
    """(L*L)^-1 rhs by two triangular solves on the upper triangle of
    ``lead``, read in place."""
    half = scipy.linalg.solve_triangular(lead, rhs, trans="C",
                                         check_finite=False)
    return scipy.linalg.solve_triangular(lead, half, check_finite=False)


@dataclass
class KernelSplit:
    """Complete orthogonal decomposition of X0 (Golub & Van Loan, Matrix
    Computations, 5.4.2): X0 = Q R, R Pi = Q2 T by pivoted QR, and the r
    leading rows of T are [L 0] Z with L upper triangular and Z unitary.

    Only the ztzrzf output (L in the upper triangle of its first r columns,
    Z's reflectors to their right), their scalar factors and the pivots are
    kept; Q, Q2 and T are dropped.
    """

    rz: np.ndarray              # (r, m) ztzrzf output
    tau: np.ndarray             # (r,) scalar factors of Z's reflectors
    piv: np.ndarray             # (m,) column pivots: R[:, piv] = Q2 T
    kernel_basis: np.ndarray    # (m, n) u = Pi Z* [0; I]
    d0: float                   # sigma_r^2, 0.0 when r = 0

    @property
    def rank(self):
        return self.rz.shape[0]

    def gram_pinv(self, rhs):
        """(X0*X0)^+ rhs = Pi Z* [(L*L)^-1 (Z Pi* rhs)[:r]; 0] for (m, c)
        columns ``rhs``."""
        r = self.rank
        y = lapack.zunmrz(self.rz, self.tau, np.asfortranarray(rhs[self.piv]),
                          overwrite_c=True)[0]
        y[:r] = _gram_solve(self.rz[:, :r], y[:r])
        y[r:] = 0.0
        out = np.empty_like(y)
        out[self.piv] = lapack.zunmrz(self.rz, self.tau, y, trans="C",
                                      overwrite_c=True)[0]
        return out


def x0_decomposition(X0):
    """Certified :class:`KernelSplit` of X0, with u spanning Ker X0.

    X0 is read densely once, into one Fortran-ordered copy (a map that is
    not an array builds it fresh in ``np.asarray``), which zgeqrf
    overwrites with its QR; only the upper triangle R is kept.  The kernel
    certificate applies X0 itself to u, so a factored map is never dense
    outside the QR.
    The rank r is the leading run of |T_jj| above the rank tolerance
    KERNEL_RTOL * max(|T_00|, 1).  Pivoted QR can misjudge it (Kahan's
    matrices), so both directions carry a certificate, and a failed one
    raises:
    - cap: linalg.certify_condition proves the condition (sigma_1/sigma_r)^2
      of the restricted Gram matrix L*L (one ztrmm) below linalg.COND_CAP,
      so L keeps no near-null direction; IllConditioned otherwise, and on a
      non-finite entry of X0;
    - kernel: ||X0 u||_2, from the n x n Gram of X0 u, is at most the rank
      tolerance, so u spans no direction that X0 does not annihilate;
      DegenerateKernel otherwise.
    d0 = sigma_r^2 comes from Lanczos on (L*L)^-1 (svdvals(L) at r <= 2,
    where ARPACK cannot run).  r = 0 is returned uncertified, with u = I,
    for the caller to refuse.
    """
    qr = np.array(X0, dtype=complex, order="F")
    rows, m = qr.shape
    lwork = int(lapack.zgeqrf_lwork(rows, m)[0].real)
    qr = lapack.zgeqrf(qr, lwork=lwork, overwrite_a=True)[0]
    # triu of R as the transpose of a C-ordered tril: Fortran-ordered, so
    # that the pivoted QR overwrites it in place
    R = np.tril(qr[:min(rows, m)].T).T
    del qr
    if not np.isfinite(R).all():
        raise IllConditioned("X0 has a non-finite entry")
    T, piv = scipy.linalg.qr(R, mode="r", pivoting=True, overwrite_a=True,
                             check_finite=False)
    del R
    diag = np.abs(np.diag(T))
    tol = KERNEL_RTOL * max(diag[0], 1.0)
    r = int(np.sum(np.minimum.accumulate(diag) > tol))
    if r == 0:
        return KernelSplit(np.zeros((0, m), dtype=complex),
                           np.zeros(0, dtype=complex), piv,
                           np.eye(m, dtype=complex), 0.0)
    rz, tau = lapack.ztzrzf(np.asfortranarray(T[:r]), overwrite_a=True)[:2]
    del T
    lift = np.zeros((m, m - r), dtype=complex, order="F")
    lift[r:] = np.eye(m - r)
    u = np.empty((m, m - r), dtype=complex)
    u[piv] = lapack.zunmrz(rz, tau, lift, trans="C", overwrite_c=True)[0]
    # T is upper triangular and ztzrzf leaves its zero lower triangle, so
    # the first r columns of rz are L, and ztrmm forms L*L from its upper
    # triangle
    lead = rz[:, :r]
    gram = scipy.linalg.blas.ztrmm(1.0, lead, lead, side=0, lower=0,
                                   trans_a=2)
    # the transpose of the Fortran-ordered gram is C-ordered, with the same
    # spectrum
    linalg.certify_condition(gram.T, "restricted Gram matrix of X0")
    image = X0 @ u
    gram = image.conj().T @ image
    residual = float(np.sqrt(linalg.herm_norm(gram))) if gram.size else 0.0
    if not residual <= tol:
        raise DegenerateKernel(f"||X0 u|| = {residual:.2e} exceeds the rank "
                               f"tolerance {tol:.2e}")
    return KernelSplit(rz, tau, piv, u, _smallest_squared_singular(lead))


def _smallest_squared_singular(lead):
    """sigma_r^2 of the upper triangle L of ``lead``: 1 / lambda_max of
    (L*L)^-1 by Lanczos (ARPACK from a fixed start, to machine precision),
    two triangular solves a step; ARPACK needs r >= 3, so r <= 2 takes
    svdvals(L)."""
    r = lead.shape[0]
    if r <= 2:
        return float(scipy.linalg.svdvals(np.triu(lead))[-1] ** 2)
    op = LinearOperator((r, r), matvec=lambda x: _gram_solve(lead, x),
                        dtype=complex)
    start = np.random.default_rng(0).standard_normal(r).astype(complex)
    top = eigsh(op, k=1, v0=start, tol=0, return_eigenvectors=False)
    return float(1.0 / top[0])


def compute_threshold(family, delta=None, tau0=None):
    """All threshold objects of the pencil in one pass, in the kernel basis.

    One certified complete orthogonal decomposition of X0
    (:func:`x0_decomposition`) gives u and the pseudo-inverse of X0*X0; Z
    and Ztilde solve X0*X0 Z = -X0*X1 P and X0*X0 Zt = -Y0*Y2 P on
    Ker(X0)^perp.  The work is O(dim^2 n) past that decomposition.
    Raises DegenerateKernel when Ker X0 is trivial and IllConditioned when
    X0 has no positive singular value.
    """
    split = x0_decomposition(family.X0)
    u = split.kernel_basis
    if u.shape[1] == 0:
        raise DegenerateKernel("Ker X0 is trivial")
    if split.rank == 0:
        raise IllConditioned("empty positive spectrum")
    # maps are only applied to n or 3n columns, so a factored map is never
    # dense here.  A* b is formed as conj(A^T conj(b)), which copies b and
    # not A: the same products with every sign flipped, so the same bits
    x1u = family.X1 @ u
    z = -split.gram_pinv((family.X0.T @ x1u.conj()).conj())
    y2u = family.Y2 @ u
    zt = -split.gram_pinv((family.Y0.T @ y2u.conj()).conj())
    d0 = split.d0
    # its r x m factor is dropped before the kernel blocks
    del split
    # R = P_* X1 P = (X1 + X0 Z) P, as X0 z = -U_r U_r* X1 u = (P_* - I) X1 u
    r = x1u + family.X0 @ z
    blocks = linalg.herm(np.stack(_kernel_blocks(family, u, z, zt, r)))

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
    nq0 = np.linalg.norm(np.asarray(family.Q0), 2)
    denom = (2 + c1 ** 2 + c2) * nx1 ** 2 + C1 + c3 + abs(family.lam) * nq0
    return float(np.sqrt(delta / max(denom, 1e-300)))


def _kernel_blocks(family, u, z, zt, r):
    """n x n middles of the germ blocks S, C, D and of the cubic blocks
    N11, N12, N21, N22 (N = t^3 N11 + t^2 e N12 + t e^2 N21 + e^3 N22).

    With P = u u*, Z = z u*, Ztilde = zt u* and R = r u*, each full-space
    block is u (middle) u*.  Each map is applied once, to [u | z | zt].
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
    qu = family.Q @ u + family.lam * (family.Q0 @ u)

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


def approximation_factors(flow, s, first_order, third_order):
    """Factors (e, first, J) of the threshold approximation, batched over the
    flow's leading axes: e = flow.expm(s), first = first_order @ e and the
    closed-form integral J = flow.integral(third_order, s); only e when
    ``first_order`` is None."""
    e = flow.expm(s)
    if first_order is None:
        return e, None, None
    return e, first_order @ e, flow.integral(third_order, s)


def expand_approximation(u, e, first, J):
    """Full-space principal term u e u* and corrector first u* + u first* -
    u J u* of :func:`approximation_factors` on the (D, n) basis ``u``; the
    corrector is None when ``first`` is."""
    uh = u.conj().T
    principal = u @ e @ uh
    if first is None:
        return principal, None
    fu = first @ uh
    return principal, fu + fu.conj().T - u @ J @ uh


def kernel_approximation(th, t, eps, s):
    """exp(-L(t,eps) s) P and K(t,eps,s) = (t Z + eps Ztilde) exp(-Ls) P +
    h.c. - J, from one flow of L held to its floor (NonPositiveL)."""
    flow = linalg.HermitianFlow(kernel_poly(th.germ_blocks, t, eps))
    linalg.check_floor(flow.w, th.cstar_check, t ** 2 + eps ** 2, NonPositiveL,
                       "L(t,eps)")
    return expand_approximation(th.kernel_basis, *approximation_factors(
        flow, s, t * th.z + eps * th.zt, kernel_poly(th.n_blocks, t, eps)))


def remainder_envelopes(cstar_check, tau_sq, s):
    """Reference envelopes e^{-c tau^2 s/2}/s (inf at s = 0) and
    e^{-c tau^2 s/2}/(1+s) of a semigroup remainder."""
    decay = np.exp(-0.5 * cstar_check * tau_sq * s)
    env_pos = decay / s if s > 0 else np.inf
    return env_pos, decay / (1.0 + s)


def _dense_remainder(th, family, outer, t, eps, s, approximate, *lead):
    """Norm of outer exp(-B(t,eps) s) outer* - (principal + corrector), B the
    pencil of ``family`` and the pair ``approximate(*lead, t, eps, s)``, and
    the two reference envelopes; OutsideThresholdBall past th.tau0."""
    tau = np.hypot(t, eps)
    if tau > th.tau0 * (1 + 1e-12):
        raise OutsideThresholdBall(f"tau={tau:.3e} exceeds tau0={th.tau0:.3e}")
    principal, corrector = approximate(*lead, t, eps, s)
    exact = linalg.HermitianFlow(family.B(t, eps)).expm(s)
    if outer is not None:
        exact = outer @ exact @ outer.conj().T
    nrm = linalg.herm_norm(exact - (principal + corrector))
    env_pos, env_nonneg = remainder_envelopes(th.cstar_check, tau ** 2, s)
    return float(nrm), float(env_pos), float(env_nonneg)


def exponential_remainder(family, th, t, eps, s):
    """Norm of exp(-Bs) - exp(-Ls)P - K and the two reference envelopes."""
    return _dense_remainder(th, family, None, t, eps, s, kernel_approximation,
                            th)


# ---------------------------------------------------------------------------
# threshold projector / order checks


def spectral_projector(family, th, t, eps):
    """Projector of B(t,eps) onto [0, 2*delta]; rank must equal n."""
    vv = _window_pairs(family.B(t, eps), th)[1]
    return vv @ vv.conj().T


def _window_pairs(B, th):
    """The n eigenpairs (w, v) of B in [0, 2*delta]; RankMismatch else."""
    w, v = np.linalg.eigh(B)
    keep = w <= 2.0 * th.delta
    rank = int(np.sum(keep))
    if rank != th.n:
        raise RankMismatch(
            f"rank F = {rank} != n = {th.n} (delta/tau0 configuration invalid)")
    return w[keep], v[:, keep]


def threshold_order_norms(family, th, tau, theta):
    """The four threshold-approximation residual norms at one tau.

    Returns ||F-P||, ||F-P-tau F1||, ||BF - tau^2 S P||, and
    ||BF - tau^2 S P - tau^3 K|| with K = K0 + N, from one B(t,eps) and
    one eigendecomposition of it; BF = v diag(w) v* on the window pairs, as
    B @ F rounds at u ||B||, a floor above the order-tau^4 residual.
    """
    t, eps = tau * theta[0], tau * theta[1]
    w, v = _window_pairs(family.B(t, eps), th)
    vh = v.conj().T
    F = v @ vh
    BF = (v * w) @ vh
    # Z(theta) = (th1 z + th2 zt) u* and F1 = Z(theta) + Z(theta)*
    z_theta = theta[0] * th.z + theta[1] * th.zt
    zu = z_theta @ th.kernel_basis.conj().T
    F1 = zu + zu.conj().T
    S_full = L_operator(th, *theta)     # S(theta) P
    # K0 = Z(theta) S_full + S_full Z(theta)*
    zs = z_theta @ (th.kernel_basis.conj().T @ S_full)
    K0 = zs + zs.conj().T
    N_theta = n_operator(th, *theta)
    return {
        "F_minus_P": float(linalg.herm_norm(F - th.P)),
        "F_minus_P_tauF1": float(linalg.herm_norm(F - th.P - tau * F1)),
        "BF_minus_SP": float(linalg.herm_norm(BF - tau ** 2 * S_full)),
        "BF_minus_SP_K": float(linalg.herm_norm(
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
        if np.abs(np.asarray(self.hat.Q0) - eye).max() > 1e-10:
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
    # Z_G = M Z M^{-1} Phat = zg uh* with zg = M z (u* M^{-1} uh); same for
    # Ztilde_G
    ker_map = th.kernel_basis.conj().T @ Minv @ uh
    return {"th": th, "th_hat": th_hat, "G_n": G_n, "M0_n": M0_n,
            "zg": bf.M @ th.z @ ker_map, "ztg": bf.M @ th.zt @ ker_map,
            "Minv": Minv, "ker_map": ker_map}


def bordered_approximation(bf, data, t, eps, s):
    """Bordered principal term M0 exp(-M0 Lhat M0 s) M0 Phat and K_G(t,eps,s),
    both from one flow of M0 Lhat M0 (kernel-space closed forms)."""
    th_hat = data["th_hat"]
    M0 = data["M0_n"]
    flow = linalg.HermitianFlow(
        M0 @ kernel_poly(th_hat.germ_blocks, t, eps) @ M0, outer=M0)
    # N_G = Phat (M*)^{-1} N(t,eps) M^{-1} Phat in the hatted kernel basis
    km = data["ker_map"]
    return expand_approximation(th_hat.kernel_basis, *approximation_factors(
        flow, s, t * data["zg"] + eps * data["ztg"],
        km.conj().T @ kernel_poly(data["th"].n_blocks, t, eps) @ km))


def bordered_remainder(bf, t, eps, s, data=None):
    """Norm of M exp(-B s) M* minus bordered principal term minus K_G."""
    if data is None:
        data = bordered_data(bf)
    nrm, env_pos, env_nonneg = _dense_remainder(
        data["th"], bf.base, bf.M, t, eps, s, bordered_approximation, bf, data)
    return {"remainder_norm": nrm, "envelope_s_pos": env_pos,
            "envelope_s_nonneg": env_nonneg}


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
