"""Cell problems on the torus, effective matrix, and third-order coefficients.

All solves are spectral Galerkin on the symmetric Fourier mode set, with the
zero mode pinned to enforce zero cell average.  Cell means of coefficient
products are evaluated pointwise on the sampling grid; for band-limited
coefficient fields these quadratures are exact.
"""

from dataclasses import dataclass, field as dfield

import numpy as np

from . import fields as fd
from . import linalg
from .errors import DataError, IllConditioned
from .lattice import Lattice

_DENSE_SOLVE_LIMIT = 4096


@dataclass
class PeriodicProblem:
    """Coefficients of one factorized periodic operator.

    ``b_symbols`` has shape (d, m, n); ``g`` is the (*grid, m, m) HPD field;
    ``f`` the (*grid, n, n) field (None means the identity); ``a`` holds the
    d first-order coefficient fields (d, *grid, n, n) or None; ``Qdensity``
    the Hermitian potential density (*grid, n, n) or None.
    """

    lattice: Lattice
    b_symbols: np.ndarray
    g: np.ndarray
    f: np.ndarray = None
    a: np.ndarray = None
    Qdensity: np.ndarray = None
    lam: float = 0.0

    def __post_init__(self):
        self.b_symbols = np.asarray(self.b_symbols, dtype=complex)
        self.g = np.asarray(self.g, dtype=complex)

    @property
    def d(self):
        return self.b_symbols.shape[0]

    @property
    def m(self):
        return self.b_symbols.shape[1]

    @property
    def n(self):
        return self.b_symbols.shape[2]

    @property
    def grid_shape(self):
        return self.g.shape[:-2]

    @property
    def f_is_identity(self):
        return self.f is None

    def b_of(self, xi):
        return np.tensordot(np.asarray(xi, dtype=complex), self.b_symbols, axes=(0, 0))

    def f_field(self):
        if self.f is None:
            return fd.constant_field(self.grid_shape, np.eye(self.n))
        return self.f

    def q_field(self):
        if self.Qdensity is None:
            return fd.constant_field(self.grid_shape, np.zeros((self.n, self.n)))
        return self.Qdensity

    def G_field(self):
        """Weight G = (f f*)^{-1}; identity when f is."""
        f = self.f_field()
        return fd.pointwise_inv(f @ np.swapaxes(f.conj(), -1, -2))

    def symbol_bounds(self, n_theta=64, rng=None):
        """alpha_0, alpha_1: extreme eigenvalues of b(theta)*b(theta) on the sphere."""
        rng = np.random.default_rng(1234) if rng is None else rng
        lo, hi = np.inf, 0.0
        for _ in range(n_theta):
            th = rng.standard_normal(self.d)
            th /= np.linalg.norm(th)
            bb = self.b_of(th)
            w = np.linalg.eigvalsh(bb.conj().T @ bb)
            lo, hi = min(lo, w[0]), max(hi, w[-1])
        if self.d == 1:
            bb = self.b_of([1.0])
            w = np.linalg.eigvalsh(bb.conj().T @ bb)
            lo, hi = w[0], w[-1]
        if lo <= 0:
            raise DataError("rank b(theta) < n on the sampled sphere")
        return float(lo), float(hi)

    def validate(self, trunc=None):
        """Structural checks: symbol rank, g bounds, Hermiticity, grid size."""
        a0, a1 = self.symbol_bounds()
        gw = np.linalg.eigvalsh(self.g)
        if gw.min() <= 0:
            raise DataError("g not positive definite on the grid")
        if self.Qdensity is not None:
            defect = np.abs(self.Qdensity
                            - np.swapaxes(self.Qdensity.conj(), -1, -2)).max()
            if defect > 1e-10 * max(np.abs(self.Qdensity).max(), 1.0):
                raise DataError("Qdensity is not Hermitian")
        if trunc is not None:
            need = 2 * trunc.n_modes + 2
            if min(self.grid_shape) < need:
                raise DataError(
                    f"grid {self.grid_shape} too coarse for n_modes={trunc.n_modes}")
        return {"alpha0": a0, "alpha1": a1,
                "g_min": float(gw.min()), "g_max": float(gw.max())}


@dataclass
class CellSolution:
    """Cell-problem output: correctors, shifted variants, effective constants."""

    problem: PeriodicProblem
    trunc: fd.Truncation
    Lambda: np.ndarray          # (*grid, n, m)
    LambdaTilde: np.ndarray     # (*grid, n, n)
    LambdaG0: np.ndarray        # (n, m) constant shift
    LambdaTildeG0: np.ndarray   # (n, n)
    g_tilde: np.ndarray         # (*grid, m, m)
    g0: np.ndarray              # (m, m)
    V: np.ndarray               # (m, n)
    W: np.ndarray               # (n, n)
    Qbar: np.ndarray            # (n, n)
    abar_sum: np.ndarray        # (d, n, n): cell means of a_j + a_j*
    f0: np.ndarray              # (n, n)
    Gbar: np.ndarray            # (n, n)

    @property
    def LambdaG(self):
        return self.Lambda + self.LambdaG0

    @property
    def LambdaTildeG(self):
        return self.LambdaTilde + self.LambdaTildeG0

    def L_hat_symbol(self, q, eps):
        """Effective symbol b(q)* g0 b(q) - eps(b* V + V* b) + eps sum abar q
        + eps^2 (Qbar - W + lam)."""
        p = self.problem
        bq = p.b_of(q)
        lin = -(bq.conj().T @ self.V + self.V.conj().T @ bq)
        lin = lin + np.tensordot(np.asarray(q, dtype=float), self.abar_sum,
                                 axes=(0, 0))
        zero = self.Qbar - self.W + p.lam * np.eye(p.n)
        return (bq.conj().T @ self.g0 @ bq + eps * lin + eps ** 2 * zero)

    def B0_symbol(self, q, eps):
        """f0 L_hat(q, eps) f0."""
        return self.f0 @ self.L_hat_symbol(q, eps) @ self.f0

    def B0_symbols(self, qs, eps):
        """Vectorized f0 L_hat(q, eps) f0 over a stack of frequencies (G, d)."""
        p = self.problem
        qs = np.asarray(qs, dtype=float)
        bq = np.tensordot(qs, p.b_symbols, axes=(1, 0))      # (G, m, n)
        bqh = np.swapaxes(bq.conj(), -1, -2)
        main = np.einsum("gnm,mk,gkl->gnl", bqh, self.g0, bq)
        lin = -(np.einsum("gnm,ml->gnl", bqh, self.V)
                + np.einsum("nm,gml->gnl", self.V.conj().T, bq))
        lin = lin + np.tensordot(qs, self.abar_sum, axes=(1, 0))
        zero = self.Qbar - self.W + p.lam * np.eye(p.n)
        lhat = main + eps * lin + eps ** 2 * zero
        return np.einsum("pq,gqr,rt->gpt", self.f0, lhat, self.f0)

    def export_dict(self):
        def ri(a):
            a = np.asarray(a)
            return {"re": np.real(a).tolist(), "im": np.imag(a).tolist()}
        return {"g0": ri(self.g0), "V": ri(self.V), "W": ri(self.W),
                "Qbar": ri(self.Qbar), "f0": ri(self.f0),
                "LambdaG0": ri(self.LambdaG0),
                "LambdaTildeG0": ri(self.LambdaTildeG0)}


# ---------------------------------------------------------------------------
# spectral helpers


def coeff_vector(field_col, trunc):
    """Coefficients of a (grid..., p) vector field w.r.t. the orthonormal basis.

    Returns (M, p); includes the |Omega|^{1/2}-free convention used throughout
    (multiplication-operator columns are plain function Fourier coefficients).
    """
    coeffs = fd.fft_coeffs(field_col[..., None])[..., 0]
    modes = trunc.modes
    grid = coeffs.shape[:-1]
    idx = tuple(modes[:, ax] % grid[ax] for ax in range(trunc.dimension))
    return coeffs[idx]


def field_from_coeff_vector(vec, trunc, grid_shape):
    """Inverse of coeff_vector: (M, p) coefficients to (grid..., p) samples."""
    p = vec.shape[1]
    out = np.zeros((*grid_shape, p), dtype=complex)
    modes = trunc.modes
    idx = tuple(modes[:, ax] % grid_shape[ax] for ax in range(trunc.dimension))
    out[idx] = vec
    return fd.field_from_coeffs(out[..., None])[..., 0]


def apply_bD(problem, mat_field, k=None):
    """b(D+k) applied column-wise to an (grid..., n, cols) matrix field."""
    lat = problem.lattice
    grid = mat_field.shape[:-2]
    cols = mat_field.shape[-1]
    d = lat.dimension
    fhat = np.fft.fftn(mat_field, axes=tuple(range(d)))
    idx = np.meshgrid(*[np.fft.fftfreq(g, 1.0 / g).astype(int) for g in grid],
                      indexing="ij")
    midx = np.stack(idx, axis=-1)
    freqs = midx @ lat.dual_basis
    if k is not None:
        freqs = freqs + np.asarray(k, dtype=float)
    sym = np.tensordot(freqs, problem.b_symbols, axes=(-1, 0))  # (grid..., m, n)
    out = np.einsum("...mn,...nc->...mc", sym, fhat)
    return np.fft.ifftn(out, axes=tuple(range(d)))


def spectral_derivative(field, lattice, axis):
    """D_axis of a matrix field (Cartesian component of the dual frequency)."""
    grid = field.shape[:-2]
    d = lattice.dimension
    fhat = np.fft.fftn(field, axes=tuple(range(d)))
    idx = np.meshgrid(*[np.fft.fftfreq(g, 1.0 / g).astype(int) for g in grid],
                      indexing="ij")
    midx = np.stack(idx, axis=-1)
    freqs = midx @ lattice.dual_basis
    out = fhat * freqs[..., axis][..., None, None]
    return np.fft.ifftn(out, axes=tuple(range(d)))


def adj(field):
    """Pointwise conjugate transpose of a matrix field."""
    return np.swapaxes(np.asarray(field).conj(), -1, -2)


# ---------------------------------------------------------------------------
# cell solves


def galerkin_matrix(problem, trunc, k=None):
    """Exact Galerkin matrix of <g b(D+k)u, b(D+k)v> on the truncated space."""
    bd = fd.symbol_blockdiag(
        lambda q: problem.b_of(q), trunc, problem.lattice, k)
    gm = fd.mult_matrix(problem.g, trunc)
    return linalg.herm(bd.conj().T @ gm @ bd), bd


def _solve_zero_mean(A, rhs, trunc, n, cond_cap=1e12):
    """Solve A x = rhs with the zero-mode block removed (zero cell average)."""
    z = trunc.zero_index
    mask = np.ones(A.shape[0], dtype=bool)
    mask[z * n:(z + 1) * n] = False
    A_red = A[np.ix_(mask, mask)]
    w = np.linalg.eigvalsh(A_red)
    if w[0] <= 0 or w[-1] / w[0] > cond_cap:
        raise IllConditioned(
            f"cell Galerkin matrix condition {w[-1] / max(w[0], 1e-300):.2e}")
    x = np.zeros((A.shape[0], rhs.shape[1]), dtype=complex)
    x[mask] = np.linalg.solve(A_red, rhs[mask])
    return x


def solve_cell_problems(problem, trunc, cond_cap=1e12):
    """Both cell problems plus every effective constant."""
    problem.validate(trunc)
    n, m, d = problem.n, problem.m, problem.d
    grid = problem.grid_shape
    A, bd = galerkin_matrix(problem, trunc)

    # principal cell problem: one solve per column of the m x m identity
    rhs_cols = []
    for c in range(m):
        gcol = problem.g[..., :, c]                       # (grid..., m)
        vec = coeff_vector(gcol, trunc).reshape(-1)       # (M*m,)
        rhs_cols.append(-(bd.conj().T @ vec))
    rhs = np.stack(rhs_cols, axis=1)
    lam_vec = _solve_zero_mean(A, rhs, trunc, n, cond_cap)
    Lambda = np.stack(
        [field_from_coeff_vector(lam_vec[:, c].reshape(trunc.size, n), trunc, grid)
         for c in range(m)], axis=-1)                      # (grid..., n, m)

    # companion problem driven by the divergence of the a_j fields
    if problem.a is not None:
        div_a = sum(spectral_derivative(adj(problem.a[j]), problem.lattice, j)
                    for j in range(d))
        rhs_t = np.stack(
            [-coeff_vector(div_a[..., :, c], trunc).reshape(-1) for c in range(n)],
            axis=1)
        lamt_vec = _solve_zero_mean(A, rhs_t, trunc, n, cond_cap)
        LambdaTilde = np.stack(
            [field_from_coeff_vector(lamt_vec[:, c].reshape(trunc.size, n),
                                     trunc, grid) for c in range(n)], axis=-1)
    else:
        LambdaTilde = np.zeros((*grid, n, n), dtype=complex)

    bdl = apply_bD(problem, Lambda)
    eye_m = np.eye(m, dtype=complex)
    g_tilde = problem.g @ (bdl + eye_m)
    g0 = fd.mean_field(g_tilde)
    bdlt = apply_bD(problem, LambdaTilde)
    V = fd.mean_field(adj(bdl) @ problem.g @ bdlt)
    W = linalg.herm(fd.mean_field(adj(bdlt) @ problem.g @ bdlt))
    Qbar = linalg.herm(fd.mean_field(problem.q_field()))
    if problem.a is not None:
        abar = np.stack([fd.mean_field(problem.a[j] + adj(problem.a[j]))
                         for j in range(d)])
    else:
        abar = np.zeros((d, n, n), dtype=complex)

    Gf = problem.G_field()
    Gbar = linalg.herm(fd.mean_field(Gf))
    Gbar_inv = np.linalg.inv(Gbar)
    LambdaG0 = -Gbar_inv @ fd.mean_field(Gf @ Lambda)
    LambdaTildeG0 = -Gbar_inv @ fd.mean_field(Gf @ LambdaTilde)
    f0 = linalg.inv_sqrtm_herm(Gbar)
    return CellSolution(problem, trunc, Lambda, LambdaTilde,
                        LambdaG0, LambdaTildeG0, g_tilde, linalg.herm(g0),
                        V, W, Qbar, abar, f0, Gbar)


def voigt_reuss(problem):
    """Arithmetic and harmonic cell means of g."""
    g_up = linalg.herm(fd.mean_field(problem.g))
    g_low = np.linalg.inv(linalg.herm(fd.mean_field(fd.pointwise_inv(problem.g))))
    return linalg.herm(g_low), g_up


# ---------------------------------------------------------------------------
# third-order coefficient matrices


@dataclass
class NGCoefficients:
    """Constant matrices of the third-order correction symbol.

    The symbol is cubic-in-frequency with eps-graded blocks; evaluated through
    :meth:`symbol`.
    """

    problem: PeriodicProblem
    M_G_symbols: np.ndarray      # (d, m, m): M_G(k) = sum k_l M_G_symbols[l]
    T_G0: np.ndarray             # (m, m)
    M_G1_symbols: np.ndarray     # (d, n, m)
    M_G2_symbols: np.ndarray     # (d, n, n)
    T_G: np.ndarray              # (m, n)
    T_G_tilde: np.ndarray        # (n, n)
    N22: np.ndarray              # (n, n)
    abar_tilde: np.ndarray = dfield(default=None)  # (d, n, n) Hermitian parts

    def symbol(self, q, eps):
        """N_G(q, eps): Hermitian n x n value of the third-order symbol."""
        q = np.asarray(q, dtype=float)
        p = self.problem
        bq = p.b_of(q)
        MG = np.tensordot(q, self.M_G_symbols, axes=(0, 0))
        MG1 = np.tensordot(q, self.M_G1_symbols, axes=(0, 0))
        MG2 = np.tensordot(q, self.M_G2_symbols, axes=(0, 0))
        lin21 = np.tensordot(q, self.abar_tilde, axes=(0, 0))
        out = bq.conj().T @ MG @ bq
        t12 = bq.conj().T @ self.T_G0 @ bq + MG1 @ bq + (MG1 @ bq).conj().T
        t21 = MG2 + MG2.conj().T + bq.conj().T @ self.T_G \
            + (bq.conj().T @ self.T_G).conj().T + lin21
        return out + eps * t12 + eps ** 2 * t21 + eps ** 3 * self.N22

    def symbols(self, qs, eps):
        """Vectorized symbol over a stack of frequencies (G, d)."""
        p = self.problem
        qs = np.asarray(qs, dtype=float)
        bq = np.tensordot(qs, p.b_symbols, axes=(1, 0))
        bqh = np.swapaxes(bq.conj(), -1, -2)
        MG = np.tensordot(qs, self.M_G_symbols, axes=(1, 0))
        MG1 = np.tensordot(qs, self.M_G1_symbols, axes=(1, 0))
        MG2 = np.tensordot(qs, self.M_G2_symbols, axes=(1, 0))
        lin21 = np.tensordot(qs, self.abar_tilde, axes=(1, 0))
        out = np.einsum("gnm,gmk,gkl->gnl", bqh, MG, bq)
        cross = np.einsum("gnm,gml->gnl", MG1, bq)
        t12 = np.einsum("gnm,mk,gkl->gnl", bqh, self.T_G0, bq) \
            + cross + np.swapaxes(cross.conj(), -1, -2)
        tg = np.einsum("gnm,ml->gnl", bqh, self.T_G)
        t21 = MG2 + np.swapaxes(MG2.conj(), -1, -2) \
            + tg + np.swapaxes(tg.conj(), -1, -2) + lin21
        return out + eps * t12 + eps ** 2 * t21 + eps ** 3 * self.N22


def ng_coefficients(problem, cell):
    """Assemble every constant matrix of the third-order symbol from cell means."""
    n, m, d = problem.n, problem.m, problem.d
    LG = cell.LambdaG
    LGt = cell.LambdaTildeG
    gt = cell.g_tilde
    g = problem.g
    lat = problem.lattice
    bdlt = apply_bD(problem, cell.LambdaTilde)    # = b(D) LambdaTilde_G
    q_field = problem.q_field()

    def a_j(j):
        return problem.a[j] if problem.a is not None else None

    bl = problem.b_symbols
    MG = np.zeros((d, m, m), dtype=complex)
    MG1 = np.zeros((d, n, m), dtype=complex)
    MG2 = np.zeros((d, n, n), dtype=complex)
    abar_t = np.zeros((d, n, n), dtype=complex)
    for l in range(d):
        blH = bl[l].conj().T
        MG[l] = fd.mean_field(adj(LG) @ blH @ gt) + fd.mean_field(adj(gt) @ bl[l] @ LG)
        MG1[l] = (fd.mean_field(adj(LGt) @ blH @ gt)
                  + fd.mean_field(adj(bdlt) @ g @ bl[l] @ LG))
        MG2[l] = fd.mean_field(adj(bdlt) @ g @ bl[l] @ LGt)
        if problem.a is not None:
            asym = a_j(l) + adj(a_j(l))
            MG1[l] = MG1[l] + fd.mean_field(asym @ LG)
            t = fd.mean_field(asym @ LGt)
            abar_t[l] = t + t.conj().T

    TG0 = np.zeros((m, m), dtype=complex)
    TG = fd.mean_field(adj(LG) @ q_field) + problem.lam * fd.mean_field(adj(LG))
    TGt = fd.mean_field(adj(LGt) @ q_field) + problem.lam * fd.mean_field(adj(LGt))
    if problem.a is not None:
        for j in range(d):
            djLG = spectral_derivative(LG, lat, j)
            djLGt = spectral_derivative(LGt, lat, j)
            t0 = fd.mean_field(adj(LG) @ a_j(j) @ djLG)
            TG0 = TG0 + t0 + t0.conj().T
            TG = TG + fd.mean_field(adj(LG) @ a_j(j) @ djLGt) \
                + fd.mean_field(adj(djLG) @ adj(a_j(j)) @ LGt)
            TGt = TGt + fd.mean_field(adj(LGt) @ a_j(j) @ djLGt)
    N22 = TGt + TGt.conj().T
    return NGCoefficients(problem, MG, TG0, MG1, MG2, TG, TGt,
                          linalg.herm(N22), abar_t)
