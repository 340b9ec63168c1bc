"""Cell problems on the torus, effective matrix, and third-order coefficients.

All solves are spectral Galerkin on the symmetric Fourier mode set, with the
zero mode pinned to enforce zero cell average.  Cell means of coefficient
products are evaluated pointwise on the sampling grid; for band-limited
coefficient fields these quadratures are exact.
"""

from dataclasses import dataclass, field as dfield

import numpy as np
import scipy.linalg

from . import fields as fd
from . import linalg
from .errors import DataError
from .lattice import Lattice


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
        """Symbol b(xi), batched over the leading axes: (..., d) -> (..., m, n)."""
        return np.tensordot(np.asarray(xi, dtype=complex), self.b_symbols,
                            axes=(-1, 0))

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

    def symbol_bounds(self):
        """alpha_0, alpha_1: extreme eigenvalues of b(theta)*b(theta) at 64
        seeded random points of the sphere."""
        th = np.random.default_rng(1234).standard_normal((64, self.d))
        th /= np.linalg.norm(th, axis=-1, keepdims=True)
        bb = self.b_of(th)
        w = np.linalg.eigvalsh(adj(bb) @ bb)
        lo, hi = w[:, 0].min(), w[:, -1].max()
        if self.d == 1:
            bb = self.b_of([1.0])
            w = np.linalg.eigvalsh(bb.conj().T @ bb)
            lo, hi = w[0], w[-1]
        if lo <= 0:
            raise DataError("rank b(theta) < n on the sampled sphere")
        return float(lo), float(hi)

    def validate(self, trunc=None):
        """Structural checks: shapes against the lattice dimension, symbol
        rank, g positivity, Hermiticity, grid size; returns the symbol bounds
        alpha0 and alpha1."""
        d = self.lattice.dimension
        if self.b_symbols.ndim != 3 or self.d != d:
            raise DataError(f"b has shape {self.b_symbols.shape}; a {d}D "
                            f"lattice needs ({d}, m, n)")
        grid = self.grid_shape
        if len(grid) != d or self.g.shape[-2:] != (self.m, self.m):
            raise DataError(f"g has shape {self.g.shape}; b and the {d}D "
                            f"lattice need {d} grid axes and ({self.m}, "
                            f"{self.m}) blocks")
        for name, field, shape in (
                ("f", self.f, (*grid, self.n, self.n)),
                ("a", self.a, (d, *grid, self.n, self.n)),
                ("Qdensity", self.Qdensity, (*grid, self.n, self.n))):
            if field is not None and np.shape(field) != shape:
                raise DataError(f"{name} has shape {np.shape(field)}; b and "
                                f"the {d}D lattice need {shape}")
        a0, a1 = self.symbol_bounds()
        if np.linalg.eigvalsh(self.g).min() <= 0:
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
        return {"alpha0": a0, "alpha1": a1}


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
        + eps^2 (Qbar - W + lam), batched over the leading axes of q."""
        p = self.problem
        q = np.asarray(q, dtype=float)
        bq = p.b_of(q)
        bqh = adj(bq)
        lin = -(bqh @ self.V + adj(self.V) @ bq) \
            + np.tensordot(q, self.abar_sum, axes=(-1, 0))
        zero = self.Qbar - self.W + p.lam * np.eye(p.n)
        return bqh @ self.g0 @ bq + eps * lin + eps ** 2 * zero

    def B0_symbol(self, q, eps):
        """f0 L_hat(q, eps) f0, batched over the leading axes of q."""
        return self.f0 @ self.L_hat_symbol(q, eps) @ self.f0

    B0_symbols = B0_symbol

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


def _mode_index(trunc, grid_shape):
    return tuple(trunc.modes[:, ax] % grid_shape[ax]
                 for ax in range(trunc.dimension))


def coeff_vector(field, trunc):
    """Coefficients of a (grid..., p, q) matrix field at the truncated modes.

    Returns (M, p, q); each column is a coefficient vector w.r.t. the
    orthonormal basis, in the |Omega|^{1/2}-free convention used throughout
    (multiplication-operator columns are plain function Fourier coefficients).
    """
    coeffs = fd.fft_coeffs(field)
    return coeffs[_mode_index(trunc, coeffs.shape[:-2])]


def field_from_coeff_vector(vec, trunc, grid_shape):
    """Inverse of coeff_vector: (M, p, q) coefficients to (grid..., p, q)."""
    out = np.zeros((*grid_shape, *vec.shape[1:]), dtype=complex)
    out[_mode_index(trunc, grid_shape)] = vec
    return fd.field_from_coeffs(out)


def apply_bD(problem, mat_field):
    """b(D) applied column-wise to a (grid..., n, cols) matrix field."""
    axes = tuple(range(problem.d))
    freqs = fd.grid_freqs(mat_field.shape[:-2], problem.lattice)
    return np.fft.ifftn(problem.b_of(freqs) @ np.fft.fftn(mat_field, axes=axes),
                        axes=axes)


def spectral_derivative(field, lattice, axis):
    """D_axis of a matrix field (Cartesian component of the dual frequency)."""
    axes = tuple(range(lattice.dimension))
    freqs = fd.grid_freqs(field.shape[:-2], lattice)[..., axis]
    return np.fft.ifftn(np.fft.fftn(field, axes=axes) * freqs[..., None, None],
                        axes=axes)


def adj(field):
    """Pointwise conjugate transpose of a matrix field."""
    return np.swapaxes(np.asarray(field).conj(), -1, -2)


# ---------------------------------------------------------------------------
# cell solves


def galerkin_matrix(problem, trunc, bd):
    """Exact Galerkin matrix of <g b(D)u, b(D)v> on the truncated space: the
    sandwich bd* [g] bd of the (M, m, n) block stack ``bd`` of b(D)."""
    mat, = fd.sandwich_matrices(problem.g, trunc, [(bd, bd)])
    return linalg.herm(mat)


def solve_zero_mean(A, rhs, trunc, grid):
    """Zero-mean solutions of A x = rhs for (M, n, c) coefficient columns.

    The zero-mode block is removed (zero cell average); returns the
    (grid..., n, c) solution field.  A_red, A without that block, must be
    proven Hermitian positive definite with condition number below
    linalg.COND_CAP (:func:`linalg.certify_condition`, IllConditioned
    otherwise).  A is left unchanged, and its reference here is dropped once
    A_red is taken, so a caller that passes A unnamed frees it then; A_red
    is factored in place.
    """
    n, c = rhs.shape[1:]
    dim = A.shape[0]
    z = trunc.zero_index
    mask = np.ones(dim, dtype=bool)
    mask[z * n:(z + 1) * n] = False
    # gathered through the transpose, so that A_red is the Fortran-ordered
    # view that cho_factor overwrites with no copy
    A_red = A.T[np.ix_(mask, mask)].T
    del A
    # its C-ordered transpose is the conjugate, with the same spectrum
    linalg.certify_condition(A_red.T, "cell Galerkin matrix")
    x = np.zeros((dim, c), dtype=complex)
    x[mask] = scipy.linalg.cho_solve(
        scipy.linalg.cho_factor(A_red, overwrite_a=True),
        rhs.reshape(-1, c)[mask])
    return field_from_coeff_vector(x.reshape(rhs.shape), trunc, grid)


def solve_cell_problems(problem, trunc):
    """Both cell problems plus every effective constant."""
    problem.validate(trunc)
    n, m, d = problem.n, problem.m, problem.d
    grid = problem.grid_shape
    bd = problem.b_of(trunc.freqs(problem.lattice))

    # one solve for both cell problems: b(D)* g b(D) Lambda = -b(D)* g (m
    # columns) and the companion problem driven by the divergence of the a_j*
    rhs = -(adj(bd) @ coeff_vector(problem.g, trunc))
    if problem.a is not None:
        div_a = sum(spectral_derivative(adj(problem.a[j]), problem.lattice, j)
                    for j in range(d))
        rhs = np.concatenate([rhs, -coeff_vector(div_a, trunc)], axis=-1)
    # the Galerkin matrix goes in unnamed: freed once its block is taken
    sol = solve_zero_mean(galerkin_matrix(problem, trunc, bd), rhs, trunc,
                          grid)
    Lambda = sol[..., :m]
    if problem.a is not None:
        LambdaTilde = sol[..., m:]
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
        """N_G(q, eps): Hermitian n x n value of the third-order symbol,
        batched over the leading axes of q."""
        q = np.asarray(q, dtype=float)
        bq = self.problem.b_of(q)
        bqh = adj(bq)

        def lin(coeffs):
            return np.tensordot(q, coeffs, axes=(-1, 0))

        cross = lin(self.M_G1_symbols) @ bq
        tg = bqh @ self.T_G
        mg2 = lin(self.M_G2_symbols)
        t12 = bqh @ self.T_G0 @ bq + cross + adj(cross)
        t21 = mg2 + adj(mg2) + tg + adj(tg) + lin(self.abar_tilde)
        return (bqh @ lin(self.M_G_symbols) @ bq + eps * t12 + eps ** 2 * t21
                + eps ** 3 * self.N22)


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
