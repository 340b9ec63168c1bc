"""Fiber operators at fixed quasimomentum, their correctors and remainders.

The truncated Fourier space carries the operator pencil

    B(k, eps) = X(k)*X(k) + eps (Y2*Y(k) + Y(k)*Y2) + eps^2 (Q-form + lam f*f)

with X(k) = h b(D+k) f, Y(k) = (D+k) f.  Assembly is the alias-free Galerkin
form matrix (symbol sandwiches of band-limited coefficients), so the
fiber matrix is exactly the compression of the pencil to the truncated space.

The module also instantiates the abstract threshold engine on the f=identity
("hatted") fibers, mapping the truncated space into the weighted quadrature
grid so that X(t)*X(t) reproduces the Galerkin matrices exactly; this is what
makes the abstract-vs-explicit identities hold to solver precision.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import fields as fd
from . import linalg
from .abstract import (AbstractFamily, approximation_factors,
                       compute_threshold, expand_approximation, kernel_poly,
                       remainder_envelope)
from .cell import adj, coeff_vector, ng_coefficients, solve_cell_problems
from .errors import MismatchBeyondTolerance, NonPositiveEffective, PositivityViolation
from .linalg import spectrum_above


# ---------------------------------------------------------------------------
# sampled problem constants


@dataclass
class ProblemConstants:
    """Sampled constants controlling the threshold regime of one problem:
    the floor constant c*-check of the fiber and effective spectra, and the
    threshold radii delta and tau0."""

    cstar_check: float
    delta: float
    tau0: float


def estimate_constants(problem):
    """Sample the form constants and the threshold radii for a problem.

    Estimates are inflated by a 1.1 safety factor where they enter as upper
    bounds.  When the combination beta comes out non-positive the spectral
    lower-bound constant falls back to zero; the directly measured fiber
    eigenvalues stay authoritative for envelope checks.
    """
    v = problem.validate()
    a0, a1 = v["alpha0"], v["alpha1"]
    g_inv_norm = float(np.linalg.norm(fd.pointwise_inv(problem.g), ord=2,
                                      axis=(-2, -1)).max())
    g_norm = float(np.linalg.norm(problem.g, ord=2, axis=(-2, -1)).max())
    f = problem.f_field()
    nf = float(np.linalg.norm(f, ord=2, axis=(-2, -1)).max())
    nfi = float(np.linalg.norm(fd.pointwise_inv(f), ord=2, axis=(-2, -1)).max())
    q = problem.q_field()
    qw = np.linalg.eigvalsh(q)
    q_norm = float(np.abs(qw).max()) if qw.size else 0.0
    q_neg = float(max(0.0, -qw.min())) if qw.size else 0.0

    kappa = 1.0                          # bounded potential: no gradient part
    c0 = 1.1 * q_neg * nf ** 2
    c1 = a0 ** -0.5 * g_inv_norm ** 0.5
    c2 = 1.1 * a0 ** -1 * g_inv_norm     # tilde-c2 = 1 for density potentials
    c3 = 1.1 * q_norm * nf ** 2
    if problem.a is not None:
        stack = sum(problem.a[j] @ adj(problem.a[j]) for j in range(problem.d))
        C_nu = 1.1 * float(np.linalg.eigvalsh(f @ stack @ adj(f)).max())
    else:
        C_nu = 0.0
    C1 = C_nu                            # valid for every nu (no gradient part)
    c4 = 4.0 / kappa * c1 ** 2 * C_nu
    q0_norm = nf ** 2
    q0_inv_norm = nfi ** 2
    if problem.lam >= 0:
        beta = problem.lam / q0_inv_norm - c0 - c4
    else:
        beta = problem.lam * q0_norm - c0 - c4
    cstar = a0 / (nfi ** 2 * g_inv_norm)
    ccheck = 0.5 * min(kappa * cstar, 2.0 * max(beta, 0.0))
    delta = 0.25 * kappa * cstar * problem.lattice.r0 ** 2
    denom = ((2 + c1 ** 2 + c2) * a1 * g_norm * nf ** 2
             + C1 + c3 + abs(problem.lam) * nf ** 2)
    tau0 = float(np.sqrt(delta / denom))
    return ProblemConstants(float(ccheck), float(delta), tau0)


# ---------------------------------------------------------------------------
# fiber assembly


@dataclass
class FiberOperator:
    """Dense Hermitian fiber matrix plus the metadata the estimates need;
    a batch of fibers at one eps carries k (..., d) and matrix (..., D, D)."""

    k: np.ndarray
    eps: float
    matrix: np.ndarray
    cstar_check: float
    trunc: fd.Truncation
    f_matrix: np.ndarray = None     # [f] on the truncation; None for f = I

    @property
    def tau_sq(self):
        """|k|^2 + eps^2, per fiber of a batch."""
        return np.sum(self.k * self.k, axis=-1) + self.eps ** 2

    @property
    def lower_bound(self):
        """The fiber floor c*-check (|k|^2 + eps^2), per fiber of a batch."""
        return self.cstar_check * self.tau_sq


def _field_band(field):
    """Largest Fourier index (max-norm) holding over 1e-13 of the peak."""
    coeffs = fd.fft_coeffs(field)
    mags = np.abs(coeffs).max(axis=(-2, -1))
    cutoff = 1e-13 * max(mags.max(), 1e-300)
    band = 0
    grid = mags.shape
    for idx in np.argwhere(mags > cutoff):
        signed = [i if i <= g // 2 else i - g for i, g in zip(idx, grid)]
        band = max(band, max(abs(s) for s in signed))
    return band


class FiberPencil:
    """The fiber matrix B(k, eps) as an exact quadratic polynomial in (k, eps).

    b(D+k) = b(D) + sum_j k_j b(e_j), so the Galerkin form matrix is
    sum_c w_c(k, eps) C_c over the monomials 1, k_j, k_i k_j (i <= j), eps,
    eps k_j and eps^2.  The coefficient matrices C_c are built once per
    (problem, truncation) by fields.sandwich_matrices, once each on g, the a_j
    and Q.  With f != identity the form is carried on an extended mode set
    sized from f's band and every coefficient is compressed by the rectangle
    [f] once; [f] on the truncation is kept as ``f_matrix`` (None for f = I)
    and rides along on every fiber.
    """

    def __init__(self, problem, trunc):
        self.problem, self.trunc = problem, trunc
        d, n = problem.d, problem.n
        self._pairs = [(i, j) for i in range(d) for j in range(i, d)]
        if problem.f_is_identity:
            tr_in, f_rect, self.f_matrix = trunc, None, None
        else:
            f = problem.f_field()
            tr_in = fd.Truncation(trunc.n_modes + _field_band(f),
                                  trunc.dimension)
            f_rect = fd.mult_matrix(f, tr_in, trunc)
            self.f_matrix = fd.mult_matrix(f, trunc)
        # the coefficients of 1, k_j and k_i k_j: g between b(D) and b(e_j)
        freqs = tr_in.freqs(problem.lattice)
        b0 = problem.b_of(freqs)
        b_unit = problem.b_of(np.eye(d))[:, None]
        quad = fd.sandwich_matrices(
            problem.g, tr_in, [(b0, b0)] + [(b0, b) for b in b_unit]
            + [(b_unit[i], b_unit[j]) for i, j in self._pairs])
        dim = trunc.size * n
        # filled in place: the stack is the only D^2-sized array kept
        self.coeffs = np.zeros((2 * d + len(self._pairs) + 3, dim, dim),
                               dtype=complex)

        def put(c, mat, sym=False):
            if sym:
                mat = mat + mat.conj().T
            self.coeffs[c] = mat if f_rect is None else \
                f_rect.conj().T @ mat @ f_rect

        mirror = [False] + [True] * d + [i != j for i, j in self._pairs]
        for c, sym in enumerate(mirror):
            put(c, quad.pop(0), sym)
        c_eps = 1 + d + len(self._pairs)
        eye = np.eye(n)[None]
        if problem.a is not None:
            # [a_j] (D+k)_j = [a_j] D_j + k_j [a_j]
            cross = 0
            for j in range(d):
                a_d, a_k = fd.sandwich_matrices(
                    problem.a[j], tr_in,
                    [(eye, freqs[:, j, None, None] * eye), (eye, eye)])
                cross = cross + a_d
                put(c_eps + 1 + j, a_k, sym=True)
            put(c_eps, cross, sym=True)
        if problem.Qdensity is not None:
            put(-1, *fd.sandwich_matrices(problem.Qdensity, tr_in,
                                          [(eye, eye)]))
        if problem.lam != 0.0:
            q0 = (np.eye(dim) if problem.f_is_identity else fd.mult_matrix(
                adj(problem.f_field()) @ problem.f_field(), trunc))
            self.coeffs[-1] += problem.lam * q0

    def _weights(self, k, eps):
        """Monomials 1, k_j, k_i k_j, eps, eps k_j, eps^2 of the coefficients,
        batched over the leading axes of k (..., d)."""
        one = np.ones((*k.shape[:-1], 1))
        kk = np.stack([k[..., i] * k[..., j] for i, j in self._pairs], axis=-1)
        return np.concatenate((one, k, kk, eps * one, eps * k, eps ** 2 * one),
                              axis=-1)

    def fiber(self, k, eps, constants=None):
        """FiberOperator at quasimomentum k, batched over the leading axes
        of k (..., d), with the fiber floor of ``constants`` (none when it is
        None); no eigensolver runs here."""
        k = np.asarray(k, dtype=float)
        # real weights on the real view, summed without BLAS: fiber loops
        # interleave this with scipy's LAPACK, and two OpenBLAS thread pools
        # (numpy's and scipy's) on the same cores slow each other down
        mat = linalg.herm(np.einsum("...c,cij->...ij", self._weights(k, eps),
                                    self.coeffs.view(float)).view(complex))
        ccheck = constants.cstar_check if constants is not None else 0.0
        return FiberOperator(k, float(eps), mat, float(ccheck), self.trunc,
                             self.f_matrix)


def assemble_fiber(problem, trunc, k, eps, constants=None):
    """Galerkin matrix of the fiber form at quasimomentum k, exact (alias-free)
    for band-limited coefficients: one evaluation of a fresh
    :class:`FiberPencil`.  Hold a pencil to evaluate many fibers."""
    return FiberPencil(problem, trunc).fiber(k, eps, constants)


class FiberFlow(linalg.HermitianFlow):
    """Full eigendecomposition of one fiber matrix, kept for perfbench's
    tracer only; the package decomposes fibers through :func:`partial_flow`."""

    def __init__(self, matrix):
        # its own __init__: tracing it must not count every HermitianFlow
        super().__init__(matrix)


# ---------------------------------------------------------------------------
# effective fiber objects and the corrector


def _zero_block_slice(trunc, n):
    z = trunc.zero_index
    return slice(z * n, (z + 1) * n)


def _zero_mode_columns(trunc, n):
    """E: the n zero-mode columns of the (trunc.size n)-dimensional identity."""
    return np.eye(trunc.size * n, n, -trunc.zero_index * n, dtype=complex)


def effective_flow(cell, k, eps, cstar_check=0.0):
    """HermitianFlow of the effective symbol B0 = f0 L_hat(k, eps) f0 with
    outer factor f0, batched over the leading axes of the quasimomenta ``k``
    (..., d): its expm(s) is f0 e^{-B0 s} f0.  The spectra are held to the
    floor (NonPositiveEffective)."""
    k = np.asarray(k, dtype=float)
    flow = linalg.HermitianFlow(cell.B0_symbol(k, eps), outer=cell.f0)
    linalg.check_floor(flow.w, cstar_check, np.sum(k * k, axis=-1) + eps ** 2,
                       NonPositiveEffective, "effective symbol")
    return flow


def effective_factors(cell, ng, trunc, k, eps, s, cstar_check=0.0):
    """Compact effective side of the fiber remainders, batched over the
    leading axes of the quasimomenta ``k`` (..., d): the
    :func:`approximation_factors` of one :func:`effective_flow`, ``ez``
    (..., n, n) = f0 e^{-B0 s} f0 and, unless ``ng`` is None, ``first``
    (..., D, n) and ``J`` (..., n, n).  Expanded on E, the zero-mode columns
    of the identity, they give the principal term and the corrector."""
    problem = cell.problem
    flow = effective_flow(cell, k, eps, cstar_check)
    if ng is None:
        return approximation_factors(flow, s, None, None)
    # ([Lambda_G] b(D+k) + eps [LambdaTilde_G]) E lives in the zero-mode
    # columns, where b(D+k) is b(k) and the multiplication matrices reduce to
    # the coefficient columns of the fields
    lam_g = coeff_vector(cell.LambdaG, trunc).reshape(-1, problem.m)
    lam_gt = coeff_vector(cell.LambdaTildeG, trunc).reshape(-1, problem.n)
    return approximation_factors(flow, s, lam_g @ problem.b_of(k)
                                 + eps * lam_gt, ng.symbol(k, eps))


def principal_term(cell, trunc, k, eps, s, cstar_check=0.0):
    """f0 exp(-B0(k,eps) s) f0 Phat as a full matrix (zero-mode block only)."""
    return expand_approximation(
        _zero_mode_columns(trunc, cell.problem.n),
        *effective_factors(cell, None, trunc, k, eps, s, cstar_check))[0]


def fiber_corrector(cell, ng, trunc, k, eps, s, cstar_check=0.0):
    """Corrector matrix at one fiber: oscillating pair + closed-form integral."""
    return expand_approximation(
        _zero_mode_columns(trunc, cell.problem.n),
        *effective_factors(cell, ng, trunc, k, eps, s, cstar_check))[1]


# e^{-CUT} = 2^-64: eigenpairs of B decayed past this drop out of the remainders
CUT = 64.0 * np.log(2.0)


def cut_value(fiber, s):
    """Largest fiber eigenvalue the remainders at time ``s`` keep:
    max(CUT/s, the fiber floor), every eigenvalue at s = 0; per fiber of a
    batch."""
    return np.maximum(CUT / s if s > 0 else np.inf, fiber.lower_bound)


def partial_flow(fiber, s):
    """Flow of the fiber eigenpairs with eigenvalue <= cut_value(fiber, s),
    the one decomposition of a fiber matrix, batched over the fibers of a
    batch.  At s = 0 every pair comes from one eigh.  Otherwise one
    :func:`spectrum_above` certifies the batch: a fiber it proves above the
    cut keeps no pair, and each other fiber's pairs come from one partial
    eigendecomposition (MRRR).  A batch keeps r pairs per fiber, r the most
    any fiber keeps: a fiber with fewer is padded with zero columns of v and
    eigenvalues at its cut, so that a pad adds nothing to a remainder and
    its weight e^{-cut s} is finite.  The arrays are owned: v holds no
    reference to a D x D buffer.  The pairs are held to the fiber floor
    (PositivityViolation); the cut is at least the floor, so every
    eigenvalue below the floor is among them, and no pad is below it.
    """
    vu = cut_value(fiber, s)
    mat = fiber.matrix
    dim, lead = mat.shape[-1], mat.shape[:-2]
    if np.all(vu == np.inf):
        w, v = np.linalg.eigh(mat)
    else:
        stack = mat.reshape(-1, dim, dim)
        cuts = np.broadcast_to(vu, lead).reshape(-1)
        decomposed = np.flatnonzero(~np.reshape(spectrum_above(mat, vu), -1))
        pairs = [scipy.linalg.eigh(stack[i], driver="evr",
                                   subset_by_value=(-np.inf, cuts[i]))
                 for i in decomposed]
        r = max((p[0].size for p in pairs), default=0)
        # evr's vectors are a view of its D x D work array: copied into v
        w = np.repeat(np.asarray(vu, dtype=float)[..., None], r, axis=-1)
        v = np.zeros((*lead, dim, r), dtype=complex)
        for i, (wi, vi) in zip(decomposed, pairs):
            if wi.size:
                w.reshape(-1, r)[i, :wi.size] = wi
                v.reshape(-1, dim, r)[i, :, :wi.size] = vi
    if w.shape[-1]:
        linalg.check_floor(w, fiber.cstar_check, fiber.tau_sq,
                           PositivityViolation,
                           "fiber (lambda too small or truncation too coarse)")
    return linalg.HermitianFlow.from_eigh(w, v)


def projected_norms(trunc, vf, decay, effective, mode):
    """The norms of :func:`remainder_norms`, batched over leading axes, from
    ``vf`` (..., D, r) = [f] V_r, ``decay`` (..., r) = e^{-w_r s} and the
    :func:`effective_factors` (ez, first, J).  Both remainders are A M A* with
    A = [vf, E, first] (E the zero-mode columns), so one QR A = Q T gives
    them as exact Hermitian norms of (r + 2n)-sized T M T*.  A zero column
    of ``vf`` adds nothing, so fibers that keep fewer pairs than r stack
    with zero pads.  Returns (..., 2), 0.0 for a norm that ``mode`` does not
    compute.
    """
    ez, first, integral = effective
    n, r = ez.shape[-1], decay.shape[-1]
    want_c = mode in ("both", "corrected")
    a = np.zeros((*vf.shape[:-1], r + (2 if want_c else 1) * n), dtype=complex)
    a[..., :r] = vf
    a[..., _zero_block_slice(trunc, n), r:r + n] = np.eye(n)
    if want_c:
        a[..., r + n:] = first
    t = np.linalg.qr(a, mode="r")
    tu, te, tf = t[..., :r], t[..., r:r + n], t[..., r + n:]
    rem = [(tu * decay[..., None, :]) @ adj(tu) - te @ ez @ adj(te)]
    if want_c:
        tft = tf @ adj(te)
        rem.append(rem[0] + te @ integral @ adj(te) - tft - adj(tft))
    norms = linalg.herm_norm(np.stack(rem, axis=-3))
    return norms[..., [0, -1]] * [mode != "corrected", want_c]


def remainder_norms(cell, ng, fiber, s, flow=None, mode="both"):
    """Norms of R = f e^{-B(k,eps)s} f* - f0 e^{-B0 s} f0 Phat and of R - K.

    Only the eigenpairs (w_r, V_r) of B with w <= cut_value(fiber, s) enter;
    the rest add at most ||[f]||^2 2^-64.  ``flow`` is a :func:`partial_flow`
    of the fiber at ``s`` or at 0 (every pair), made here when None; either
    way its spectrum is held to the fiber floor.  The norms come from
    :func:`projected_norms`.  ``mode`` ("both", "principal" or "corrected")
    picks the norms computed; a norm not computed reads 0.0.  k, eps, the
    truncation, the floor and [f] come with the fiber.
    """
    if flow is None:
        flow = partial_flow(fiber, s)
    keep = flow.w <= cut_value(fiber, s)
    w, v = flow.w[keep], flow.v[:, keep]
    effective = effective_factors(
        cell, ng if mode in ("both", "corrected") else None, fiber.trunc,
        fiber.k, fiber.eps, s, fiber.cstar_check)
    vf = v if fiber.f_matrix is None else fiber.f_matrix @ v
    p, c = projected_norms(fiber.trunc, vf, np.exp(-w * s), effective, mode)
    return float(p), float(c)


def fiber_remainder(cell, ng, fiber, s, flow=None):
    """Norm of f e^{-B(k,eps)s} f* - principal - corrector, its envelope
    :func:`remainder_envelope` and their ratio (0 at s = 0)."""
    nrm = remainder_norms(cell, ng, fiber, s, flow, mode="corrected")[1]
    env_pos = remainder_envelope(fiber.cstar_check, float(fiber.tau_sq), s)
    ratio = nrm / env_pos if (s > 0 and env_pos > 0) else 0.0
    return {"remainder_norm": float(nrm),
            "envelope_s_pos": float(env_pos),
            "ratio_s_pos": float(ratio)}


def principal_remainder(cell, trunc, k, eps, s, constants=None, fiber=None):
    """Norm of f e^{-B s} f* - f0 e^{-B0 s} f0 Phat (no corrector)."""
    if fiber is None:
        fiber = assemble_fiber(cell.problem, trunc, k, eps, constants)
    return remainder_norms(cell, None, fiber, s, mode="principal")[0]


# ---------------------------------------------------------------------------
# abstract-engine instantiation on the hatted (f = identity) fibers


class GridMap:
    """The map P(g) E W(b) from the truncated space into the weighted
    quadrature-grid space, held as its factors.

    W is a block per mode (M or 1, q, n), E = F_1 x ... x F_d the
    evaluation matrix of :func:`fields.eval_matrix`, applied axis by axis
    from its per-axis DFT factors, and P a block per grid node (G^d or 1,
    p, q).  As a matrix it is (G^d*p, M*n), rows (node, i) and columns
    (mode, j).  It supports ``@`` on a block of columns, ``.T @`` and
    ``np.asarray``, which builds the dense map Fortran-ordered and with no
    dense E; nothing rectangle-sized is held.
    """

    def __init__(self, factors, point, mode, transposed=False):
        self.factors, self.transposed = factors, transposed
        self.point = np.asarray(point, dtype=complex)
        self.mode = np.asarray(mode, dtype=complex)
        self.nodes = int(np.prod([f.shape[0] for f in factors]))
        self.modes = int(np.prod([f.shape[1] for f in factors]))

    @property
    def shape(self):
        shape = (self.nodes * self.point.shape[1],
                 self.modes * self.mode.shape[2])
        return shape[::-1] if self.transposed else shape

    @property
    def T(self):
        return GridMap(self.factors, self.point, self.mode,
                       not self.transposed)

    def _kron(self, y, transpose):
        """(F_1 x ... x F_d) y along the first axis of ``y``, or with every
        F_l transposed: one batched GEMM per axis."""
        rest = y.shape[1:]
        done = 1
        for f in self.factors:
            f = f.T if transpose else f
            y = f @ y.reshape(done, f.shape[1], -1)
            done *= f.shape[0]
        return y.reshape(done, *rest)

    def __matmul__(self, cols):
        c = cols.shape[-1]
        if self.transposed:
            y = np.swapaxes(self.point, 1, 2) @ cols.reshape(self.nodes, -1, c)
            y = np.swapaxes(self.mode, 1, 2) @ self._kron(y, transpose=True)
        else:
            y = self.mode @ cols.reshape(self.modes, -1, c)
            y = self.point @ self._kron(y, transpose=False)
        return y.reshape(-1, c)

    def __array__(self, dtype=None, copy=None):
        """The dense map, always a fresh array: one GEMM gives its
        C-ordered transpose, entries sum_q W[b, q, j] P[g, i, q] at row
        (b, j) and column (g, i), scaled by E in place; the map itself is
        that transpose's Fortran-ordered view."""
        q, n = self.mode.shape[1:]
        p = self.point.shape[1]
        mode = np.broadcast_to(self.mode, (self.modes, q, n))
        point = np.broadcast_to(self.point, (self.nodes, p, q))
        dense = np.swapaxes(mode, 1, 2).reshape(-1, q) \
            @ point.reshape(-1, q).T
        # E[g, b] = prod_l F_l[g_l, b_l], one axis at a time
        d = len(self.factors)
        view = dense.reshape(*[f.shape[1] for f in self.factors], n,
                             *[f.shape[0] for f in self.factors], p)
        for axis, f in enumerate(self.factors):
            shape = [1] * view.ndim
            shape[axis], shape[d + 1 + axis] = f.T.shape
            view *= f.T.reshape(shape)
        dense = dense if self.transposed else dense.T
        return dense if dtype is None else dense.astype(dtype, copy=False)


class GridForm:
    """The form L* R of two :class:`GridMap` maps L and R on one grid, held
    as the pair: ``@`` on a block of columns applies R and then L*, and
    ``np.asarray`` builds L* R densely."""

    def __init__(self, left, right):
        self.left, self.right = left, right

    def __matmul__(self, cols):
        # L* y as conj(L^T conj(y)), the products of L* y
        return (self.left.T @ (self.right @ cols).conj()).conj()

    def __array__(self, dtype=None, copy=None):
        dense = np.asarray(self.left).conj().T @ np.asarray(self.right)
        return dense if dtype is None else dense.astype(dtype, copy=False)


class IdentityMap:
    """The identity of C^dim as a map: ``@`` returns its columns, and
    ``np.asarray`` builds the dense identity."""

    def __init__(self, dim):
        self.shape = (dim, dim)

    def __matmul__(self, cols):
        return cols

    def __array__(self, dtype=None, copy=None):
        return np.eye(self.shape[0], dtype=complex if dtype is None else dtype)


class GridRectangles:
    """Maps from the truncated space into the weighted quadrature-grid space.

    With grid weight |Omega|/G^d folded in, E has orthonormal columns and the
    pencil matrices reproduce the alias-free Galerkin forms exactly.  Each
    map is a :class:`GridMap` P(g) E W(b), built from the per-axis DFT
    factors of E and pointwise or per-mode blocks; none holds a rectangle.
    """

    def __init__(self, problem, trunc, grid_shape=None):
        if not problem.f_is_identity:
            raise NotImplementedError("grid rectangles assume f = identity")
        self.problem = problem
        self.trunc = trunc
        self.grid_shape = tuple(grid_shape or problem.grid_shape)
        self.lat = problem.lattice
        # E = F_1 x ... x F_d, each F_l the d = 1 evaluation matrix of axis l
        line = fd.Truncation(trunc.n_modes, 1)
        self.factors = [fd.eval_matrix(line, (g,)) for g in self.grid_shape]
        g_here = fd.resample_field(problem.g, self.grid_shape)
        self.h = fd.pointwise_sqrtm(g_here).reshape(-1, problem.m, problem.m)
        if problem.a is not None:
            self.a_star = [
                fd.resample_field(adj(problem.a[j]), self.grid_shape)
                .reshape(-1, problem.n, problem.n)
                for j in range(problem.d)]
        else:
            self.a_star = None

    def _map(self, point, mode=None):
        """GridMap of the blocks P and W, None standing for an identity."""
        if mode is None:
            mode = np.eye(self.problem.n)[None]
        if point is None:
            point = np.eye(mode.shape[1])[None]
        return GridMap(self.factors, point, mode)

    def X0(self):
        """h and b(D): (G^d*m, M*n)."""
        return self._map(self.h, self.problem.b_of(self.trunc.freqs(self.lat)))

    def X1(self, theta):
        """h b(theta) and I."""
        bth = self.problem.b_of(np.asarray(theta, dtype=float))
        return self._map(self.h @ bth)

    def Y0(self):
        """I and col{D_j}: (G^d*d*n, M*n)."""
        n = self.problem.n
        q = self.trunc.freqs(self.lat)                      # (M, d)
        return self._map(None, (q[:, :, None, None] * np.eye(n))
                         .reshape(len(q), -1, n))

    def Y1(self, theta):
        """col{theta_j} and I."""
        n = self.problem.n
        theta = np.asarray(theta, dtype=float)
        return self._map((theta[:, None, None] * np.eye(n)).reshape(1, -1, n))

    def Y2(self):
        """col{a_j*} and I; a zero block when a is absent."""
        n, d = self.problem.n, self.problem.d
        if self.a_star is None:
            return self._map(np.zeros((1, d * n, n), dtype=complex))
        return self._map(np.concatenate(self.a_star, axis=1))

    def Q(self):
        """The form E*[q]E of the potential density q (zero when absent):
        (M*n, M*n), alias-free on a grid that covers q's band."""
        n = self.problem.n
        q = fd.resample_field(self.problem.q_field(), self.grid_shape)
        return GridForm(self._map(None), self._map(q.reshape(-1, n, n)))


def hatted_family(problem, trunc, theta, constants=None, grid_shape=None):
    """AbstractFamily of the f=identity fiber pencil in direction theta,
    carrying the c*-check of ``constants`` (delta and tau0 go to
    compute_threshold).  Its X0, X1, Y0, Y1 and Y2 are the factored
    :class:`GridMap` maps of :class:`GridRectangles`, Q is the
    :class:`GridForm` E*[q]E of two of them and Q0 an
    :class:`IdentityMap`: the family holds no dense matrix."""
    rect = GridRectangles(problem, trunc, grid_shape)
    x0 = rect.X0()
    return AbstractFamily(x0, rect.X1(theta), rect.Y0(), rect.Y1(theta),
                          rect.Y2(), rect.Q(), IdentityMap(x0.shape[1]),
                          problem.lam,
                          {} if constants is None else
                          {"cstar_check": constants.cstar_check})


def rectangle_grid(problem, trunc):
    """Smallest alias-free quadrature grid for the grid-space pencil.

    Form entries pair two operator images of truncated vectors, so the
    integrands are band-limited by 2*(N + max coefficient band); h enters
    pointwise only.
    """
    band = _field_band(problem.g)
    if problem.a is not None:
        for j in range(problem.d):
            band = max(band, _field_band(problem.a[j]))
    if problem.Qdensity is not None:
        band = max(band, _field_band(problem.Qdensity))
    g = 2 * trunc.n_modes + 2 * band + 2
    return (min(g, max(problem.grid_shape)),) * problem.lattice.dimension


def _span_norms(w, factors, middles):
    """Spectral norms of X w* for each X in ``factors``, then of w M w* for
    each Hermitian M in ``middles``, from the thin QR w = Q c of the (D, m)
    ``w``: they are ||X c*||_2 and ||c M c*||_2, with no D x D product."""
    c = np.linalg.qr(w, mode="r")
    ch = c.conj().T
    return ([linalg.opnorm(x @ ch) for x in factors]
            + [float(linalg.herm_norm(c @ m @ ch)) for m in middles])


def cross_validate_abstract(problem, trunc, theta, tau, constants=None,
                            raise_on_fail=True):
    """Abstract threshold objects versus their explicit cell-problem forms.

    Checks, on the hatted family: Z(theta) = [Lambda] b(theta) Phat,
    Ztilde = [LambdaTilde] Phat, the germ block = b(theta)* g0 b(theta),
    L(t,eps) = effective symbol on the averaged subspace, and N(t,eps) =
    third-order coefficient symbol.  Before any work: ValueError unless
    ``theta`` is a finite nonzero vector in R^d and ``tau`` is finite and
    positive, and NotImplementedError unless f is the identity.  With
    ``raise_on_fail``, MismatchBeyondTolerance on a residual over 1e-7 (N:
    1e-6) or NaN.
    """
    theta = np.asarray(theta, dtype=float)
    norm = np.linalg.norm(theta)
    if theta.shape != (problem.d,) or not (np.isfinite(norm) and norm > 0):
        raise ValueError(f"theta must be finite and nonzero, got {theta!r}")
    if not (np.isfinite(tau) and tau > 0):
        raise ValueError(f"tau must be finite and positive, got {tau!r}")
    if not problem.f_is_identity:
        raise NotImplementedError("cross-validation runs on the hatted pencil")
    theta = theta / norm
    if constants is None:
        constants = estimate_constants(problem)

    # cell problems first, so that their working memory is freed before the
    # dim x dim family is built
    sol = solve_cell_problems(problem, trunc)
    ng = ng_coefficients(problem, sol)
    # no name holds the family, so it is freed before the residual phase
    th = compute_threshold(
        hatted_family(problem, trunc, theta, constants,
                      rectangle_grid(problem, trunc)),
        delta=constants.delta, tau0=constants.tau0)

    # Z - [Lambda b(theta)] E* = [z | -F] [u|E]*, with E the zero-mode
    # columns of the identity; the germ, L and N residuals are
    # [u|E] blockdiag(M, -T) [u|E]* with the kernel-basis middle M
    zero_mode = fd.Truncation(0, problem.d)
    bth = problem.b_of(theta)
    factors = [np.concatenate([z, -fd.mult_matrix(field, trunc, zero_mode)],
                              axis=1)
               for z, field in ((th.z, sol.Lambda @ bth),
                                (th.zt, sol.LambdaTilde))]
    # direction-scaled parameters: k = t theta, eps = tau * theta2 with
    # theta-split (t, eps) on the unit circle of the tau-ball
    t, eps = tau * np.array([0.8, 0.6])
    k_vec = t * theta
    middles = [scipy.linalg.block_diag(m, -target) for m, target in (
        (th.germ_blocks[0], bth.conj().T @ sol.g0 @ bth),
        (kernel_poly(th.germ_blocks, t, eps), sol.L_hat_symbol(k_vec, eps)),
        (kernel_poly(th.n_blocks, t, eps), ng.symbol(k_vec, eps)))]
    report = dict(zip(("Z", "Ztilde", "germ", "L", "N"), _span_norms(
        np.concatenate([th.kernel_basis,
                        _zero_mode_columns(trunc, problem.n)], axis=1),
        factors, middles)))

    # exact norms: R = X [u|E]* = X c* Q* with Q orthonormal, so
    # ||R||_2 = ||X c*||_2
    if raise_on_fail:
        for name, tol in (("Z", 1e-7), ("Ztilde", 1e-7), ("germ", 1e-7),
                          ("L", 1e-7), ("N", 1e-6)):
            # a NaN residual fails
            if not report[name] <= tol:
                raise MismatchBeyondTolerance(name, report[name], tol)
    return report
