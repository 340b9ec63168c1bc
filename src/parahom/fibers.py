"""Fiber operators at fixed quasimomentum, their correctors and remainders.

The truncated Fourier space carries the operator pencil

    B(k, eps) = X(k)*X(k) + eps (Y2*Y(k) + Y(k)*Y2) + eps^2 (Q-form + lam f*f)

with X(k) = h b(D+k) f, Y(k) = (D+k) f.  Assembly is the alias-free Galerkin
form matrix (multiplication matrices between band-limited factors), so the
fiber matrix is exactly the compression of the pencil to the truncated space.

The module also instantiates the abstract threshold engine on the f=identity
("hatted") fibers, mapping the truncated space into the weighted quadrature
grid so that X(t)*X(t) reproduces the Galerkin matrices exactly; this is what
makes the abstract-vs-explicit identities hold to solver precision.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import fields as fd
from . import linalg
from .abstract import AbstractFamily, compute_threshold, remainder_envelopes
from .cell import adj
from .errors import MismatchBeyondTolerance, NonPositiveEffective, PositivityViolation


# ---------------------------------------------------------------------------
# sampled problem constants


@dataclass
class ProblemConstants:
    """Sampled constants controlling the threshold regime of one problem."""

    alpha0: float
    alpha1: float
    g_min: float
    g_max: float
    norm_f: float
    norm_f_inv: float
    kappa: float
    c0: float
    c1: float
    c2: float
    c3: float
    c4: float
    C1: float
    beta: float
    cstar: float
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
    return ProblemConstants(a0, a1, v["g_min"], v["g_max"], nf, nfi,
                            kappa, c0, c1, c2, c3, c4, C1, float(beta),
                            float(cstar), float(ccheck), float(delta), tau0)


# ---------------------------------------------------------------------------
# fiber assembly


@dataclass
class FiberOperator:
    """Dense Hermitian fiber matrix plus the metadata the estimates need."""

    k: np.ndarray
    eps: float
    matrix: np.ndarray
    cstar_check: float
    trunc: fd.Truncation
    n: int

    @property
    def lower_bound(self):
        return self.cstar_check * (float(self.k @ self.k) + self.eps ** 2)


def _field_band(field, tol=1e-13):
    """Largest occupied Fourier index (max-norm) of a field."""
    coeffs = fd.fft_coeffs(field)
    mags = np.abs(coeffs).max(axis=(-2, -1))
    cutoff = tol * max(mags.max(), 1e-300)
    band = 0
    grid = mags.shape
    for idx in np.argwhere(mags > cutoff):
        signed = [i if i <= g // 2 else i - g for i, g in zip(idx, grid)]
        band = max(band, max(abs(s) for s in signed))
    return band


def mult_matrix_rect(field, trunc_rows, trunc_cols):
    """Multiplication matrix between two different truncations."""
    coeffs = fd.fft_coeffs(field)
    rows, cols = trunc_rows.modes, trunc_cols.modes
    p, q = coeffs.shape[-2:]
    grid = coeffs.shape[:-2]
    diff = rows[:, None, :] - cols[None, :, :]
    idx = tuple((diff[..., ax] % grid[ax]) for ax in range(trunc_rows.dimension))
    blocks = coeffs[idx]
    return blocks.transpose(0, 2, 1, 3).reshape(len(rows) * p, len(cols) * q)


def assemble_fiber(problem, trunc, k, eps, constants=None, check=True):
    """Galerkin matrix of the fiber form at quasimomentum k.

    Exact (alias-free) for band-limited coefficients; with f != identity the
    inner factors are carried on an extended mode set sized from f's band.
    """
    k = np.asarray(k, dtype=float)
    lat = problem.lattice
    n = problem.n
    if problem.f_is_identity:
        tr_in = trunc
        F = None
    else:
        pad = _field_band(problem.f_field())
        tr_in = fd.Truncation(trunc.n_modes + pad, trunc.dimension)
        F = mult_matrix_rect(problem.f_field(), tr_in, trunc)

    bd = fd.symbol_blockdiag(lambda q: problem.b_of(q), tr_in, lat, k)
    gm = fd.mult_matrix(problem.g, tr_in)
    if F is None:
        mat = bd.conj().T @ gm @ bd
    else:
        w = bd @ F
        mat = w.conj().T @ gm @ w

    if problem.a is not None or problem.lam != 0.0 or problem.Qdensity is not None:
        if problem.a is not None:
            cross = np.zeros_like(mat)
            for j in range(problem.d):
                dj = fd.symbol_blockdiag(
                    lambda q: q[j] * np.eye(n), tr_in, lat, k)
                aj = fd.mult_matrix(adj(problem.a[j]), tr_in)
                if F is None:
                    cross += aj.conj().T @ dj
                else:
                    cross += F.conj().T @ aj.conj().T @ dj @ F
            mat = mat + eps * (cross + cross.conj().T)
        if problem.Qdensity is not None:
            qm = fd.mult_matrix(problem.Qdensity, tr_in)
            mat = mat + eps ** 2 * (qm if F is None else F.conj().T @ qm @ F)
        if problem.lam != 0.0:
            if F is None:
                mat = mat + eps ** 2 * problem.lam * np.eye(mat.shape[0])
            else:
                q0 = fd.mult_matrix(
                    adj(problem.f_field()) @ problem.f_field(), trunc)
                mat = mat + eps ** 2 * problem.lam * q0

    mat = linalg.herm(mat)
    ccheck = constants.cstar_check if constants is not None else 0.0
    fib = FiberOperator(k, float(eps), mat, float(ccheck), trunc, n)
    if check and ccheck > 0.0:
        _check_floor(fib, float(np.linalg.eigvalsh(mat).min()))
    return fib


def _check_floor(fib, wmin):
    """PositivityViolation when the smallest fiber eigenvalue ``wmin`` falls
    below the fiber's lower bound (skipped when no bound is set)."""
    bound = fib.lower_bound
    if fib.cstar_check > 0.0 and wmin < bound - 1e-9 * max(1.0, abs(bound)):
        raise PositivityViolation(
            f"fiber eigenvalue {wmin:.3e} below bound {bound:.3e}"
            " (lambda too small or truncation too coarse)")


class FiberFlow(linalg.HermitianFlow):
    """Reusable Hermitian eigendecomposition of one fiber matrix."""

    def __init__(self, matrix):
        # perfbench traces fiber decompositions through this class's own
        # __init__; the inherited one would count every HermitianFlow
        super().__init__(matrix)


def parallel_map(fn, items, threads):
    """[fn(x) for x in items], on a thread pool when threads > 1."""
    if threads <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# effective fiber objects and the corrector


def effective_zero_block(cell, k, eps, cstar_check=0.0, tol=1e-9):
    """f0 L_hat(k,eps) f0 on the averaged subspace; positivity enforced."""
    H = linalg.herm(cell.B0_symbol(k, eps))
    if cstar_check > 0.0:
        bound = cstar_check * (float(np.dot(k, k)) + eps ** 2)
        wmin = float(np.linalg.eigvalsh(H).min())
        if wmin < bound - tol * max(1.0, abs(bound)):
            raise NonPositiveEffective(
                f"effective symbol eigenvalue {wmin:.3e} below {bound:.3e}")
    return H


def _zero_block_slice(trunc, n):
    z = trunc.zero_index
    return slice(z * n, (z + 1) * n)


def _principal_and_corrector(cell, ng, trunc, k, eps, s, cstar_check):
    """f0 exp(-B0 s) f0 Phat and, unless ``ng`` is None, the corrector, both
    from one eigendecomposition of the effective zero block."""
    problem = cell.problem
    n = problem.n
    k = np.asarray(k, dtype=float)
    flow = linalg.HermitianFlow(effective_zero_block(cell, k, eps, cstar_check))
    gp = np.zeros((trunc.size * n, trunc.size * n), dtype=complex)
    sl = _zero_block_slice(trunc, n)
    gp[sl, sl] = cell.f0 @ flow.expm(s) @ cell.f0
    if ng is None:
        return gp, None

    bd_k = fd.symbol_blockdiag(lambda q: problem.b_of(q), trunc,
                               problem.lattice, k)
    lg = fd.mult_matrix(cell.LambdaG, trunc)      # (M n x M m)
    lgt = fd.mult_matrix(cell.LambdaTildeG, trunc)
    first = (lg @ bd_k + eps * lgt) @ gp
    inner = cell.f0 @ ng.symbol(k, eps) @ cell.f0
    out = first + first.conj().T
    out[sl, sl] -= cell.f0 @ flow.integral(inner, s) @ cell.f0
    return gp, out


def principal_term(cell, trunc, k, eps, s, cstar_check=0.0):
    """f0 exp(-B0(k,eps) s) f0 Phat as a full matrix (zero-mode block only)."""
    return _principal_and_corrector(cell, None, trunc, k, eps, s,
                                    cstar_check)[0]


def fiber_corrector(cell, ng, trunc, k, eps, s, cstar_check=0.0):
    """Corrector matrix at one fiber: oscillating pair + closed-form integral."""
    return _principal_and_corrector(cell, ng, trunc, k, eps, s,
                                    cstar_check)[1]


def remainder_norms(cell, ng, trunc, k, eps, s, constants=None, fiber=None,
                    flow=None, mode="both"):
    """Norms of R = f e^{-B(k,eps)s} f* - f0 e^{-B0 s} f0 Phat and of R - K.

    One fiber exponential and one effective eigendecomposition serve both,
    and the fiber spectrum of that exponential is checked against the
    fiber's lower bound (PositivityViolation).  ``mode`` ("both",
    "principal" or "corrected") picks the norms computed; a norm not
    computed reads 0.0.
    """
    problem = cell.problem
    cc = constants.cstar_check if constants is not None else 0.0
    if fiber is None:
        fiber = assemble_fiber(problem, trunc, k, eps, constants, check=False)
    if flow is None:
        flow = FiberFlow(fiber.matrix)
    _check_floor(fiber, float(flow.w.min()))
    lhs = flow.expm(s)
    if not problem.f_is_identity:
        fm = fd.mult_matrix(problem.f_field(), trunc)
        lhs = fm @ lhs @ fm.conj().T
    want_c = mode in ("both", "corrected")
    gp, corrector = _principal_and_corrector(
        cell, ng if want_c else None, trunc, k, eps, s, cc)
    rem = lhs - gp
    norm_p = linalg.opnorm(rem) if mode in ("both", "principal") else 0.0
    norm_c = linalg.opnorm(rem - corrector) if want_c else 0.0
    return norm_p, norm_c


def fiber_remainder(cell, ng, trunc, k, eps, s, constants=None, fiber=None,
                    flow=None):
    """Norm of f e^{-B(k,eps)s} f* - principal - corrector, with envelopes."""
    nrm = remainder_norms(cell, ng, trunc, k, eps, s, constants, fiber, flow,
                          mode="corrected")[1]
    cc = constants.cstar_check if constants is not None else 0.0
    k = np.asarray(k, dtype=float)
    tau_sq = float(k @ k) + eps ** 2
    env_pos, env_nonneg = remainder_envelopes(cc, tau_sq, s)
    ratio = nrm / env_pos if (s > 0 and env_pos > 0) else 0.0
    return {"remainder_norm": float(nrm),
            "envelope_s_pos": float(env_pos),
            "envelope_s_nonneg": float(env_nonneg),
            "ratio_s_pos": float(ratio),
            "tau": float(np.sqrt(tau_sq))}


def principal_remainder(cell, trunc, k, eps, s, constants=None, fiber=None,
                        flow=None):
    """Norm of f e^{-B s} f* - f0 e^{-B0 s} f0 Phat (no corrector)."""
    return remainder_norms(cell, None, trunc, k, eps, s, constants, fiber,
                           flow, mode="principal")[0]


# ---------------------------------------------------------------------------
# abstract-engine instantiation on the hatted (f = identity) fibers


class GridRectangles:
    """Maps from the truncated space into the weighted quadrature-grid space.

    With grid weight |Omega|/G^d folded in, E has orthonormal columns and the
    pencil matrices reproduce the alias-free Galerkin forms exactly.
    """

    def __init__(self, problem, trunc, grid_shape=None):
        if not problem.f_is_identity:
            raise NotImplementedError("grid rectangles assume f = identity")
        self.problem = problem
        self.trunc = trunc
        self.grid_shape = tuple(grid_shape or problem.grid_shape)
        self.lat = problem.lattice
        self.E = fd.eval_matrix(trunc, self.grid_shape)   # (G^d, M)
        g_here = fd.resample_field(problem.g, self.grid_shape)
        self.h = fd.pointwise_sqrtm(g_here).reshape(-1, problem.m, problem.m)
        if problem.a is not None:
            self.a_star = [
                fd.resample_field(adj(problem.a[j]), self.grid_shape)
                .reshape(-1, problem.n, problem.n)
                for j in range(problem.d)]
        else:
            self.a_star = None

    def _rect(self, block):
        """Rectangle with entries E[g, b] * block[g, i, b, j], rows (g, i)
        and columns (b, j): a (G^d*p, M*n) matrix.  ``block`` broadcasts to
        (G^d, p, M, n)."""
        vals = self.E[:, None, :, None] * block
        return vals.reshape(-1, self.E.shape[1] * vals.shape[-1])

    def _freqs(self):
        """Dual-lattice frequencies of the truncated modes: (M, d)."""
        return self.trunc.modes @ self.lat.dual_basis

    def _stack(self, blocks):
        """(G^d or 1, d, n, n) direction blocks -> (G^d or 1, d*n, 1, n)."""
        return blocks.reshape(blocks.shape[0], -1, 1, blocks.shape[-1])

    def X0(self):
        """Grid values of h b(D) u: (G^d*m, M*n)."""
        b = np.array([self.problem.b_of(q) for q in self._freqs()])
        m, n = b.shape[1:]
        # (h(g) b(b))[i, j] for every node g and mode b, as one GEMM
        hb = self.h.reshape(-1, m) @ b.transpose(1, 0, 2).reshape(m, -1)
        return self._rect(hb.reshape(-1, m, len(b), n))

    def X1(self, theta):
        """Grid values of h b(theta) u."""
        bth = self.problem.b_of(np.asarray(theta, dtype=float))
        return self._rect((self.h @ bth)[:, :, None, :])

    def Y0(self):
        """Grid values of col{D_j u}: (G^d*d*n, M*n)."""
        eye = np.eye(self.problem.n)
        q = self._freqs().T                                # (d, M)
        return self._rect((q[:, None, :, None] * eye[None, :, None, :])
                          .reshape(1, -1, q.shape[1], eye.shape[1]))

    def Y1(self, theta):
        eye = np.eye(self.problem.n)
        theta = np.asarray(theta, dtype=float)
        return self._rect(self._stack(theta[None, :, None, None] * eye))

    def Y2(self):
        n, d = self.problem.n, self.problem.d
        if self.a_star is None:
            return np.zeros((self.E.shape[0] * d * n, self.E.shape[1] * n),
                            dtype=complex)
        return self._rect(self._stack(np.stack(self.a_star, axis=1)))


def hatted_family(problem, trunc, theta, constants=None, grid_shape=None):
    """AbstractFamily of the f=identity fiber pencil in direction theta."""
    rect = GridRectangles(problem, trunc, grid_shape)
    q_mat = fd.mult_matrix(problem.q_field(), trunc)
    dim = trunc.size * problem.n
    consts = {}
    if constants is not None:
        consts = {"c1": constants.c1, "c2": constants.c2, "c3": constants.c3,
                  "C1": constants.C1, "kappa": constants.kappa,
                  "cstar": constants.cstar, "cstar_check": constants.cstar_check}
    return AbstractFamily(
        X0=rect.X0(), X1=rect.X1(theta),
        Y0=rect.Y0(), Y1=rect.Y1(theta), Y2=rect.Y2(),
        Q=linalg.herm(q_mat), Q0=np.eye(dim, dtype=complex),
        lam=problem.lam, form_constants=consts)


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


def cross_validate_abstract(problem, trunc, theta, tau, constants=None,
                            tol_z=1e-7, tol_L=1e-7, tol_N=1e-6,
                            raise_on_fail=True, grid_shape=None):
    """Abstract threshold objects versus their explicit cell-problem forms.

    Checks, on the hatted family: Z(theta) = [Lambda] b(theta) Phat,
    Ztilde = [LambdaTilde] Phat, the germ block = b(theta)* g0 b(theta),
    L(t,eps) = effective symbol on the averaged subspace, and N(t,eps) =
    third-order coefficient symbol.
    """
    from .cell import solve_cell_problems, ng_coefficients

    theta = np.asarray(theta, dtype=float)
    theta = theta / np.linalg.norm(theta)
    if constants is None:
        constants = estimate_constants(problem)
    if not problem.f_is_identity:
        raise NotImplementedError("cross-validation runs on the hatted pencil")

    if grid_shape is None:
        grid_shape = rectangle_grid(problem, trunc)
    fam = hatted_family(problem, trunc, theta, constants, grid_shape)
    th = compute_threshold(fam, delta=constants.delta, tau0=constants.tau0)
    sol = solve_cell_problems(problem, trunc)
    ng = ng_coefficients(problem, sol)

    n = problem.n
    sl = _zero_block_slice(trunc, n)
    phat = np.zeros((trunc.size * n, trunc.size * n), dtype=complex)
    phat[sl, sl] = np.eye(n)

    report = {}
    z_target = fd.mult_matrix(
        sol.Lambda @ problem.b_of(theta), trunc) @ phat
    report["Z"] = float(linalg.opnorm(th.Z - z_target))
    zt_target = fd.mult_matrix(sol.LambdaTilde, trunc) @ phat
    report["Ztilde"] = float(linalg.opnorm(th.Ztilde - zt_target))

    bth = problem.b_of(theta)
    germ_target = np.zeros_like(phat)
    germ_target[sl, sl] = bth.conj().T @ sol.g0 @ bth
    report["germ"] = float(linalg.opnorm(th.S_block - germ_target))

    # direction-scaled parameters: k = t theta, eps = tau * theta2 with
    # theta-split (t, eps) on the unit circle of the tau-ball
    split = np.array([0.8, 0.6])
    t, eps = tau * split
    k_vec = t * theta
    from .abstract import L_operator, n_operator
    L_abs = L_operator(th, t, eps)
    L_target = np.zeros_like(phat)
    L_target[sl, sl] = sol.L_hat_symbol(k_vec, eps)
    report["L"] = float(linalg.opnorm(L_abs - L_target))

    N_abs = n_operator(th, t, eps)
    N_target = np.zeros_like(phat)
    N_target[sl, sl] = ng.symbol(k_vec, eps)
    report["N"] = float(linalg.opnorm(N_abs - N_target))

    if raise_on_fail:
        for name, tol in (("Z", tol_z), ("Ztilde", tol_z), ("germ", tol_L),
                          ("L", tol_L), ("N", tol_N)):
            if report[name] > tol:
                raise MismatchBeyondTolerance(name, report[name], tol)
    return report
