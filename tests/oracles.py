"""Independent reference computations used to freeze expected test values.

Each oracle takes a deliberately different route from the implementation it
checks: adaptive quadrature against closed forms, scipy null spaces and full
SVDs against the pivoted-QR kernel detector, collocation Crank-Nicolson
stepping against Bloch synthesis, brute-force Voronoi geometry against
lattice formulas.
"""

import numpy as np
from scipy.integrate import quad, quad_vec
from scipy.linalg import expm, null_space


def null_projector(mat, rcond=1e-10):
    ns = null_space(mat, rcond=rcond)
    return ns @ ns.conj().T, ns.shape[1]


def pinv_solution(x0, rhs_op, proj):
    """-(X0* X0)^+ rhs_op proj via numpy pseudo-inverse."""
    gram = x0.conj().T @ x0
    return -np.linalg.pinv(gram, rcond=1e-12) @ rhs_op @ proj


def semigroup_integral_quad(L, N, s, tol=1e-12):
    """Adaptive quadrature of int_0^s e^{-L(s-t)} N e^{-L t} dt (L Hermitian)."""
    w, v = np.linalg.eigh(0.5 * (L + L.conj().T))

    def integrand(t):
        left = (v * np.exp(-w * (s - t))) @ v.conj().T
        right = (v * np.exp(-w * t)) @ v.conj().T
        return left @ N @ right

    out, _ = quad_vec(integrand, 0.0, s, epsabs=tol, epsrel=tol)
    return out


def voronoi_inradius(dual_basis):
    """Inradius of the origin's Voronoi cell by brute force: half the
    distance to the nearest point that shares a Voronoi ridge with it."""
    from itertools import product

    from scipy.spatial import Voronoi

    d = dual_basis.shape[0]
    idx = list(product(range(-3, 4), repeat=d))
    pts = np.array([np.asarray(i, float) @ dual_basis for i in idx])
    origin = idx.index((0,) * d)
    ridges = Voronoi(pts).ridge_points
    nbrs = ridges[(ridges == origin).any(axis=1)].ravel()
    return 0.5 * float(np.linalg.norm(pts[nbrs[nbrs != origin]], axis=1).min())


def harmonic_mean_quad(gfun, tol=1e-12):
    """(int_0^1 g(x)^{-1} dx)^{-1} by adaptive quadrature."""
    val, _ = quad(lambda x: 1.0 / gfun(x), 0.0, 1.0, epsabs=tol, epsrel=tol)
    return 1.0 / val


def fiber_entry_quad(gfun, k, eps, lam, mi, mj, tol=1e-11):
    """<(g (D+k) e_j, (D+k) e_i)> + eps^2 lam delta_ij for 1D scalar fibers
    with a real coefficient g.

    Modes e_m(x) = exp(2 pi i m x) on the unit cell; direct quadrature, with
    the oscillating factor exp(2 pi i (mj - mi) x) passed to QUADPACK as
    cos and sin weights (QAWO).
    """
    wi, wj = 2 * np.pi * mi + k, 2 * np.pi * mj + k
    re, im = (quad(gfun, 0, 1, weight=weight, wvar=2 * np.pi * (mj - mi),
                   epsabs=tol, epsrel=tol, limit=400)[0]
              for weight in ("cos", "sin"))
    val = wi * wj * (re + 1j * im)
    if mi == mj:
        val += eps ** 2 * lam
    return val


def crank_nicolson_reference(apply_op, dim, phi, s, n_steps):
    """Dense Crank-Nicolson stepping of du/ds = -B u from a matrix-free apply."""
    eye = np.eye(dim, dtype=complex)
    B = apply_op(eye)
    h = s / n_steps
    lhs = eye + 0.5 * h * B
    rhs = eye - 0.5 * h * B
    import scipy.linalg as sla

    lu = sla.lu_factor(lhs)
    u = phi.astype(complex).copy()
    for _ in range(n_steps):
        u = sla.lu_solve(lu, rhs @ u)
    return u


def fft_mask_oracle(values, grid_shape, keep_mask):
    """Brute-force frequency masking of a (G^d, n) field."""
    n = values.shape[-1]
    v = values.reshape(*grid_shape, n)
    vhat = np.fft.fftn(v, axes=tuple(range(len(grid_shape)))).reshape(-1, n)
    vhat[~keep_mask] = 0.0
    out = np.fft.ifftn(vhat.reshape(*grid_shape, n),
                       axes=tuple(range(len(grid_shape))))
    return out.reshape(-1, n)


def slope_fit(xs, ys):
    return float(np.polyfit(np.log(np.asarray(xs, float)),
                            np.log(np.asarray(ys, float)), 1)[0])


def _herm(a):
    return 0.5 * (a + a.conj().T)


def hermiticity_defect(a):
    """Relative Hermiticity defect ||A - A*|| / max(||A||, 1e-300)."""
    n = np.linalg.norm(a)
    if n == 0.0:
        return 0.0
    return np.linalg.norm(a - a.conj().T) / n


def _gram_eigh_solve(gram, rhs, kernel_dim):
    """gram^+ rhs from the eigendecomposition of the Hermitian Gram matrix,
    dropping its ``kernel_dim`` smallest eigenvalues."""
    w, v = np.linalg.eigh(_herm(gram))
    inv = np.concatenate([np.zeros(kernel_dim), 1.0 / w[kernel_dim:]])
    return v @ (inv[:, None] * (v.conj().T @ rhs))


def _coker_apply(X0, kernel_basis, w):
    """(I - proj onto Ran X0) @ w, via QR of X0 on the kernel's complement."""
    dim = X0.shape[1]
    n = kernel_basis.shape[1]
    if n == dim:
        return w
    full = np.linalg.qr(np.concatenate(
        [kernel_basis, np.eye(dim, dtype=complex)], axis=1))[0][:, :dim]
    q, _ = np.linalg.qr(X0 @ full[:, n:])
    return w - q @ (q.conj().T @ w)


def dense_threshold(fam, rel_tol=1e-10):
    """Threshold objects of a pencil by full-space dense products.

    The route mirrors the definitions: a full SVD for Ker X0, the Gram
    eigendecomposition for Z and Ztilde, a QR of Ran X0 for R = P_* X1 P,
    and every germ and N block formed as a product of dim x dim matrices
    against P.  Returns a dict of the dense objects: P, n, d0, Z, Ztilde, R,
    S_block, C_block, D_block and N11..N22.
    """
    X0, X1, Y0, Y1, Y2 = (np.asarray(a) for a in
                          (fam.X0, fam.X1, fam.Y0, fam.Y1, fam.Y2))
    Q, Q0, lam = np.asarray(fam.Q), np.asarray(fam.Q0), fam.lam
    dim = X0.shape[1]
    _, sing, vh = np.linalg.svd(np.asarray(X0, dtype=complex))
    small = sing <= rel_tol * max(sing[0], 1.0)
    n = int(np.sum(small)) + (dim - sing.size)
    kb = vh.conj().T[:, dim - n:]
    P = _herm(kb @ kb.conj().T)
    d0 = float(sing[~small][-1] ** 2)
    gram = X0.conj().T @ X0
    Z = -_gram_eigh_solve(gram, X0.conj().T @ (X1 @ P), n)
    Zt = -_gram_eigh_solve(gram, Y0.conj().T @ (Y2 @ P), n)
    R = _coker_apply(X0, kb, X1 @ P)

    def sym(a):
        return a + a.conj().T

    X0Z, X0Zt = X0 @ Z, X0 @ Zt
    X1Z, X1Zt = X1 @ Z, X1 @ Zt
    Y0Z, Y0Zt = Y0 @ Z, Y0 @ Zt
    Y1Z, Y1Zt = Y1 @ Z, Y1 @ Zt
    Y2Z, Y2Zt = Y2 @ Z, Y2 @ Zt
    Y1P, Y2P = Y1 @ P, Y2 @ P
    cross_y = Y2.conj().T @ Y1
    S = P @ (X1.conj().T @ R)
    C = (-X0Z.conj().T @ X0Zt - X0Zt.conj().T @ X0Z
         + P @ (cross_y + cross_y.conj().T) @ P)
    D = -X0Zt.conj().T @ X0Zt + P @ (Q + lam * Q0) @ P
    N11 = sym(X1Z.conj().T @ R)
    N12 = (sym(X1Zt.conj().T @ R) + sym(X1Z.conj().T @ X0Zt)
           + sym(Y2Z.conj().T @ Y0Z) + sym(Y2Z.conj().T @ Y1P)
           + sym(Y2P.conj().T @ Y1Z))
    N21 = (sym(X0Zt.conj().T @ X1Zt) + sym(Y2Z.conj().T @ Y0Zt)
           + sym(Y2Zt.conj().T @ Y0Z) + sym(Y2Zt.conj().T @ Y1P)
           + sym(Y1Zt.conj().T @ Y2P) + sym(Z.conj().T @ Q @ P)
           + lam * sym(Z.conj().T @ Q0 @ P))
    N22 = (sym(Y0Zt.conj().T @ Y2Zt) + sym(Zt.conj().T @ Q @ P)
           + lam * sym(Zt.conj().T @ Q0 @ P))
    return {"P": P, "n": n, "d0": d0, "Z": Z, "Ztilde": Zt, "R": R,
            "S_block": _herm(P @ S @ P), "C_block": _herm(P @ C @ P),
            "D_block": _herm(P @ D @ P), "N11": _herm(N11),
            "N12": _herm(N12), "N21": _herm(N21), "N22": _herm(N22)}


def dense_objects(th):
    """Dense full-space forms of a ThresholdData, keyed as in
    :func:`dense_threshold`: its properties, R = r u* and u (block) u*."""
    names = ("S_block", "C_block", "D_block", "N11", "N12", "N21", "N22")
    blocks = np.concatenate([th.germ_blocks, th.n_blocks])
    dense = {name: th.expand(b) for name, b in zip(names, blocks)}
    dense.update(P=th.P, n=th.n, d0=th.d0, Z=th.Z, Ztilde=th.Ztilde,
                 R=th.r @ th.kernel_basis.conj().T)
    return dense


def grid_rectangles_einsum(rect, theta):
    """X0, X1(theta), Y0, Y1(theta), Y2 of a GridRectangles instance, built
    column by column: every truncated basis vector is pushed to the grid
    through the dense E of fields.eval_matrix, then the pointwise factors
    act by einsum."""
    from parahom import fields as fd

    prob, trunc = rect.problem, rect.trunc
    n, d = prob.n, prob.d
    M = trunc.size
    E = fd.eval_matrix(trunc, rect.grid_shape)

    def to_grid(cols):                      # (M*n', C) -> (G^d, n', C)
        c = cols.shape[1]
        return np.einsum("gm,mnc->gnc", E, cols.reshape(M, -1, c))

    eye_cols = to_grid(np.eye(M * n, dtype=complex))
    bd = fd.symbol_blockdiag(lambda q: prob.b_of(q), trunc, rect.lat)
    X0 = np.einsum("gij,gjc->gic", rect.h, to_grid(bd))
    bth = prob.b_of(np.asarray(theta, dtype=float))
    X1 = np.einsum("gij,jn,gnc->gic", rect.h, bth, eye_cols)
    Y0 = np.concatenate([to_grid(fd.symbol_blockdiag(
        lambda q, j=j: q[j] * np.eye(n), trunc, rect.lat)) for j in range(d)],
        axis=1)
    Y1 = np.concatenate([theta[j] * eye_cols for j in range(d)], axis=1)
    if rect.a_star is None:
        Y2 = np.zeros_like(Y1)
    else:
        Y2 = np.concatenate([np.einsum("gij,gjc->gic", rect.a_star[j],
                                       eye_cols) for j in range(d)], axis=1)
    return {name: a.reshape(-1, M * n) for name, a in
            (("X0", X0), ("X1", X1), ("Y0", Y0), ("Y1", Y1), ("Y2", Y2))}


def _adj(a):
    return np.swapaxes(np.asarray(a).conj(), -1, -2)


def dense_fiber(problem, trunc, k, eps):
    """Fiber matrix with b(D+k) and each (D+k)_j as dense block-diagonal
    matrices (``fields.symbol_blockdiag``) and every term compressed
    separately: bd* [g] bd, [a_j*]* (D+k)_j, [Q] and lam [f* f]."""
    from parahom import fields as fd
    from parahom.fibers import _field_band

    k = np.asarray(k, dtype=float)
    lat, n = problem.lattice, problem.n
    tr_in, F = trunc, None
    if not problem.f_is_identity:
        tr_in = fd.Truncation(trunc.n_modes + _field_band(problem.f_field()),
                              trunc.dimension)
        F = fd.mult_matrix(problem.f_field(), tr_in, trunc)

    def outer(mat):
        return mat if F is None else F.conj().T @ mat @ F

    bd = fd.symbol_blockdiag(problem.b_of, tr_in, lat, k)
    mat = outer(bd.conj().T @ fd.mult_matrix(problem.g, tr_in) @ bd)
    if problem.a is not None:
        cross = sum(outer(fd.mult_matrix(_adj(problem.a[j]), tr_in).conj().T
                          @ fd.symbol_blockdiag(
                              lambda q, j=j: q[j] * np.eye(n), tr_in, lat, k))
                    for j in range(problem.d))
        mat = mat + eps * (cross + cross.conj().T)
    if problem.Qdensity is not None:
        mat = mat + eps ** 2 * outer(fd.mult_matrix(problem.Qdensity, tr_in))
    f = problem.f_field()
    mat = mat + eps ** 2 * problem.lam * fd.mult_matrix(_adj(f) @ f, trunc)
    return _herm(mat)


def assemble_fiber_reference(problem, trunc, k, eps):
    """Fiber matrix assembled term by term at one k: b(D+k) as a block stack
    of the shifted frequencies and every multiplication matrix rebuilt, so no
    coefficient of the (k, eps) polynomial is shared with the pencil."""
    from parahom import fields as fd
    from parahom.fibers import _field_band

    k = np.asarray(k, dtype=float)
    n = problem.n
    tr_in = trunc
    if not problem.f_is_identity:
        tr_in = fd.Truncation(trunc.n_modes + _field_band(problem.f_field()),
                              trunc.dimension)
    freqs = tr_in.freqs(problem.lattice, k)
    bk = problem.b_of(freqs)
    m, n_g = bk.shape[0], bk.shape[1]

    def times_blocks(mat):                  # mat @ blockdiag(bk), broadcast
        return (mat.reshape(-1, m, 1, n_g) @ bk).reshape(mat.shape[0], -1)

    mat = times_blocks(times_blocks(fd.mult_matrix(problem.g, tr_in))
                       .conj().T)
    if problem.a is not None:
        cross = sum(fd.mult_matrix(_adj(problem.a[j]), tr_in).conj().T
                    * np.repeat(freqs[:, j], n) for j in range(problem.d))
        mat = mat + eps * (cross + cross.conj().T)
    if problem.Qdensity is not None:
        mat = mat + eps ** 2 * fd.mult_matrix(problem.Qdensity, tr_in)
    if not problem.f_is_identity:
        F = fd.mult_matrix(problem.f_field(), tr_in, trunc)
        mat = F.conj().T @ mat @ F
    if problem.lam != 0.0:
        q0 = (np.eye(mat.shape[0]) if problem.f_is_identity else fd.mult_matrix(
            _adj(problem.f_field()) @ problem.f_field(), trunc))
        mat = mat + eps ** 2 * problem.lam * q0
    return _herm(mat)


def dense_fiber_corrector(cell, ng, trunc, k, eps, s):
    """Fiber corrector from full matrices: ([Lambda_G] bd(k) + eps
    [LambdaTilde_G]) gp plus its adjoint, minus the closed-form integral on
    the zero-mode block, with a scipy matrix exponential for gp."""
    from scipy.linalg import expm

    from parahom import fields as fd

    problem = cell.problem
    n = problem.n
    k = np.asarray(k, dtype=float)
    H = _herm(cell.f0 @ L_hat_point(cell, k, eps) @ cell.f0)
    z = trunc.zero_index
    sl = slice(z * n, (z + 1) * n)
    gp = np.zeros((trunc.size * n, trunc.size * n), dtype=complex)
    gp[sl, sl] = cell.f0 @ expm(-s * H) @ cell.f0
    bd = fd.symbol_blockdiag(problem.b_of, trunc, problem.lattice, k)
    first = (fd.mult_matrix(cell.LambdaG, trunc) @ bd
             + eps * fd.mult_matrix(cell.LambdaTildeG, trunc)) @ gp
    out = first + first.conj().T
    w, v = np.linalg.eigh(H)
    vh = v.conj().T
    e = np.exp(-w * s)
    diff = w[:, None] - w[None, :]
    same = np.abs(diff) < 1e-12 * max(1.0, np.abs(w).max())
    weights = np.where(same, s * np.sqrt(np.outer(e, e)),
                       (e[None, :] - e[:, None]) / np.where(same, 1.0, diff))
    inner = cell.f0 @ ng_symbol_point(ng, k, eps) @ cell.f0
    out[sl, sl] -= cell.f0 @ (v @ (weights * (vh @ inner @ v)) @ vh) @ cell.f0
    return out


def dense_remainder_norms(cell, ng, trunc, k, eps, s, fiber):
    """Norms of R = f e^{-B s} f* - principal and of R - K from full
    matrices: a full eigh of the fiber matrix, its D x D exponential, the
    principal term from a scipy exponential of the effective block, the
    dense corrector, and max|eigvalsh| of the D x D remainders."""
    from scipy.linalg import expm

    k = np.asarray(k, dtype=float)
    w, v = np.linalg.eigh(fiber.matrix)
    rem = (v * np.exp(-w * s)) @ v.conj().T
    if fiber.f_matrix is not None:
        rem = fiber.f_matrix @ rem @ fiber.f_matrix.conj().T
    n = cell.problem.n
    z = trunc.zero_index
    sl = slice(z * n, (z + 1) * n)
    H = _herm(cell.f0 @ L_hat_point(cell, k, eps) @ cell.f0)
    rem[sl, sl] -= cell.f0 @ expm(-s * H) @ cell.f0
    rem_c = rem - dense_fiber_corrector(cell, ng, trunc, k, eps, s)
    return tuple(float(np.abs(np.linalg.eigvalsh(_herm(r))).max())
                 for r in (rem, rem_c))


def L_hat_point(cell, q, eps):
    """Effective symbol at one frequency q (d,)."""
    p = cell.problem
    q = np.asarray(q, dtype=float)
    bq = p.b_of(q)
    lin = -(bq.conj().T @ cell.V + cell.V.conj().T @ bq) \
        + sum(q[j] * cell.abar_sum[j] for j in range(p.d))
    zero = cell.Qbar - cell.W + p.lam * np.eye(p.n)
    return bq.conj().T @ cell.g0 @ bq + eps * lin + eps ** 2 * zero


def ng_symbol_point(ng, q, eps):
    """Third-order symbol N_G(q, eps) at one frequency q (d,)."""
    q = np.asarray(q, dtype=float)
    bq = ng.problem.b_of(q)
    bqh = bq.conj().T

    def lin(coeffs):
        return sum(q[j] * coeffs[j] for j in range(len(q)))

    MG1b = lin(ng.M_G1_symbols) @ bq
    MG2 = lin(ng.M_G2_symbols)
    t12 = bqh @ ng.T_G0 @ bq + MG1b + MG1b.conj().T
    t21 = MG2 + MG2.conj().T + bqh @ ng.T_G + (bqh @ ng.T_G).conj().T \
        + lin(ng.abar_tilde)
    return (bqh @ lin(ng.M_G_symbols) @ bq + eps * t12 + eps ** 2 * t21
            + eps ** 3 * ng.N22)


def block_stack_problems():
    """(name, problem, truncation) on which the block-stack code is compared
    with the dense references: every term active, d = 1 and 2, one problem
    with a non-identity weight f, and one n = m = 2 system whose f0, B0 and
    N do not commute."""
    from parahom import cell as cl
    from parahom import fields as fd
    from parahom import presets
    from parahom import scalar_example as se
    from parahom.fields import Truncation
    from parahom.lattice import cubic_lattice

    grid = (32,)
    weighted = cl.PeriodicProblem(
        cubic_lattice(1), np.array([[[1.0]]]),
        fd.harmonic_field(grid, 1, 1, [((1,), [[0.6]], 0.3)], const=[[2.0]]),
        f=fd.harmonic_field(grid, 1, 1, [((1,), [[0.3]], 1.1)], const=[[1.2]]),
        a=np.stack([fd.harmonic_field(grid, 1, 1,
                                      [((1,), [[0.2 + 0.1j]], 0.4)])]),
        Qdensity=fd.harmonic_field(grid, 1, 1, [((2,), [[0.3]], 0.2)],
                                   const=[[0.1]]),
        lam=2.0)
    eye = np.eye(2)
    system = cl.PeriodicProblem(
        cubic_lattice(1), np.array([[[1.0, 0.3], [0.0, 1.0]]]),
        fd.harmonic_field(grid, 2, 2, [((1,), [[0.5, 0.2 + 0.1j],
                                               [0.2 - 0.1j, 0.3]], 0.7)],
                          const=4.0 * eye),
        f=fd.harmonic_field(grid, 2, 2, [((1,), [[0.3, 0.1], [0.2, -0.2]],
                                          0.4)],
                            const=[[1.2, 0.3], [0.1, 0.9]]),
        a=np.stack([fd.harmonic_field(grid, 2, 2,
                                      [((1,), [[0.2 + 0.1j, 0.1],
                                               [-0.15j, 0.1]], 0.5)])]),
        Qdensity=fd.harmonic_field(grid, 2, 2, [((2,), [[0.3, 0.1j],
                                                       [-0.1j, 0.2]], 0.2)],
                                   const=0.1 * eye),
        lam=6.0)
    scalar, _ = se.build_scalar_problem(se.scalar_preset(d=2, n_modes=5,
                                                         seed=201))
    return [("osc1d_full", presets.osc1d_full(n_modes=12), Truncation(12, 1)),
            ("random_fiber_2d", presets.random_fiber_instance(7, d=2, n_modes=6),
             Truncation(6, 2)),
            ("scalar_example_2d", scalar, Truncation(5, 2)),
            ("weighted_f_1d", weighted, Truncation(8, 1)),
            ("weighted_system_1d", system, Truncation(8, 1))]


# -- grid-space evolution formulas ------------------------------------------
# Every box multiplier below is its own FFT pair and every flow acts node by
# node in grid space, as the package computed them before its weighted sums
# moved to spectral coordinates.


def _b0_flow(setup):
    """Flow of B0 alone over the box frequencies: the oracles write the f0
    sandwich out, apart from ``setup.effective_flow``."""
    from parahom import linalg

    return linalg.HermitianFlow(setup.cell.B0_symbol(setup.freq_zeta,
                                                     setup.eps))


def _flow_symbol(setup, s):
    """f0 exp(-B0 s/eps^2) f0."""
    f0 = setup.cell.f0
    return f0 @ _b0_flow(setup).expm(s / setup.eps ** 2) @ f0


def _integral_symbol(setup, s):
    """f0 J f0, J = int_0^t e^{-B0(t-r)} f0 N f0 e^{-B0 r} dr, t = s/eps^2."""
    f0 = setup.cell.f0
    inner = f0 @ setup.ng_grid @ f0
    return f0 @ _b0_flow(setup).integral(inner, s / setup.eps ** 2) @ f0


def _box_multiplier(setup, values, symbol):
    n = values.shape[-1]
    axes = tuple(range(setup.d))
    vhat = np.fft.fftn(values.reshape(*setup.box_shape, n), axes=axes)
    vhat = np.einsum("gpq,gq->gp", symbol, vhat.reshape(-1, n))
    return np.fft.ifftn(vhat.reshape(*setup.box_shape, -1),
                        axes=axes).reshape(-1, vhat.shape[-1])


def _grid_pair(setup, phi, s, smooth):
    """(oscillating pair, smoothed phi): (Lambda_G b(D) + eps LambdaTilde_G)
    u0 plus the homogenized flow of the adjoint multiplier applied to phi."""
    eps = setup.eps
    mask = setup.zone_mask
    phi_s = fft_mask_oracle(phi, setup.box_shape, mask) if smooth else phi
    flow_sym = _flow_symbol(setup, s)
    u0s = _box_multiplier(setup, phi_s, flow_sym)
    lam_g, lam_gt = setup.tiled_lambda_g, setup.tiled_lambda_tilde_g
    bd_u0 = _box_multiplier(setup, u0s, setup.b_grid)
    t1 = np.einsum("gpq,gq->gp", lam_g, bd_u0) \
        + eps * np.einsum("gpq,gq->gp", lam_gt, u0s)
    wadj = np.einsum("gqp,gq->gp", lam_g.conj(), phi)
    wadj = _box_multiplier(setup, wadj, _adj(setup.b_grid))
    wadj = wadj + eps * np.einsum("gqp,gq->gp", lam_gt.conj(), phi)
    if smooth:
        wadj = fft_mask_oracle(wadj, setup.box_shape, mask)
    return t1 + _box_multiplier(setup, wadj, flow_sym), phi_s


def grid_corrector(setup, phi, s, smooth):
    """K_eps(s) phi: the oscillating pair minus the integral term, whose
    symbol is the closed form f0 J(s) f0 of the effective flow."""
    pair, phi_s = _grid_pair(setup, phi, s, smooth)
    j_sym = _integral_symbol(setup, s)
    return (pair - _box_multiplier(setup, phi_s, j_sym)) / setup.eps


def grid_commuted_corrector(setup, phi, s):
    """Plain corrector of a scalar problem with the integral term in its
    commuted form s N exp(-B0 s)."""
    f0sq = setup.cell.f0 @ setup.cell.f0
    pair, _ = _grid_pair(setup, phi, s, smooth=False)
    t3 = s / setup.eps ** 2 * _box_multiplier(
        setup, phi, np.einsum("pq,gqr,grt->gpt", f0sq, setup.ng_grid,
                              _flow_symbol(setup, s)))
    return (pair - t3) / setup.eps


def duhamel_per_node(setup, phi, source, s, p_norm, n_steps):
    """u_eps, u0, corrected and the step-halving drift of the driven problem:
    composite midpoint rule at n and 2n steps, each node evolved to the end
    time in grid space.  The fine flow comes from a full eigendecomposition
    of every fiber matrix, apart from ``setup.fine_flow``."""
    from parahom import linalg

    eps = setup.eps
    flows = [linalg.HermitianFlow(setup.fiber(idx).matrix)
             for idx in range(setup.n_fibers)]
    fvals = setup.tiled_f

    def fine(values, t):
        if fvals is not None:
            values = np.einsum("gqp,gq->gp", fvals.conj(), values)
        coeffs = setup.decompose(values)
        out = np.stack([flow.apply(t / eps ** 2, c.reshape(-1))
                        for flow, c in zip(flows, coeffs)])
        u = setup.recompose(out.reshape(coeffs.shape))
        return u if fvals is None else np.einsum("gpq,gq->gp", fvals, u)

    def hom(values, t):
        return _box_multiplier(setup, values, _flow_symbol(setup, t))

    def integrals(n):
        h = s / n
        acc = np.zeros((3, *phi.shape), dtype=complex)
        for t in (np.arange(n) + 0.5) * h:
            f_t = source(t)
            acc[0] += h * fine(f_t, s - t)
            acc[1] += h * hom(f_t, s - t)
            if p_norm > 2:
                acc[2] += h * grid_corrector(setup, f_t, s - t, smooth=True)
        return acc

    i_f = integrals(n_steps)[0]
    i_f2, i_h2, i_corr2 = integrals(2 * n_steps)
    u0 = hom(phi, s) + i_h2
    return {"u_eps": fine(phi, s) + i_f2, "u0": u0,
            "corrected": u0 + eps * (grid_corrector(setup, phi, s, True)
                                     + i_corr2),
            "quad_drift": setup.box_norm(i_f - i_f2) / setup.box_norm(i_f2)}


def zero_mean_solve(A, rhs, trunc):
    """(M, n, c) coefficients of the zero-mean solution of A x = rhs: the
    zero-mode block is dropped and the rest goes to one dense LU solve."""
    n, c = rhs.shape[1:]
    keep = np.ones(A.shape[0], dtype=bool)
    z = trunc.zero_index
    keep[z * n:(z + 1) * n] = False
    x = np.zeros((A.shape[0], c), dtype=complex)
    x[keep] = np.linalg.solve(A[np.ix_(keep, keep)], rhs.reshape(-1, c)[keep])
    return x.reshape(rhs.shape)


def symbol_bounds_loop(problem, n_theta=64, rng=None):
    """alpha_0, alpha_1 of ``PeriodicProblem.symbol_bounds`` from one draw,
    one symbol and one eigvalsh per sampled direction."""
    rng = np.random.default_rng(1234) if rng is None else rng
    lo, hi = np.inf, 0.0
    for _ in range(n_theta):
        th = rng.standard_normal(problem.d)
        th /= np.linalg.norm(th)
        bb = problem.b_of(th)
        w = np.linalg.eigvalsh(bb.conj().T @ bb)
        lo, hi = min(lo, w[0]), max(hi, w[-1])
    if problem.d == 1:
        bb = problem.b_of([1.0])
        w = np.linalg.eigvalsh(bb.conj().T @ bb)
        lo, hi = w[0], w[-1]
    return float(lo), float(hi)


def difference_index_full(rows, cols, grid):
    """FFT-bin index of every mode difference as full (M_rows, M_cols)
    integer arrays, one per axis: the gather before the per-axis index of
    fields.difference_index, taking the same Truncations."""
    diff = rows.modes[:, None, :] - cols.modes[None, :, :]
    return tuple(diff[..., ax] % grid[ax] for ax in range(len(grid)))


def eval_matrix_direct(trunc, grid_shape):
    """E[p, m] = G^{-d/2} exp(2 pi i <mode_m, frac_p>), one complex
    exponential per (node, mode) from the fractional node coordinates."""
    axes = [np.arange(g) / g for g in grid_shape]
    mesh = np.meshgrid(*axes, indexing="ij")
    frac = np.stack([a.ravel() for a in mesh], axis=-1)
    return (np.exp(2j * np.pi * (frac @ trunc.modes.T))
            / np.sqrt(np.prod(grid_shape)))


def cross_validation_dense_norms(problem, trunc, theta, tau, constants):
    """The five residuals of ``fibers.cross_validate_abstract`` formed as
    dense dim x dim matrices: the threshold objects in full-space form minus
    their explicit targets placed on the zero-mode block, each normed by a
    full SVD."""
    from parahom import abstract as ab
    from parahom import cell as cl
    from parahom import fibers as fb
    from parahom import fields as fd

    theta = np.asarray(theta, dtype=float)
    theta = theta / np.linalg.norm(theta)
    th = ab.compute_threshold(
        fb.hatted_family(problem, trunc, theta, constants,
                         fb.rectangle_grid(problem, trunc)),
        delta=constants.delta, tau0=constants.tau0)
    sol = cl.solve_cell_problems(problem, trunc)
    ng = cl.ng_coefficients(problem, sol)
    n, dim = problem.n, trunc.size * problem.n
    zero = slice(trunc.zero_index * n, (trunc.zero_index + 1) * n)

    def on_zero_block(block, rows=zero):
        out = np.zeros((dim, dim), dtype=complex)
        out[rows, zero] = block
        return out

    def on_zero_columns(field):
        return on_zero_block(
            fd.mult_matrix(field, trunc, fd.Truncation(0, problem.d)),
            rows=slice(None))

    bth = problem.b_of(theta)
    t, eps = tau * 0.8, tau * 0.6
    k = t * theta
    residuals = {
        "Z": th.Z - on_zero_columns(sol.Lambda @ bth),
        "Ztilde": th.Ztilde - on_zero_columns(sol.LambdaTilde),
        "germ": th.S_block - on_zero_block(bth.conj().T @ sol.g0 @ bth),
        "L": (ab.L_operator(th, t, eps)
              - on_zero_block(sol.L_hat_symbol(k, eps))),
        "N": ab.n_operator(th, t, eps) - on_zero_block(ng.symbol(k, eps)),
    }
    return {name: float(np.linalg.norm(res, 2))
            for name, res in residuals.items()}


def x0_svd_reference(X0, rel_tol=1e-10):
    """(sigma_r, V_r, u) of X0 from a full SVD of its R factor: the singular
    values above rel_tol * max(sigma_1, 1), their right singular vectors
    and an orthonormal basis u of the rest, Ker X0."""
    R = np.linalg.qr(np.asarray(X0, dtype=complex), mode="r")
    sing, vh = np.linalg.svd(R, full_matrices=True)[1:]
    smax = sing[0] if sing.size else 0.0
    r = int(np.sum(sing > rel_tol * max(smax, 1.0)))
    V = vh.conj().T
    return sing[:r], V[:, :r], V[:, r:]


def gram_pinv_reference(sing, V_r, rhs):
    """(X0*X0)^+ rhs = V_r diag(sigma_r^-2) V_r* rhs from
    :func:`x0_svd_reference`."""
    return V_r @ ((V_r.conj().T @ rhs) / sing[:, None] ** 2)


def dense_remainder_svd(B, s, principal, corrector, outer=None):
    """||outer e^{-Bs} outer* - (principal + corrector)||_2 with e^{-Bs} from
    scipy's scaling-and-squaring expm and the norm from a full SVD."""
    exact = expm(-s * B)
    if outer is not None:
        exact = outer @ exact @ outer.conj().T
    return float(np.linalg.norm(exact - (principal + corrector), 2))


def threshold_order_norms_svd(fam, th, tau, theta):
    """The four residuals of ``abstract.threshold_order_norms`` from the
    dense Z(theta) = theta_1 Z + theta_2 Ztilde and a dense spectral
    projector, each normed by a full SVD."""
    from parahom import abstract as ab

    B = fam.B(tau * theta[0], tau * theta[1])
    w, v = np.linalg.eigh(B)
    vv = v[:, w <= 2.0 * th.delta]
    F = vv @ vv.conj().T
    Z = theta[0] * th.Z + theta[1] * th.Ztilde
    S = ab.L_operator(th, *theta)
    K = Z @ S + S @ Z.conj().T + ab.n_operator(th, *theta)
    BF = B @ F
    residuals = {"F_minus_P": F - th.P,
                 "F_minus_P_tauF1": F - th.P - tau * (Z + Z.conj().T),
                 "BF_minus_SP": BF - tau ** 2 * S,
                 "BF_minus_SP_K": BF - tau ** 2 * S - tau ** 3 * K}
    return {name: float(np.linalg.norm(res, 2))
            for name, res in residuals.items()}
