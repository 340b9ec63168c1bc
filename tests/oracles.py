"""Independent reference computations used to freeze expected test values.

Each oracle takes a deliberately different route from the implementation it
checks: adaptive quadrature against closed forms, scipy null spaces against
the SVD kernel detector, collocation Crank-Nicolson stepping against Bloch
synthesis, brute-force Voronoi geometry against lattice formulas.
"""

import numpy as np
from scipy.integrate import quad, quad_vec
from scipy.linalg import null_space


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


def voronoi_radii(dual_basis):
    """Inradius/circumradius of the origin Voronoi cell by brute force."""
    from itertools import product

    from scipy.spatial import Voronoi

    d = dual_basis.shape[0]
    idx = list(product(range(-3, 4), repeat=d))
    pts = np.array([np.asarray(i, float) @ dual_basis for i in idx])
    vor = Voronoi(pts)
    region = vor.regions[vor.point_region[idx.index((0,) * d)]]
    verts = vor.vertices[region]
    r1 = float(np.max(np.linalg.norm(verts, axis=1)))
    r0 = 0.5 * min(np.linalg.norm(np.asarray(i, float) @ dual_basis)
                   for i in idx if any(i))
    return r0, r1


def harmonic_mean_quad(gfun, tol=1e-12):
    """(int_0^1 g(x)^{-1} dx)^{-1} by adaptive quadrature."""
    val, _ = quad(lambda x: 1.0 / gfun(x), 0.0, 1.0, epsabs=tol, epsrel=tol)
    return 1.0 / val


def fiber_entry_quad(gfun, k, eps, lam, mi, mj, tol=1e-11):
    """<(g (D+k) e_j, (D+k) e_i)> + eps^2 lam delta_ij for 1D scalar fibers.

    Modes e_m(x) = exp(2 pi i m x) on the unit cell; direct quadrature.
    """
    wi, wj = 2 * np.pi * mi + k, 2 * np.pi * mj + k

    def re_im(fun):
        re, _ = quad(lambda x: fun(x).real, 0, 1, epsabs=tol, epsrel=tol, limit=400)
        im, _ = quad(lambda x: fun(x).imag, 0, 1, epsabs=tol, epsrel=tol, limit=400)
        return re + 1j * im

    val = re_im(lambda x: gfun(x) * wj * wi
                * np.exp(2j * np.pi * (mj - mi) * x))
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
    against P.  Returns a dict keyed by the ThresholdData field names.
    """
    X0, X1, Y0, Y1, Y2 = fam.X0, fam.X1, fam.Y0, fam.Y1, fam.Y2
    Q, Q0, lam = fam.Q, fam.Q0, fam.lam
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


def grid_rectangles_einsum(rect, theta):
    """X0, X1(theta), Y0, Y1(theta), Y2 of a GridRectangles instance, built
    column by column: every truncated basis vector is pushed to the grid
    through E, then the pointwise factors act by einsum."""
    from parahom import fields as fd

    prob, trunc = rect.problem, rect.trunc
    n, d = prob.n, prob.d
    M = trunc.size

    def to_grid(cols):                      # (M*n', C) -> (G^d, n', C)
        c = cols.shape[1]
        return np.einsum("gm,mnc->gnc", rect.E, cols.reshape(M, -1, c))

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
