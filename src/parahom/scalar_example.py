"""Scalar periodic operator with metric, magnetic and singular electric terms.

The operator (D - A)^* g (D - A) + eps^{-1} v^eps + Vcal^eps + lam is brought
to factorized form with n = 1, m = d, b(D) = D, first-order coefficients
a_j = -eta_j + i zeta_j (eta = gA, zeta = -grad Phi, Laplace Phi = v) and the
density Vcal + <gA, A>.  The closed-form effective data and the third-order
coefficients are computed directly from real cell solves and cross-checked
against the generic pipeline.
"""

from dataclasses import dataclass

import numpy as np

from . import fields as fd
from .cell import (PeriodicProblem, adj, coeff_vector, galerkin_matrix,
                   spectral_derivative, solve_zero_mean)
from .errors import DataError, MeanNotZero
from .evolution import corrector_apply
from .lattice import Lattice, cubic_lattice
from .presets import sampling_grid


@dataclass
class ScalarInput:
    lattice: Lattice
    g: np.ndarray        # (*grid, d, d) real symmetric positive definite
    A: np.ndarray        # (*grid, d) real
    v: np.ndarray        # (*grid,) real, zero mean
    Vcal: np.ndarray     # (*grid,) real
    lam: float = 0.0

    @property
    def d(self):
        return self.lattice.dimension

    @property
    def grid_shape(self):
        return self.g.shape[:-2]

    def validate(self):
        mean_v = abs(np.mean(self.v))
        if mean_v > 1e-12 * max(np.abs(self.v).max(), 1.0):
            raise MeanNotZero(f"mean of v is {mean_v:.3e}")
        sym = np.abs(self.g - np.swapaxes(self.g, -1, -2)).max()
        if sym > 1e-12 * max(np.abs(self.g).max(), 1.0):
            raise DataError("g must be symmetric")


def _laplace_inverse(values, lattice):
    """Zero-mean solution of Laplace(Phi) = values, spectral inversion."""
    d = lattice.dimension
    vhat = np.fft.fftn(values)
    norms = np.sum(fd.grid_freqs(values.shape, lattice) ** 2, axis=-1)
    norms_safe = np.where(norms == 0.0, 1.0, norms)
    phat = -vhat / norms_safe
    phat[(0,) * d] = 0.0
    return np.fft.ifftn(phat)


def _gradient(values, lattice):
    """(grid..., d) Cartesian gradient of a scalar field."""
    comps = [spectral_derivative(values[..., None, None], lattice, j)[..., 0, 0]
             for j in range(lattice.dimension)]
    return 1j * np.stack(comps, axis=-1)     # partial_j = i D_j


def build_scalar_problem(inp):
    """Factorized PeriodicProblem plus the derived auxiliary fields."""
    inp.validate()
    d = inp.d
    phi = _laplace_inverse(inp.v, inp.lattice)
    zeta = -_gradient(phi, inp.lattice)
    # relation check: -sum_j d_j zeta_j = v by construction
    div_zeta = sum(_gradient(zeta[..., j], inp.lattice)[..., j]
                   for j in range(d))
    defect = np.abs(-div_zeta - inp.v).max()
    eta = np.einsum("...ij,...j->...i", inp.g, inp.A)
    a = np.stack([(-eta[..., j] + 1j * zeta[..., j])[..., None, None]
                  for j in range(d)])
    qdens = (inp.Vcal
             + np.einsum("...i,...i->...", eta, inp.A))[..., None, None]
    b = np.zeros((d, d, 1))
    for j in range(d):
        b[j, j, 0] = 1.0
    problem = PeriodicProblem(inp.lattice, b, inp.g, a=a, Qdensity=qdens,
                              lam=inp.lam)
    return problem, {"Phi": phi, "zeta": zeta, "eta": eta,
                     "divergence_defect": float(defect)}


@dataclass
class ScalarEffective:
    Psi: np.ndarray            # (*grid, d) real
    LambdaTilde1: np.ndarray   # (*grid,)
    LambdaTilde2: np.ndarray
    V1: np.ndarray             # (d,)
    V2: np.ndarray
    W: float
    A0: np.ndarray             # (d,)
    V0: float
    g0: np.ndarray             # (d, d)
    g_tilde: np.ndarray        # (*grid, d, d)


def scalar_effective(inp, problem, trunc):
    """Effective data from the real closed-form cell recipes."""
    d = inp.d
    grid = inp.grid_shape
    lat = inp.lattice
    bd = problem.b_of(trunc.freqs(problem.lattice))

    # one solve for psi_j (div g (grad psi_j + e_j) = 0, j = 1..d) and the
    # two driven scalar problems
    eta = np.einsum("...ij,...j->...i", inp.g, inp.A)
    div_eta = sum(_gradient(eta[..., j], lat)[..., j] for j in range(d))
    rhs = np.concatenate(
        [1j * (adj(bd) @ coeff_vector(inp.g, trunc)),
         -coeff_vector(inp.v[..., None, None], trunc),
         -coeff_vector(div_eta[..., None, None], trunc)], axis=-1)
    sol = solve_zero_mean(galerkin_matrix(problem, trunc, bd), rhs, trunc,
                          grid)[..., 0, :]
    psi, lt1, lt2 = sol[..., :d], sol[..., d], sol[..., d + 1]

    grad_psi = np.stack([_gradient(psi[..., j], lat) for j in range(d)],
                        axis=-2)                     # (grid, j, l) = d_l psi_j
    grad_lt1 = _gradient(lt1, lat)
    grad_lt2 = _gradient(lt2, lat)
    V1 = fd.mean_field(
        np.einsum("...jl,...lr,...r->...j", grad_psi, inp.g, grad_lt2)
        [..., None])[..., 0]
    V2 = -fd.mean_field(
        np.einsum("...jl,...lr,...r->...j", grad_psi, inp.g, grad_lt1)
        [..., None])[..., 0]
    W = fd.mean_field(
        (np.einsum("...lr,...r,...l->...", inp.g, grad_lt1, grad_lt1)
         + np.einsum("...lr,...r,...l->...", inp.g, grad_lt2, grad_lt2))
        [..., None, None])[0, 0]

    eye = np.eye(d)
    g_tilde = np.einsum("...lr,...rj->...lj",
                        inp.g, np.swapaxes(grad_psi, -1, -2) + eye)
    g0 = fd.mean_field(g_tilde)
    gA_bar = fd.mean_field(eta[..., None])[..., 0]
    A0 = np.linalg.solve(g0, np.real(V1 + gA_bar))
    qbar = float(np.real(fd.mean_field(
        (inp.Vcal + np.einsum("...i,...i->...", eta, inp.A))
        [..., None, None])[0, 0]))
    V0 = qbar - float(np.real(A0 @ g0 @ A0)) - float(np.real(W))
    return ScalarEffective(np.real(psi), lt1, lt2, np.real(V1), np.real(V2),
                           float(np.real(W)), A0, V0,
                           np.real(g0), np.real(g_tilde))


def scalar_N_coefficients(inp, eff):
    """Quadratic/linear/constant coefficients of the third-order symbol."""
    d = inp.d
    lat = inp.lattice
    g = np.real(inp.g)
    psi = eff.Psi
    lt1 = np.real(eff.LambdaTilde1)
    lt2 = np.real(eff.LambdaTilde2)
    eta = np.einsum("...ij,...j->...i", g, inp.A)
    grad_lt1 = np.real(_gradient(lt1 + 0j, lat))
    grad_lt2 = np.real(_gradient(lt2 + 0j, lat))
    grad_psi = np.real(np.stack(
        [_gradient(psi[..., j] + 0j, lat) for j in range(d)], axis=-2))
    gt = np.real(eff.g_tilde)
    v = inp.v

    def mean(x):
        return float(np.mean(np.real(x)))

    N12 = np.zeros((d, d))
    for k in range(d):
        for l in range(d):
            term = 2.0 * np.mean(lt1 * gt[..., k, l]) \
                + np.mean(v * psi[..., k] * psi[..., l])
            for j in range(d):
                term -= np.mean((g[..., j, l] * psi[..., k]
                                 + g[..., j, k] * psi[..., l])
                                * grad_lt1[..., j])
            N12[k, l] = term
    # only the symmetric part acts through D_k D_l; symmetrize so the stored
    # coefficients carry the k <-> l symmetry explicitly
    N12 = 0.5 * (N12 + N12.T)
    N21 = np.zeros(d)
    for k in range(d):
        term = 0.0
        for j in range(d):
            term += 2.0 * np.mean(g[..., j, k]
                                  * (lt1 * grad_lt2[..., j]
                                     - lt2 * grad_lt1[..., j]))
        term += 2.0 * mean(psi[..., k]
                           * np.einsum("...i,...i->...", eta, grad_lt1))
        term -= 2.0 * mean(lt1 * np.einsum("...i,...i->...",
                                           eta, grad_psi[..., k, :]))
        term += 2.0 * mean(v * lt2 * psi[..., k])
        term -= 4.0 * mean(eta[..., k] * lt1)
        N21[k] = term
    q = np.real(inp.Vcal + np.einsum("...i,...i->...", eta, inp.A))
    N22 = (2.0 * mean(lt2 * np.einsum("...i,...i->...", eta, grad_lt1))
           - 2.0 * mean(lt1 * np.einsum("...i,...i->...", eta, grad_lt2))
           + mean(v * (lt1 ** 2 + lt2 ** 2))
           + 2.0 * mean(lt1 * (q + inp.lam)))
    return {"N12": N12, "N21": N21, "N22": float(N22)}


def scalar_N_symbol(coeffs, xi):
    """Scalar third-order symbol sum N12_kl xi_k xi_l + N21_k xi_k + N22."""
    xi = np.asarray(xi, dtype=float)
    return float(xi @ coeffs["N12"] @ xi + coeffs["N21"] @ xi + coeffs["N22"])


def commuted_corrector_apply(setup, phi, s):
    """Plain corrector via the commuted form (scalar symbols commute):

    (Psi^eps grad + LambdaTilde^eps) u0 + flow (.)* phi - s N exp(-B0 s) phi,

    i.e. the generic plain corrector with its integral term
    int_0^s e^{-B0(s-r)} N e^{-B0 r} dr replaced by s N e^{-B0 s}.
    """
    eps = setup.eps
    cell = setup.cell
    if cell.problem.n != 1:
        raise ValueError("commuted corrector needs a scalar problem")
    generic = corrector_apply(setup, phi, s, variant="without_smoothing")
    flow, t = setup.effective_flow, s / eps ** 2
    f0sq = cell.f0 @ cell.f0
    t3 = t * np.einsum("pq,gqr,grt->gpt", f0sq, setup.ng_grid, flow.expm(t))
    diff = flow.integral(setup.ng_grid, t) - t3
    return generic + setup.apply_symbol(phi, diff) / eps


# ---------------------------------------------------------------------------
# preset


def scalar_preset(d=2, n_modes=8, seed=0):
    """Random-harmonic scalar input on the cubic lattice, lambda = 6; two
    harmonics per field, amplitude 0.4/d (g), 0.5 (A, Vcal), 0.8 (v)."""
    rng = np.random.default_rng(seed)
    lat = cubic_lattice(d)
    grid = sampling_grid(n_modes, d)
    axes = [np.arange(g) / g for g in grid]
    mesh = np.meshgrid(*axes, indexing="ij")

    def scalar_harmonics(amp, zero_mean=False):
        out = np.zeros(grid)
        for _ in range(2):
            h = rng.integers(-2, 3, size=d)
            if not h.any():
                h[0] = 1
            phase = rng.uniform(0, 2 * np.pi)
            arg = sum(2 * np.pi * h[ax] * mesh[ax] for ax in range(d)) + phase
            out += amp / 2 * np.cos(arg)
        if zero_mean:
            out -= out.mean()
        return out

    gmat = np.zeros((*grid, d, d))
    for i in range(d):
        gmat[..., i, i] = 1.0
    pert = np.zeros((*grid, d, d))
    for i in range(d):
        for j in range(i, d):
            w = scalar_harmonics(0.4 / d)
            pert[..., i, j] += w
            pert[..., j, i] += w * (i != j)
    gmat = gmat * (1.0 + 1.5 * np.abs(pert).max()) + pert
    A = np.stack([scalar_harmonics(0.5) for _ in range(d)], axis=-1)
    v = scalar_harmonics(0.8, zero_mean=True)
    Vcal = scalar_harmonics(0.5)
    return ScalarInput(lat, gmat, A, v, Vcal, 6.0)
