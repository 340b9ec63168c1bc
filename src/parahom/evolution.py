"""Semigroup evolution on a periodic box: fine flow by Bloch synthesis,
homogenized flow as a Fourier multiplier, correctors, and source terms.

Everything is stored in the scaled picture: the physical box [0, L)^d with
L = eps * n_cells * period is relabeled to y = x/eps, so fields live on the
torus of n_cells lattice cells with G = n_cells*(2*N+1) grid points per axis.
The scaling transformation is unitary, so L2 norms and relative errors agree
with the physical picture.  The fine flow at physical time s applies the
fiber exponentials at time s/eps^2.
"""

from dataclasses import dataclass

import numpy as np

from . import fields as fd
from . import fibers as fb
from . import linalg
from .cell import ng_coefficients, solve_cell_problems
from .errors import (InsufficientDecades, NonPositiveEffective,
                     QuadratureUnderResolved, RegimeViolation)


def _signed_residue(m, n_cells):
    half = n_cells // 2
    return ((m + half) % n_cells) - half


def fiber_quasimomenta(lattice, n_cells):
    """Quasimomenta of the fibers of a box of n_cells^d cells, (n_cells^d, d)
    in fiber-id order: the residues r in [-(n_cells//2), n_cells - n_cells//2)
    per axis, raveled, times dual_basis / n_cells."""
    d = lattice.dimension
    r = np.arange(n_cells) - n_cells // 2
    rs = np.stack(np.meshgrid(*[r] * d, indexing="ij"), axis=-1)
    return rs.reshape(-1, d) @ (lattice.dual_basis / n_cells)


@dataclass
class EvolutionSetup:
    """Box discretization bound to one (problem, cell solution, eps).

    Fibers are evaluated from one fiber pencil and the fine flow is one
    stacked eigendecomposition over all box fibers, both built on first use.
    """

    cell: "object"              # CellSolution
    ng: "object"                # NGCoefficients
    constants: "object"         # ProblemConstants
    eps: float
    n_cells: int
    trunc: fd.Truncation

    def __post_init__(self):
        problem = self.cell.problem
        if not problem.lattice.is_rectangular:
            raise NotImplementedError("evolution boxes need rectangular lattices")
        d = problem.lattice.dimension
        m_cell = 2 * self.trunc.n_modes + 1
        self.box_shape = (self.n_cells * m_cell,) * d
        self.d = d
        self.n = problem.n
        self._build_index_maps()
        self._pencil = None
        self._fine_flow = None
        self._zone_mask = None
        self._hom_flow = None
        self._nsym_grid = None
        self._b_grid = None
        self._tiles = {}

    # -- frequency bookkeeping ------------------------------------------------

    def _build_index_maps(self):
        d, n_cells = self.d, self.n_cells
        N = self.trunc.n_modes
        axes = [np.fft.fftfreq(g, 1.0 / g).astype(int) for g in self.box_shape]
        mesh = np.meshgrid(*axes, indexing="ij")
        m_idx = np.stack([a.ravel() for a in mesh], axis=-1)   # (G^d, d)
        r = _signed_residue(m_idx, n_cells)
        j = (m_idx - r) // n_cells
        if np.abs(j).max() > N:
            raise ValueError("box frequency fell outside the cell truncation")
        self.freq_r = r                     # per-axis quasimomentum residues
        self.freq_fiber = np.ravel_multi_index(
            (r + n_cells // 2).T, (n_cells,) * d)
        self.freq_modepos = np.ravel_multi_index((j + N).T, (2 * N + 1,) * d)
        lat = self.cell.problem.lattice
        self.freq_zeta = m_idx @ (lat.dual_basis / n_cells)    # scaled frequency
        self.fiber_k = fiber_quasimomenta(lat, n_cells)

    @property
    def n_fibers(self):
        return self.n_cells ** self.d

    def box_volume(self):
        return self.cell.problem.lattice.cell_volume * self.n_fibers

    def box_norm(self, values):
        """L2 norm over the box of a (G^d, n) grid-values array."""
        g_total = int(np.prod(self.box_shape))
        return float(np.linalg.norm(values) * np.sqrt(self.box_volume() / g_total))

    def random_band_limited(self, rng, band=None):
        """Random field with box frequencies limited to |m| <= band per axis."""
        g = self.box_shape[0]
        band = band if band is not None else g // 4
        coeffs = np.zeros((*self.box_shape, self.n), dtype=complex)
        axes = [np.fft.fftfreq(gg, 1.0 / gg).astype(int) for gg in self.box_shape]
        mesh = np.meshgrid(*axes, indexing="ij")
        mask = np.ones(self.box_shape, dtype=bool)
        for a in mesh:
            mask &= np.abs(a) <= band
        vals = rng.standard_normal((*self.box_shape, self.n)) \
            + 1j * rng.standard_normal((*self.box_shape, self.n))
        coeffs[mask] = vals[mask]
        out = np.fft.ifftn(coeffs, axes=tuple(range(self.d)))
        flat = out.reshape(-1, self.n)
        return flat / max(self.box_norm(flat), 1e-300)

    # -- Bloch transform ------------------------------------------------------

    def decompose(self, values):
        """Grid values (G^d, n) -> per-fiber coefficient array (F, M, n)."""
        v = values.reshape(*self.box_shape, self.n)
        vhat = np.fft.fftn(v, axes=tuple(range(self.d))).reshape(-1, self.n)
        out = np.zeros((self.n_fibers, self.trunc.size, self.n), dtype=complex)
        out[self.freq_fiber, self.freq_modepos] = vhat
        return out

    def recompose(self, fiber_coeffs):
        vhat = fiber_coeffs[self.freq_fiber, self.freq_modepos]
        v = np.fft.ifftn(vhat.reshape(*self.box_shape, self.n),
                         axes=tuple(range(self.d)))
        return v.reshape(-1, self.n)

    # -- fiber flows ----------------------------------------------------------

    def fiber(self, idx):
        """FiberOperator of box fiber ``idx``, evaluated afresh."""
        if self._pencil is None:
            self._pencil = fb.FiberPencil(self.cell.problem, self.trunc)
        return self._pencil.fiber(self.fiber_k[idx], self.eps, self.constants,
                                 check=False)

    def fine_flow(self):
        """Stacked flow of all box fibers: w (F, D), v (F, D, D).

        One eigh per fiber into the preallocated stack, so no (F, D, D) stack
        of fiber matrices is formed; the spectra are held to the fiber floor
        (PositivityViolation).
        """
        if self._fine_flow is None:
            dim = self.trunc.size * self.n
            w = np.empty((self.n_fibers, dim))
            v = np.empty((self.n_fibers, dim, dim), dtype=complex)
            for idx in range(self.n_fibers):
                w[idx], v[idx] = np.linalg.eigh(self.fiber(idx).matrix)
            fb.check_fiber_floor(
                w, self.constants.cstar_check,
                np.sum(self.fiber_k ** 2, axis=1) + self.eps ** 2)
            self._fine_flow = linalg.HermitianFlow.from_eigh(w, v)
        return self._fine_flow

    def flow(self, idx):
        """Flow of box fiber ``idx``: a view into :meth:`fine_flow`."""
        flow = self.fine_flow()
        return linalg.HermitianFlow.from_eigh(flow.w[idx], flow.v[idx])

    # -- pointwise multipliers ------------------------------------------------

    def cell_field_on_box(self, cell_field):
        """Tile a cell-periodic field onto the box grid: (G^d, p, q)."""
        m_cell = 2 * self.trunc.n_modes + 1
        coeffs = fd.fft_coeffs(cell_field)
        p, q = coeffs.shape[-2:]
        small = np.zeros((*(m_cell,) * self.d, p, q), dtype=complex)
        N = self.trunc.n_modes
        modes = self.trunc.modes
        src = tuple(modes[:, ax] % cell_field.shape[ax] for ax in range(self.d))
        dst = tuple(modes[:, ax] % m_cell for ax in range(self.d))
        small[dst] = coeffs[src]
        one_cell = fd.field_from_coeffs(small)
        tiled = np.tile(one_cell, (*(self.n_cells,) * self.d, 1, 1))
        return tiled.reshape(-1, p, q)

    def apply_symbol(self, values, symbol):
        """Fourier multiplier with a matrix symbol of the scaled frequency."""
        q = values.shape[-1]
        v = values.reshape(*self.box_shape, q)
        vhat = np.fft.fftn(v, axes=tuple(range(self.d))).reshape(-1, q)
        out = np.einsum("gpq,gq->gp", symbol, vhat)
        p = out.shape[-1]
        out = np.fft.ifftn(out.reshape(*self.box_shape, p),
                           axes=tuple(range(self.d)))
        return out.reshape(-1, p)


# ---------------------------------------------------------------------------
# smoothing operator


def brillouin_mask(setup, tol=1e-12):
    """Characteristic function of the Brillouin zone on the box frequencies."""
    lat = setup.cell.problem.lattice
    zeta = setup.freq_zeta
    keep = np.ones(len(zeta), dtype=bool)
    for b in lat.dual_shell(2):
        keep &= (np.sum(zeta ** 2, axis=1)
                 <= np.sum((zeta - b) ** 2, axis=1) + tol)
    return keep


def smoothing_apply(setup, values):
    """Sharp Fourier cutoff to frequencies inside the Brillouin zone / eps."""
    if setup._zone_mask is None:
        setup._zone_mask = brillouin_mask(setup)
    mask = setup._zone_mask
    v = values.reshape(*setup.box_shape, setup.n)
    vhat = np.fft.fftn(v, axes=tuple(range(setup.d))).reshape(-1, setup.n)
    vhat[~mask] = 0.0
    out = np.fft.ifftn(vhat.reshape(*setup.box_shape, setup.n),
                       axes=tuple(range(setup.d)))
    return out.reshape(-1, setup.n)


# ---------------------------------------------------------------------------
# flows


def _f_values(setup):
    problem = setup.cell.problem
    if problem.f_is_identity:
        return None
    return setup.cell_field_on_box(problem.f_field())


def evolve_fine(setup, phi, s):
    """u_eps(., s) = f^eps exp(-B_eps s) (f^eps)* phi via Bloch synthesis."""
    fvals = _f_values(setup)
    w = phi if fvals is None else np.einsum(
        "gqp,gq->gp", fvals.conj(), phi)
    coeffs = setup.decompose(w)
    out = setup.fine_flow().apply(s / setup.eps ** 2,
                                  coeffs.reshape(setup.n_fibers, -1))
    u = setup.recompose(out.reshape(coeffs.shape))
    if fvals is not None:
        u = np.einsum("gpq,gq->gp", fvals, u)
    return u


def _effective_flow(setup):
    """Flow of f0 L_hat(zeta, eps) f0, batched over all box frequencies."""
    if setup._hom_flow is None:
        eps = setup.eps
        flow = linalg.HermitianFlow(setup.cell.B0_symbol(setup.freq_zeta, eps))
        linalg.check_floor(flow.w, setup.constants.cstar_check,
                           np.sum(setup.freq_zeta ** 2, axis=1) + eps ** 2,
                           NonPositiveEffective, "box-grid effective symbol")
        setup._hom_flow = flow
    return setup._hom_flow


def _hom_flow_symbols(setup, s):
    """Symbols f0 exp(-B0 s) f0 of the homogenized flow at physical time s."""
    f0 = setup.cell.f0
    return f0 @ _effective_flow(setup).expm(s / setup.eps ** 2) @ f0


def evolve_homogenized(setup, phi, s):
    """u0(., s) = f0 exp(-B0 s) f0 phi as a Fourier multiplier."""
    return setup.apply_symbol(phi, _hom_flow_symbols(setup, s))


def _ng_symbols(setup):
    if setup._nsym_grid is None:
        setup._nsym_grid = setup.ng.symbol(setup.freq_zeta, setup.eps)
    return setup._nsym_grid


def _b_symbols_grid(setup):
    if setup._b_grid is None:
        setup._b_grid = setup.cell.problem.b_of(setup.freq_zeta)
    return setup._b_grid


def _tile(setup, name, field):
    if name not in setup._tiles:
        setup._tiles[name] = setup.cell_field_on_box(field)
    return setup._tiles[name]


def _oscillating_pair(setup, phi, phi_s, flow_sym, smooth):
    """(Lambda_G^eps b(D) + eps tilde-Lambda_G^eps) u0 plus the homogenized
    flow of the adjoint multiplier applied to phi; u0 is the flow of phi_s."""
    eps = setup.eps
    cell = setup.cell
    u0s = setup.apply_symbol(phi_s, flow_sym)
    lam_g = _tile(setup, "LambdaG", cell.LambdaG)
    lam_gt = _tile(setup, "LambdaTildeG", cell.LambdaTildeG)
    b_grid = _b_symbols_grid(setup)
    bd_u0 = setup.apply_symbol(u0s, b_grid)
    t1 = np.einsum("gpq,gq->gp", lam_g, bd_u0) \
        + eps * np.einsum("gpq,gq->gp", lam_gt, u0s)

    wadj = np.einsum("gqp,gq->gp", lam_g.conj(), phi)
    wadj = setup.apply_symbol(wadj, np.swapaxes(b_grid.conj(), -1, -2))
    wadj = wadj + eps * np.einsum("gqp,gq->gp", lam_gt.conj(), phi)
    if smooth:
        wadj = smoothing_apply(setup, wadj)
    return t1 + setup.apply_symbol(wadj, flow_sym)


def _corrector(setup, phi, s, smooth):
    """Corrector field K_eps(s) phi; no regime check on s."""
    f0 = setup.cell.f0
    phi_s = smoothing_apply(setup, phi) if smooth else phi
    pair = _oscillating_pair(setup, phi, phi_s, _hom_flow_symbols(setup, s),
                             smooth)
    # constant-coefficient integral term, closed form per frequency
    inner = f0 @ _ng_symbols(setup) @ f0
    j_sym = f0 @ _effective_flow(setup).integral(inner, s / setup.eps ** 2) @ f0
    return (pair - setup.apply_symbol(phi_s, j_sym)) / setup.eps


def corrector_apply(setup, phi, s, variant="with_smoothing"):
    """Corrector field K_eps(s) phi (three terms; sharp cutoff optional).

    ``variant`` selects the smoothed corrector or the plain one; the plain
    variant requires s >= eps^2.
    """
    if variant not in ("with_smoothing", "without_smoothing"):
        raise ValueError(variant)
    if variant == "without_smoothing" and s < setup.eps ** 2:
        raise RegimeViolation(
            f"plain corrector needs s >= eps^2, got s={s}, eps^2={setup.eps**2}")
    return _corrector(setup, phi, s, variant == "with_smoothing")


def solution_error(setup, phi, s, corrected=True, variant="with_smoothing"):
    """L2 errors of the homogenized (optionally corrected) solution."""
    u_eps = evolve_fine(setup, phi, s)
    u0 = evolve_homogenized(setup, phi, s)
    err_p = setup.box_norm(u_eps - u0)
    if not corrected:
        return {"principal": err_p}
    k = corrector_apply(setup, phi, s, variant)
    err_c = setup.box_norm(u_eps - u0 - setup.eps * k)
    return {"principal": err_p, "corrected": err_c}


# ---------------------------------------------------------------------------
# inhomogeneous problem


def theta1(eps, p):
    """Source-term error weight of the principal approximation."""
    if 1 < p < 2:
        return eps ** (2.0 - 2.0 / p)
    if p == 2:
        return eps * np.sqrt(1.0 + abs(np.log(eps)))
    return eps


def theta2(eps, p):
    return 1.0 + abs(np.log(eps)) if np.isinf(p) else 1.0


def _midpoint_nodes(s, n_steps):
    h = s / n_steps
    return h, (np.arange(n_steps) + 0.5) * h


def duhamel_solve(setup, phi, source, s, p_norm=np.inf, n_steps=48,
                  quad_tol=1e-3, variant="with_smoothing"):
    """Fine, homogenized, and corrected solutions of the driven problem.

    ``source`` maps a time in [0, s] to a (G^d, n) field (zero source allowed
    by passing None).  Composite midpoint quadrature in the time variable with
    a step-halving consistency check.
    """
    if source is None:
        u_eps = evolve_fine(setup, phi, s)
        u0 = evolve_homogenized(setup, phi, s)
        k = corrector_apply(setup, phi, s, variant)
        corrected = u0 + setup.eps * k
        return _pair_report(setup, phi, u_eps, u0, corrected, s, p_norm, 0.0)

    smooth = variant == "with_smoothing"

    def integrals(n, fine_only=False):
        h, nodes = _midpoint_nodes(s, n)
        acc_f = np.zeros((int(np.prod(setup.box_shape)), setup.n), dtype=complex)
        acc_h = np.zeros_like(acc_f)
        acc_corr = np.zeros_like(acc_f)
        for t in nodes:
            f_t = source(t)
            acc_f += h * evolve_fine(setup, f_t, s - t)
            if fine_only:
                continue
            acc_h += h * evolve_homogenized(setup, f_t, s - t)
            if p_norm > 2:
                acc_corr += h * _corrector(setup, f_t, s - t, smooth)
        return acc_f, acc_h, acc_corr

    # the coarse pass only feeds the step-halving drift of the fine integral
    i_f = integrals(n_steps, fine_only=True)[0]
    i_f2, i_h2, i_corr2 = integrals(2 * n_steps)
    scale = max(setup.box_norm(i_f2), 1e-300)
    drift = setup.box_norm(i_f - i_f2) / scale
    if drift > quad_tol:
        raise QuadratureUnderResolved(
            f"halving the time step moved the integral by {drift:.2e}")

    u_eps = evolve_fine(setup, phi, s) + i_f2
    u0 = evolve_homogenized(setup, phi, s) + i_h2
    corrected = u0 + setup.eps * corrector_apply(setup, phi, s, variant)
    if p_norm > 2:
        corrected = corrected + setup.eps * i_corr2
    return _pair_report(setup, phi, u_eps, u0, corrected, s, p_norm, drift)


def _pair_report(setup, phi, u_eps, u0, corrected, s, p_norm, quad_drift):
    err_p = setup.box_norm(u_eps - u0)
    err_c = setup.box_norm(u_eps - corrected)
    eps = setup.eps
    if p_norm > 2:
        env_source = eps ** (2.0 - 2.0 / p_norm if np.isfinite(p_norm) else 2.0) \
            * theta2(eps, p_norm)
    else:
        env_source = theta1(eps, p_norm)
    return {
        "u_eps": u_eps, "u0": u0, "corrected": corrected,
        "err_principal": err_p, "err_corrected": err_c,
        "envelope_principal": eps / np.sqrt(s + eps ** 2),
        "envelope_corrected": eps ** 2 / (s + eps ** 2),
        "envelope_source": float(env_source),
        "quad_drift": float(quad_drift), "s": s,
    }


# ---------------------------------------------------------------------------
# convergence sweep


def convergence_sweep(problem, trunc, eps_list, s, mode="both",
                      box_size=8.0, n_probes=0, seed=0, constants=None,
                      cell_solution=None, ng_coeffs=None, threads=1):
    """Operator-level errors on matched boxes over a dyadic eps list.

    Per eps, the box holds box_size/(eps*period) cells per direction, and the
    exact error is the supremum of per-fiber remainder norms over the box's
    quasimomenta -- with and without the corrector unless ``mode`` picks one.
    Fibers whose :func:`fibers.partial_flow` keeps no pair are normed from
    the effective side alone, in one batch per eps.  Rows also record
    ``n_fibers``, ``n_decomposed`` (fibers that kept a pair) and the
    quasimomentum ``k_argmax_<kind>`` attaining each computed sup.
    With n_probes > 0 a randomized solution-level battery runs alongside and
    the report flags a probe error above the exact norm.
    """
    # nothing reads ``threads``; it stays while perfbench passes threads=1
    eps_list = sorted((float(e) for e in eps_list), reverse=True)
    if len(eps_list) < 3:
        raise InsufficientDecades("need at least three eps points")
    if constants is None:
        constants = fb.estimate_constants(problem)
    cell_sol = cell_solution or solve_cell_problems(problem, trunc)
    ng = ng_coeffs or ng_coefficients(problem, cell_sol)
    period = float(problem.lattice.basis[0, 0])
    want_c = mode in ("both", "corrected")
    # the pencil serves every eps and every fiber
    pencil = fb.FiberPencil(problem, trunc)
    dim = trunc.size * problem.n
    rows = []
    for eps in eps_list:
        n_cells = max(3, int(round(box_size / (eps * period))))
        fiber_k = fiber_quasimomenta(problem.lattice, n_cells)
        s_scaled = s / eps ** 2
        # the effective side of every fiber in one batched evaluation
        effective = fb.effective_factors(
            cell_sol, ng if want_c else None, trunc, fiber_k, eps, s_scaled,
            constants.cstar_check)

        def effective_at(sel):
            return tuple(None if x is None else x[sel] for x in effective)

        # each fiber is evaluated, used and dropped: memory O(D^2); one
        # whose spectrum lies above the cut is left to the batch below
        norms = np.zeros((len(fiber_k), 2))
        batch = np.ones(len(fiber_k), dtype=bool)
        for idx, k in enumerate(fiber_k):
            fiber = pencil.fiber(k, eps, constants, check=False)
            flow = fb.partial_flow(fiber, s_scaled)
            if flow.w.size:
                batch[idx] = False
                norms[idx] = fb.remainder_norms(
                    cell_sol, ng, trunc, k, eps, s_scaled, constants, fiber,
                    flow, mode=mode, effective=effective_at(idx))
        # no fiber eigenpair: the effective side alone, one stacked QR and
        # one stacked Hermitian norm for all such fibers
        n_batch = int(batch.sum())
        norms[batch] = fb.projected_norms(
            trunc, np.zeros((n_batch, dim, 0)), np.zeros((n_batch, 0)),
            effective_at(batch), mode)
        sup_p, sup_c = (float(x) for x in norms.max(axis=0))
        decay = np.exp(-0.5 * constants.cstar_check * s)
        row = {"eps": eps, "s": s, "n_cells": n_cells,
               "err_principal": sup_p, "err_corrected": sup_c,
               "envelope_principal": eps / np.sqrt(s + eps ** 2) * decay,
               "envelope_corrected": eps ** 2 / (s + eps ** 2) * decay,
               "n_fibers": len(fiber_k), "n_decomposed": int((~batch).sum())}
        for j, kind in enumerate(("principal", "corrected")):
            if mode in ("both", kind):
                row[f"k_argmax_{kind}"] = \
                    fiber_k[int(np.argmax(norms[:, j]))].tolist()
        row["err_exact"] = sup_c if want_c else sup_p
        if n_probes:
            setup = EvolutionSetup(cell_sol, ng, constants, eps, n_cells, trunc)
            rng = np.random.default_rng(seed)
            worst = 0.0
            for _ in range(n_probes):
                phi = setup.random_band_limited(rng)
                errs = solution_error(setup, phi, s, corrected=want_c)
                key = "corrected" if want_c else "principal"
                worst = max(worst, errs[key])
            row["err_probe"] = worst
            # the exact norm is the sup over all box data, so no probe may
            # exceed it beyond rounding
            row["probe_disagrees"] = bool(worst
                                          > row["err_exact"] * (1 + 1e-8))
        rows.append(row)
    return rows
