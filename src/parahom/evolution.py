"""Semigroup evolution on a periodic box: fine flow by Bloch synthesis,
homogenized flow as a Fourier multiplier, correctors, and source terms.

Everything is stored in the scaled picture: the physical box [0, L)^d with
L = eps * n_cells * period is relabeled to y = x/eps, so fields live on the
torus of n_cells lattice cells with G = n_cells*(2*N+1) grid points per axis.
The scaling transformation is unitary, so L2 norms and relative errors agree
with the physical picture.  The fine flow at physical time s applies the
fiber exponentials at time s/eps^2.

The flows, the corrector and the Duhamel integrals are weighted sums
sum_j c_j op(tau_j) f_j, and all three sums run in spectral coordinates: the
fine flow in the eigen-coordinates of each fiber, the homogenized flow and the
corrector in those of the effective flow f0 U per box frequency, whose
eigenpairs carry the weights of both.  Each term costs its forward
transforms; the inverse transforms and the eigenvectors apply once per sum.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import fields as fd
from . import fibers as fb
from . import linalg
from .cell import ng_coefficients, solve_cell_problems
from .errors import InsufficientDecades, QuadratureUnderResolved, RegimeViolation


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

    The setup owns the box: each box-grid object below (fiber pencil, zone
    mask, effective flow, symbol grids, tiled cell fields) is built once, on
    first use, and every box transform goes through the FFT pair
    :meth:`fft` / :meth:`ifft`.  The fine flow holds, per box fiber, the
    eigenpairs that survive at the smallest time it serves; building it
    releases the fiber pencil, which a later :meth:`fiber` rebuilds.
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
        self._fine_flow, self._fine_flow_s = None, np.inf

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
        self.freq_m = m_idx                 # signed box frequency indices
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
        band = band if band is not None else self.box_shape[0] // 4
        mask = np.all(np.abs(self.freq_m) <= band, axis=1)
        vals = rng.standard_normal((*self.box_shape, self.n)) \
            + 1j * rng.standard_normal((*self.box_shape, self.n))
        flat = self.ifft(np.where(mask[:, None], vals.reshape(-1, self.n), 0.0))
        return flat / max(self.box_norm(flat), 1e-300)

    # -- the box FFT pair and the Bloch transform -----------------------------

    def fft(self, values):
        """Box DFT of grid values (G^d, q), rows in box-frequency order."""
        v = values.reshape(*self.box_shape, -1)
        return np.fft.fftn(v, axes=tuple(range(self.d))).reshape(values.shape)

    def ifft(self, vhat):
        """Inverse of :meth:`fft`."""
        v = vhat.reshape(*self.box_shape, -1)
        return np.fft.ifftn(v, axes=tuple(range(self.d))).reshape(vhat.shape)

    def decompose(self, values):
        """Grid values (G^d, n) -> per-fiber coefficient array (F, M, n)."""
        return self.fiber_coeffs(self.fft(values))

    def fiber_coeffs(self, vhat):
        """Box-frequency values (G^d, n) sorted into fibers: (F, M, n)."""
        out = np.zeros((self.n_fibers, self.trunc.size, self.n), dtype=complex)
        out[self.freq_fiber, self.freq_modepos] = vhat
        return out

    def recompose(self, fiber_coeffs):
        return self.ifft(fiber_coeffs[self.freq_fiber, self.freq_modepos])

    # -- fiber flows ----------------------------------------------------------

    @cached_property
    def pencil(self):
        return fb.FiberPencil(self.cell.problem, self.trunc)

    def fiber(self, idx):
        """FiberOperator of box fiber ``idx``, evaluated afresh."""
        return self.pencil.fiber(self.fiber_k[idx], self.eps, self.constants)

    def fine_flow(self, s=0.0):
        """Per-fiber flows of the eigenpairs that the fine flow needs at
        physical times >= s: a list of F :class:`linalg.HermitianFlow` with
        owned arrays w (r_i,) and v (D, r_i).

        Each fiber's pairs come from one :func:`fibers.partial_flow` at 0
        (every pair, held to the fiber floor), cut to w <= cut_value(fiber,
        s/eps^2); a dropped pair adds at most 2^-64 relative.  The flows are
        kept: a later call with a larger s reuses them, one with a smaller s
        rebuilds them.
        """
        if s < self._fine_flow_s:
            self._fine_flow = None
            flows = []
            for idx in range(self.n_fibers):
                fiber = self.fiber(idx)
                flow = fb.partial_flow(fiber, 0.0)
                # w ascends; the copies keep no view of the D x D basis
                cut = fb.cut_value(fiber, s / self.eps ** 2)
                r = np.searchsorted(flow.w, cut, side="right")
                flows.append(linalg.HermitianFlow.from_eigh(
                    flow.w[:r].copy(), flow.v[:, :r].copy()))
            self._fine_flow, self._fine_flow_s = flows, s
            self.__dict__.pop("pencil", None)
        return self._fine_flow

    def flow(self, idx):
        """Flow of box fiber ``idx`` with every pair: its entry of
        :meth:`fine_flow` at s = 0."""
        return self.fine_flow()[idx]

    # -- box multipliers and tiled cell fields --------------------------------

    @cached_property
    def effective_flow(self):
        """:func:`fibers.effective_flow` over all box frequencies: its expm
        at s/eps^2 is the homogenized flow's symbol f0 exp(-B0 s/eps^2) f0."""
        return fb.effective_flow(self.cell, self.freq_zeta, self.eps,
                                 self.constants.cstar_check)

    @cached_property
    def ng_grid(self):
        return self.ng.symbol(self.freq_zeta, self.eps)

    @cached_property
    def b_grid(self):
        return self.cell.problem.b_of(self.freq_zeta)

    @cached_property
    def zone_mask(self):
        return brillouin_mask(self)

    def cell_field_on_box(self, cell_field):
        """Tile a cell-periodic field, cut to the truncation's modes, onto
        the box grid: (G^d, p, q)."""
        one_cell = fd.resample_field(
            cell_field, (2 * self.trunc.n_modes + 1,) * self.d)
        tiled = np.tile(one_cell, (*(self.n_cells,) * self.d, 1, 1))
        return tiled.reshape(-1, *one_cell.shape[-2:])

    @cached_property
    def tiled_f(self):
        """f on the box grid; None for f = identity."""
        problem = self.cell.problem
        if problem.f_is_identity:
            return None
        return self.cell_field_on_box(problem.f_field())

    @cached_property
    def tiled_lambda_g(self):
        return self.cell_field_on_box(self.cell.LambdaG)

    @cached_property
    def tiled_lambda_tilde_g(self):
        return self.cell_field_on_box(self.cell.LambdaTildeG)

    def apply_symbol(self, values, symbol):
        """Fourier multiplier with a matrix symbol of the scaled frequency."""
        return self.ifft(np.einsum("gpq,gq->gp", symbol, self.fft(values)))


# ---------------------------------------------------------------------------
# smoothing operator


def brillouin_mask(setup):
    """Characteristic function of the Brillouin zone (closed, to 1e-12)."""
    lat = setup.cell.problem.lattice
    zeta = setup.freq_zeta
    keep = np.ones(len(zeta), dtype=bool)
    for b in lat.dual_shell(2):
        keep &= (np.sum(zeta ** 2, axis=1)
                 <= np.sum((zeta - b) ** 2, axis=1) + 1e-12)
    return keep


def smoothing_apply(setup, values):
    """Sharp Fourier cutoff to frequencies inside the Brillouin zone / eps."""
    vhat = setup.fft(values)
    vhat[~setup.zone_mask] = 0.0
    return setup.ifft(vhat)


# ---------------------------------------------------------------------------
# flows


def spectral_sums(setup, terms, tau_min, fine=False, hom=False, smooth=None):
    """Grid fields of sum_j c_j op(tau_j) f_j over ``terms`` (c_j, tau_j, f_j)
    for op the fine flow, the homogenized flow and, unless ``smooth`` is
    None, the corrector K(tau) with (True) or without the smoothing cutoff.
    Returns (fine, hom, corrector), None for an op not asked for.

    The fine sum runs in the eigen-coordinates of ``setup.fine_flow(tau_min)``,
    which serves every tau_j >= tau_min; the other two in those of
    ``setup.effective_flow``, v = f0 U per box frequency, with its weights
    e(tau) = exp(-w tau/eps^2) and confluent W(tau).  With y = v* f^,
    z = v* adj(f), N~ = v* N v and m the zone mask (identity without
    smoothing):

        a = sum c e(tau) y,  b = sum c [e(tau) z - (W(tau) N~) y],
        u0 = F^-1(v a),  A = m v a,  W = m v b,
        K = [Lambda_G F^-1(b A) + eps LambdaTilde_G F^-1(A) + F^-1(W)] / eps,

    adj(f) = b* FFT(Lambda_G* f) + eps FFT(LambdaTilde_G* f).  A term costs
    its forward FFTs: f_j, f* f_j for the fine sum when f != I, and one
    batched FFT for adj(f_j); the rest applies once per sum.
    """
    eps2 = setup.eps ** 2
    fvals = setup.tiled_f
    want_c = smooth is not None
    want_e = hom or want_c
    need_hat = want_e or (fine and fvals is None)
    if fine:
        flows = setup.fine_flow(tau_min)
        # the coordinates of all fibers in one array, fiber i in [lo_i, hi_i)
        w_all = np.concatenate([flow.w for flow in flows]) / eps2
        bounds = np.cumsum([0] + [flow.w.size for flow in flows])
        spans = list(zip(flows, bounds[:-1], bounds[1:]))
        coords = np.zeros(w_all.shape, dtype=complex)
        x_v = np.empty_like(coords)
    if want_e:
        eff = setup.effective_flow
        vh = np.swapaxes(eff.v.conj(), -1, -2)
        n_til = vh @ setup.ng_grid @ eff.v if want_c else None
        acc = np.zeros((2, *eff.w.shape), dtype=complex)        # a, b
    for c, tau, values in terms:
        vhat = setup.fft(values) if need_hat else None
        if fine:
            xhat = vhat if fvals is None else setup.fft(
                np.einsum("gqp,gq->gp", fvals.conj(), values))
            x = setup.fiber_coeffs(xhat).reshape(setup.n_fibers, -1).conj()
            for (flow, lo, hi), xf in zip(spans, x):
                np.matmul(xf, flow.v, out=x_v[lo:hi])
            # V* x = conj(x* V): no conjugate copy of V per term
            coords += c * np.exp(-w_all * tau) * x_v.conj()
        if not want_e:
            continue
        y = np.einsum("gpq,gq->gp", vh, vhat)
        e_tau = eff.decay(tau / eps2)
        acc[0] += c * e_tau * y
        if want_c:
            z = np.einsum("gpq,gq->gp", vh, _adjoint_hat(setup, values))
            w_tau = linalg.confluent_weights_batch(eff.w, tau / eps2) * n_til
            acc[1] += c * (e_tau * z - (w_tau @ y[..., None])[..., 0])
    u_fine = u_hom = k = None
    if fine:
        out = np.stack([flow.v @ coords[lo:hi] for flow, lo, hi in spans])
        u_fine = setup.recompose(out.reshape(setup.n_fibers, -1, setup.n))
        if fvals is not None:
            u_fine = np.einsum("gpq,gq->gp", fvals, u_fine)
    if want_e:
        hats = np.einsum("gpq,cgq->cgp", eff.v, acc)          # v a, v b
    if hom:
        u_hom = setup.ifft(hats[0])
    if want_c:
        if smooth:
            hats[:, ~setup.zone_mask] = 0.0
        k = _corrector_field(setup, *hats)
    return u_fine, u_hom, k


def _adjoint_hat(setup, values):
    """b* FFT(Lambda_G* f) + eps FFT(LambdaTilde_G* f), one batched FFT."""
    lam_g, lam_gt = setup.tiled_lambda_g, setup.tiled_lambda_tilde_g
    m = lam_g.shape[-1]
    both = setup.fft(np.concatenate(
        [np.einsum("gqp,gq->gp", lam_g.conj(), values),
         np.einsum("gqp,gq->gp", lam_gt.conj(), values)], axis=1))
    return np.einsum("gqp,gq->gp", setup.b_grid.conj(), both[:, :m]) \
        + setup.eps * both[:, m:]


def _corrector_field(setup, a_hat, w_hat):
    """K = [Lambda_G F^-1(b A) + eps LambdaTilde_G F^-1(A) + F^-1(W)] / eps
    from the frequency arrays A and W of :func:`spectral_sums`, one batched
    inverse FFT."""
    eps, n = setup.eps, setup.n
    m = setup.b_grid.shape[-2]
    fields = setup.ifft(np.concatenate(
        [np.einsum("gpq,gq->gp", setup.b_grid, a_hat), a_hat, w_hat], axis=1))
    return (np.einsum("gpq,gq->gp", setup.tiled_lambda_g, fields[:, :m])
            + eps * np.einsum("gpq,gq->gp", setup.tiled_lambda_tilde_g,
                              fields[:, m:m + n])
            + fields[:, m + n:]) / eps


def evolve_fine(setup, phi, s):
    """u_eps(., s) = f^eps exp(-B_eps s) (f^eps)* phi via Bloch synthesis."""
    return spectral_sums(setup, [(1.0, s, phi)], s, fine=True)[0]


def evolve_homogenized(setup, phi, s):
    """u0(., s) = f0 exp(-B0 s) f0 phi as a Fourier multiplier."""
    return spectral_sums(setup, [(1.0, s, phi)], s, hom=True)[1]


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
    return spectral_sums(setup, [(1.0, s, phi)], s,
                         smooth=variant == "with_smoothing")[2]


def solution_error(setup, phi, s, corrected=True):
    """L2 errors of the homogenized (optionally smoothed-corrected) solution,
    from one :func:`spectral_sums` of the three flows."""
    u_eps, u0, k = spectral_sums(setup, [(1.0, s, phi)], s, fine=True,
                                 hom=True, smooth=True if corrected else None)
    errs = {"principal": setup.box_norm(u_eps - u0)}
    if corrected:
        errs["corrected"] = setup.box_norm(u_eps - u0 - setup.eps * k)
    return errs


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
                  quad_tol=1e-3):
    """Fine, homogenized, and corrected solutions of the driven problem.

    ``source`` maps a time in [0, s] to a (G^d, n) field (zero source allowed
    by passing None).  Composite midpoint quadrature in the time variable with
    a step-halving consistency check; each pass is one :func:`spectral_sums`.
    The corrector is the smoothed one: the nodes reach times s - t < eps^2,
    where the plain one does not apply.
    """
    eps = setup.eps
    if source is not None:
        # the smallest node gap: one fine flow serves both passes and the
        # free term
        setup.fine_flow(s / (4 * n_steps))
    u_eps, u0, k = spectral_sums(setup, [(1.0, s, phi)], s, fine=True,
                                 hom=True, smooth=True)
    if source is None:
        return _pair_report(setup, phi, u_eps, u0, u0 + eps * k, s, p_norm,
                            0.0)

    def integral(n, **ops):
        h, nodes = _midpoint_nodes(s, n)
        return spectral_sums(setup, ((h, s - t, source(t)) for t in nodes),
                             h / 2, fine=True, **ops)

    # the coarse pass only feeds the step-halving drift of the fine integral
    i_f = integral(n_steps)[0]
    i_f2, i_h2, i_corr2 = integral(2 * n_steps, hom=True,
                                   smooth=True if p_norm > 2 else None)
    scale = max(setup.box_norm(i_f2), 1e-300)
    drift = setup.box_norm(i_f - i_f2) / scale
    if drift > quad_tol:
        raise QuadratureUnderResolved(
            f"halving the time step moved the integral by {drift:.2e}")

    u_eps = u_eps + i_f2
    u0 = u0 + i_h2
    corrected = u0 + eps * k
    if p_norm > 2:
        corrected = corrected + eps * i_corr2
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
            fiber = pencil.fiber(k, eps, constants)
            flow = fb.partial_flow(fiber, s_scaled)
            if flow.w.size:
                batch[idx] = False
                norms[idx] = fb.remainder_norms(
                    cell_sol, ng, fiber, s_scaled, flow, mode=mode,
                    effective=effective_at(idx))
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
