"""Acceptance suite: one test per exit criterion, each printing a PASS line
with the measured value.  Tolerances are fixed here, not configurable."""

import time

import numpy as np
import pytest

from parahom import abstract as ab
from parahom import cell as cl
from parahom import evolution as ev
from parahom import fibers as fb
from parahom import presets
from parahom import scalar_example as se
from parahom.cli import decaying_prefix, fit_rate
from parahom.fields import Truncation


def _report(name, value, passed):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] {name}: {value}")
    assert passed, f"{name}: {value}"


# -- 1 ----------------------------------------------------------------------

def test_criterion_01_effective_matrix_1d():
    t0 = time.time()
    prob = presets.osc1d(n_modes=32)
    sol = cl.solve_cell_problems(prob, Truncation(32, 1))
    err = abs(sol.g0[0, 0] - np.sqrt(3.0))
    elapsed = time.time() - t0
    _report("criterion 1: |g0 - sqrt(3)| (1D, N=32)",
            f"{err:.3e} in {elapsed:.2f}s", err <= 1e-8 and elapsed < 1.0)


# -- 2 ----------------------------------------------------------------------

def test_criterion_02_voigt_reuss_bracketing():
    t0 = time.time()
    worst = np.inf
    for seed in range(20):
        prob = presets.random_scalar_2d(seed, n_modes=8, harmonics=3)
        sol = cl.solve_cell_problems(prob, Truncation(8, 2))
        g_low, g_up = cl.voigt_reuss(prob)
        worst = min(worst,
                    float(np.linalg.eigvalsh(sol.g0 - g_low).min()),
                    float(np.linalg.eigvalsh(g_up - sol.g0).min()))
    elapsed = time.time() - t0
    _report("criterion 2: Voigt-Reuss eigenvalue floor (20 random d=2 sets)",
            f"{worst:.3e} in {elapsed:.1f}s",
            worst >= -1e-10 and elapsed < 30.0)


# -- 3 ----------------------------------------------------------------------

def test_criterion_03_abstract_vs_explicit():
    worst = {"Z": 0.0, "Ztilde": 0.0, "germ": 0.0, "L": 0.0, "N": 0.0}
    cases = [(42, 1), (13, 1), (99, 1), (7, 2), (23, 2)]
    for seed, d in cases:
        prob = presets.random_fiber_instance(seed, d=d, n_modes=16)
        tr = Truncation(16, d)
        consts = fb.estimate_constants(prob)
        theta = [1.0] if d == 1 else [0.6, 0.8]
        rep = fb.cross_validate_abstract(prob, tr, theta, 0.5 * consts.tau0,
                                         constants=consts,
                                         raise_on_fail=False)
        for key in worst:
            worst[key] = max(worst[key], rep[key])
    ok = (worst["Z"] <= 1e-7 and worst["Ztilde"] <= 1e-7
          and worst["germ"] <= 1e-7 and worst["L"] <= 1e-7
          and worst["N"] <= 1e-6)
    _report("criterion 3: abstract-vs-explicit deviations (5 instances)",
            {k: f"{v:.2e}" for k, v in worst.items()}, ok)


# -- 4, 5 ---------------------------------------------------------------------

@pytest.fixture(scope="module")
def box_sweep():
    t0 = time.time()
    prob = presets.osc1d(n_modes=16)
    tr = Truncation(16, 1)
    eps_list = [2.0 ** -j for j in range(2, 7)]
    rows = ev.convergence_sweep(prob, tr, eps_list, s=0.5, mode="both",
                                box_size=8.0)
    return rows, time.time() - t0


def test_criterion_04_corrected_order(box_sweep):
    rows, elapsed = box_sweep
    fit = fit_rate([(r["eps"], r["err_corrected"]) for r in rows])
    _report("criterion 4: corrected-order slope (1D, s=0.5, eps 2^-2..2^-6)",
            f"{fit.slope:.3f} in {elapsed:.0f}s",
            1.75 <= fit.slope <= 2.25 and elapsed < 300.0)


def test_criterion_05_principal_order(box_sweep):
    rows, _ = box_sweep
    fit = fit_rate([(r["eps"], r["err_principal"]) for r in rows])
    _report("criterion 5: principal-order slope (same sweep)",
            f"{fit.slope:.3f}", 0.75 <= fit.slope <= 1.25)


# -- 6 ----------------------------------------------------------------------

def test_criterion_06_fiber_envelope():
    # 8x8 quasimomentum grid spanning the threshold ball (the envelope of
    # the fiber approximation theorem is only two-sided there; far fibers
    # decay strictly faster than the envelope, by theory)
    inp = se.scalar_preset(d=2, n_modes=8, seed=3)
    prob, _ = se.build_scalar_problem(inp)
    tr = Truncation(8, 2)
    consts = fb.estimate_constants(prob)
    sol = cl.solve_cell_problems(prob, tr)
    ng = cl.ng_coefficients(prob, sol)
    eps = 0.2 * consts.tau0
    rad = 0.9 * np.sqrt(consts.tau0 ** 2 - eps ** 2)
    offs = ((np.arange(8) + 0.5) / 8 - 0.5) * 2 * rad
    sup_per_s = {}
    # measured spectral floor is authoritative for the envelope constant
    cc_measured = np.inf
    fibers = []
    for o1 in offs:
        for o2 in offs:
            k = np.array([o1, o2])
            fib = fb.assemble_fiber(prob, tr, k, eps, consts)
            flow = fb.partial_flow(fib, 0.0)
            tau_sq = float(k @ k) + eps ** 2
            cc_measured = min(cc_measured, flow.w.min() / tau_sq)
            fibers.append((k, fib, flow, tau_sq))
    for s in (0.25, 1.0, 4.0):
        sup = 0.0
        for k, fib, flow, tau_sq in fibers:
            rep = fb.fiber_remainder(sol, ng, fib, s, flow)
            q = rep["remainder_norm"] * s * np.exp(
                0.5 * cc_measured * tau_sq * s)
            sup = max(sup, q)
        sup_per_s[s] = sup
    spread = max(sup_per_s.values()) / min(sup_per_s.values())
    _report("criterion 6: fitted envelope constant spread over s in "
            "{0.25,1,4}, 8x8 k-grid",
            {**{f"s={k}": f"{v:.3e}" for k, v in sup_per_s.items()},
             "spread": f"{spread:.2f}"},
            spread <= 10.0)


# -- 7 ----------------------------------------------------------------------

def test_criterion_07_abstract_order_checks():
    rng = np.random.default_rng(2024)
    worst = {"F_minus_P": np.inf, "F_minus_P_tauF1": np.inf,
             "BF_minus_SP": np.inf, "BF_minus_SP_K": np.inf}
    for _ in range(10):
        n = int(rng.integers(1, 4))
        dim = int(rng.integers(8, 25))
        fam = ab.random_family(rng, dim_H=dim, n=n)
        th = ab.compute_threshold(fam)
        theta = rng.standard_normal(2)
        theta /= np.linalg.norm(theta)
        rows = ab.dyadic_order_sweep(fam, th, theta)
        taus = [r[0] for r in rows]
        for key in worst:
            vals = [r[1][key] for r in rows]
            series = decaying_prefix(list(zip(taus, vals)))
            if len(series) < 3:
                continue
            fit = fit_rate(series)
            if not fit.exact_agreement:
                worst[key] = min(worst[key], fit.slope)
    ok = (worst["F_minus_P"] >= 0.9 and worst["F_minus_P_tauF1"] >= 1.8
          and worst["BF_minus_SP"] >= 2.8 and worst["BF_minus_SP_K"] >= 3.7)
    _report("criterion 7: threshold-approximation orders (10 instances)",
            {k: f"{v:.2f}" for k, v in worst.items()}, ok)


# -- 8 ----------------------------------------------------------------------

def test_criterion_08_m_decomposition():
    rng = np.random.default_rng(77)
    worst = 0.0
    saw_degenerate = False
    for i in range(10):
        if i == 0:
            fam = ab.random_family(np.random.default_rng(5), dim_H=5, n=1,
                                   degenerate_copies=True)
        else:
            fam = ab.random_family(rng, dim_H=int(rng.integers(6, 12)),
                                   n=int(rng.integers(1, 4)))
        th = ab.compute_threshold(fam)
        theta = rng.standard_normal(2)
        theta /= np.linalg.norm(theta)
        rep = ab.m_decomposition_check(th, 0.5 * th.tau0, theta,
                                       s=float(rng.uniform(0.5, 3.0)))
        worst = max(worst, rep["deviation"])
        saw_degenerate |= rep["degenerate_pair"]
    _report("criterion 8: closed-form vs quadrature deviation "
            "(10 instances, one degenerate)",
            f"{worst:.3e} (degenerate included: {saw_degenerate})",
            worst <= 1e-9 and saw_degenerate)


# -- 9 ----------------------------------------------------------------------

def test_criterion_09_scalar_example_consistency():
    inp = se.scalar_preset(d=2, n_modes=8, seed=3)
    prob, _ = se.build_scalar_problem(inp)
    tr = Truncation(8, 2)
    eff = se.scalar_effective(inp, prob, tr)
    sol = cl.solve_cell_problems(prob, tr)
    ng = cl.ng_coefficients(prob, sol)
    coeffs = se.scalar_N_coefficients(inp, eff)

    dev_eff = max(
        float(np.abs(sol.g0 - eff.g0).max()),
        float(np.abs(sol.V[:, 0] - (eff.V1 + 1j * eff.V2)).max()),
        float(abs(sol.W[0, 0] - eff.W)))
    # A0 / V0 identities against the generic zero-order data
    eta = np.einsum("...ij,...j->...i", inp.g, inp.A)
    gA_bar = np.real(np.mean(eta.reshape(-1, 2), axis=0))
    dev_eff = max(dev_eff,
                  float(np.abs(eff.g0 @ eff.A0 - (eff.V1 + gA_bar)).max()),
                  float(abs(eff.V0 - (np.real(sol.Qbar[0, 0])
                                      - eff.A0 @ eff.g0 @ eff.A0 - eff.W))))
    rng = np.random.default_rng(0)
    dev_n = 0.0
    for _ in range(10):
        xi = rng.standard_normal(2)
        dev_n = max(dev_n, float(abs(ng.symbol(xi, 1.0)[0, 0]
                                     - se.scalar_N_symbol(coeffs, xi))))

    consts = fb.estimate_constants(prob)
    setup = ev.EvolutionSetup(sol, ng, consts, 0.5, 4, tr)
    phi = setup.random_band_limited(np.random.default_rng(1))
    generic = ev.corrector_apply(setup, phi, 0.5, variant="without_smoothing")
    commuted = se.commuted_corrector_apply(setup, phi, 0.5)
    dev_corr = setup.box_norm(generic - commuted)
    _report("criterion 9: scalar example generic-vs-closed-form",
            f"effective {dev_eff:.2e}, N {dev_n:.2e}, corrector {dev_corr:.2e}",
            dev_eff <= 1e-8 and dev_n <= 1e-8 and dev_corr <= 1e-9)


# -- 10 ---------------------------------------------------------------------

def test_criterion_10_n1_degeneracy():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(6):
        fam = ab.random_family(rng, dim_H=int(rng.integers(5, 10)), n=1)
        th = ab.compute_threshold(fam)
        theta = rng.standard_normal(2)
        theta /= np.linalg.norm(theta)
        n_star, _ = ab.n_star_offdiagonal(th, theta)
        worst = max(worst, float(np.abs(n_star).max()))
    # fiber-built n=1 instance
    prob = presets.random_fiber_instance(42, d=1, n_modes=8)
    consts = fb.estimate_constants(prob)
    fam = fb.hatted_family(prob, Truncation(8, 1), [1.0], consts)
    th = ab.compute_threshold(fam, delta=consts.delta, tau0=consts.tau0)
    n_star, _ = ab.n_star_offdiagonal(th, [1.0, 0.0])
    worst = max(worst, float(np.abs(n_star).max()))
    _report("criterion 10: off-diagonal germ-basis part for n=1",
            f"{worst:.3e}", worst <= 1e-10)


# -- 11 ---------------------------------------------------------------------

def test_criterion_11_zero_corrector_case():
    prob = presets.divergence_free_2d(n_modes=5)
    tr = Truncation(5, 2)
    sol = cl.solve_cell_problems(prob, tr)
    ng = cl.ng_coefficients(prob, sol)
    dev_lambda = float(np.abs(sol.Lambda).max())
    dev_lambda_t = float(np.abs(sol.LambdaTilde).max())
    dev_n = max(float(np.abs(ng.symbol(k, 0.7)).max())
                for k in (np.array([0.4, -0.2]), np.array([1.0, 0.3])))
    eps_list = [2.0 ** -j for j in range(1, 5)]
    rows = ev.convergence_sweep(prob, tr, eps_list, s=0.25, mode="principal",
                                box_size=4.0)
    fit = fit_rate([(r["eps"], r["err_exact"]) for r in rows])
    _report("criterion 11: zero-corrector preset",
            f"Lambda {dev_lambda:.1e}, LambdaTilde {dev_lambda_t:.1e}, "
            f"N {dev_n:.1e}, principal slope {fit.slope:.3f}",
            dev_lambda < 1e-10 and dev_lambda_t < 1e-10 and dev_n < 1e-10
            and fit.slope >= 1.75)
