"""Configuration-driven command line front end.

Usage:  homog <command> --config <path> [--out <dir>] [--seed S] [--svg]

Commands: cell-solve, fiber-check, abstract-check, converge, evolve,
scalar-example.  Configs are INI files with one section per module (see
README for the schema).  Exit status: 0 all enabled checks passed, 1 an
invariant failed, 2 malformed config or data.
"""

import argparse
import configparser
import csv
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import abstract as ab
from . import cell as cl
from . import evolution as ev
from . import fibers as fb
from . import presets
from . import scalar_example as se
from .errors import (ConfigError, DataError, DegenerateSeries,
                     InsufficientDecades, ParahomError)
from .fields import Truncation, read_field
from .lattice import build_lattice

COMMANDS = ("cell-solve", "fiber-check", "abstract-check", "converge",
            "evolve", "scalar-example")


# ---------------------------------------------------------------------------
# rate fitting


@dataclass
class RateFit:
    slope: float
    constant: float
    residuals: list
    exact_agreement: bool = False


def decaying_prefix(series):
    """Longest leading run of a dyadic series decaying by a factor <= 0.8.

    Residual norms eventually plateau at the floating-point floor of the
    operator scale; slope fits use only the decaying prefix.
    """
    out = [series[0]]
    for eps, err in series[1:]:
        if err <= 0.8 * out[-1][1]:
            out.append((eps, err))
        else:
            break
    return out


def fit_rate(series):
    """Least-squares slope of log(err) vs log(eps).

    ``series`` is a list of (eps, err) with strictly decreasing eps.  Errors
    at or below the machine floor 1e-13 short-circuit to ExactAgreement.
    """
    if len(series) < 3:
        raise InsufficientDecades(f"need >= 3 points, got {len(series)}")
    eps = np.array([p[0] for p in series], dtype=float)
    err = np.array([p[1] for p in series], dtype=float)
    if np.any(np.diff(eps) >= 0):
        raise DegenerateSeries("eps values must decrease strictly")
    scale = err.max() if err.size else 0.0
    if np.any(err <= 0) or scale <= 1e-13:
        return RateFit(np.nan, np.nan, [], exact_agreement=True)
    coef = np.polyfit(np.log(eps), np.log(err), 1)
    pred = np.polyval(coef, np.log(eps))
    res = (np.log(err) - pred).tolist()
    return RateFit(float(coef[0]), float(np.exp(coef[1])), res)


# ---------------------------------------------------------------------------
# config handling


@dataclass
class ExperimentConfig:
    command: str
    raw: configparser.ConfigParser
    path: str
    seed: int = 0
    out_dir: str = "."

    def section(self, name):
        return self.raw[name] if self.raw.has_section(name) else {}

    def get(self, section, key, default=None, cast=str):
        sec = self.section(section)
        if key not in sec:
            if default is None and cast is not bool:
                raise ConfigError(f"missing [{section}] {key}")
            return default
        val = sec[key]
        try:
            if cast is bool:
                return str(val).strip().lower() in ("1", "true", "yes", "on")
            return cast(val)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key} = {val!r}: {exc}") from exc

    def get_floats(self, section, key, default=None):
        sec = self.section(section)
        if key not in sec:
            if default is None:
                raise ConfigError(f"missing [{section}] {key}")
            return default
        try:
            vals = [float(v) for v in str(sec[key]).replace(",", " ").split()]
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key}: {exc}") from exc
        if not vals:
            raise ConfigError(f"[{section}] {key} is empty")
        return vals

    def config_hash(self):
        h = hashlib.sha256()
        for sec in sorted(self.raw.sections()):
            for key in sorted(self.raw[sec]):
                h.update(f"{sec}.{key}={self.raw[sec][key]};".encode())
        h.update(f"seed={self.seed}".encode())
        return h.hexdigest()[:16]


def load_config(path, command, seed=None, threads=None, out_dir=None):
    # nothing reads ``threads``; it stays while perfbench passes threads=1
    if not os.path.exists(path):
        raise ConfigError(f"config file {path} does not exist")
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    cfg = ExperimentConfig(command, parser, path)
    cfg.seed = seed if seed is not None else cfg.get("run", "seed",
                                                     default=0, cast=int)
    cfg.out_dir = out_dir or "."
    if cfg.command not in COMMANDS:
        raise ConfigError(f"unknown command {cfg.command!r}")
    n_modes = cfg.get("truncation", "n_modes", default=8, cast=int)
    if n_modes < 4:
        raise ConfigError("n_modes must be >= 4")
    for eps in cfg.get_floats("sweep", "eps", default=[]):
        if not 0.0 < eps <= 1.0:
            raise ConfigError(f"eps value {eps} outside (0, 1]")
    mode = cfg.get("sweep", "mode", default="both")
    if mode not in ("both", "principal", "corrected"):
        raise ConfigError(f"[sweep] mode must be both, principal or "
                          f"corrected, got {mode!r}")
    return cfg


def build_problem(cfg):
    """Problem from a named preset or from binary grid files."""
    sec = cfg.section("problem")
    if "preset" in sec:
        name = sec["preset"]
        kwargs = {}
        for key in sec:
            if key in ("preset",):
                continue
            val = sec[key]
            try:
                kwargs[key] = int(val)
            except ValueError:
                try:
                    kwargs[key] = float(val)
                except ValueError:
                    kwargs[key] = val
        kwargs.setdefault("n_modes", cfg.get("truncation", "n_modes",
                                             default=8, cast=int))
        return presets.make_problem(name, **kwargs)
    if "g_file" in sec:
        lat = build_lattice(_matrix_entry("basis", sec.get("basis", "1")))
        g = read_field(sec["g_file"])
        d = lat.dimension
        m = g.shape[-1]
        b_rows = sec.get("b_symbols", "")
        if b_rows:
            b = np.stack([_matrix_entry("b_symbols", blk)
                          for blk in b_rows.split("|")])
        else:
            n = 1
            b = np.zeros((d, m, n))
            for j in range(min(d, m)):
                b[j, j, 0] = 1.0
        f = read_field(sec["f_file"]) if "f_file" in sec else None
        a = None
        if "a_files" in sec:
            a = np.stack([read_field(p.strip())
                          for p in sec["a_files"].split(",")])
        q = read_field(sec["q_file"]) if "q_file" in sec else None
        lam = cfg.get("problem", "lambda", default=0.0, cast=float)
        return cl.PeriodicProblem(lat, b, g, f=f, a=a, Qdensity=q, lam=lam)
    raise ConfigError("[problem] needs either preset= or g_file=")


def _matrix_entry(key, text):
    """Matrix of a [problem] entry: rows split by ';', numbers by spaces."""
    try:
        return np.array([[float(v) for v in row.split()]
                         for row in text.split(";")])
    except ValueError as exc:
        raise ConfigError(f"[problem] {key} = {text!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# report writing


@dataclass
class Report:
    command: str
    config_hash: str
    started: float
    tables: dict = field(default_factory=dict)   # name -> (header, rows)
    summary: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)   # (name, passed, value)
    plots: dict = field(default_factory=dict)    # name -> (xs, ys)

    @property
    def passed(self):
        return all(ok for _, ok, _ in self.checks)

    def check(self, name, passed, value):
        # a value that is not finite was never measured: it cannot pass
        value = float(value)
        self.checks.append((name, bool(passed and np.isfinite(value)), value))

    def write(self, out_dir, prefix, svg=False):
        os.makedirs(out_dir, exist_ok=True)
        base = os.path.join(out_dir, prefix)
        for name, (header, rows) in self.tables.items():
            with open(f"{base}_{name}.csv", "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(header)
                for row in rows:
                    w.writerow(row)
        payload = {
            "command": self.command,
            "config_hash": self.config_hash,
            "elapsed_s": round(time.time() - self.started, 3),
            "summary": self.summary,
            "checks": [{"name": n, "passed": p, "value": v}
                       for n, p, v in self.checks],
            "passed": self.passed,
        }
        with open(f"{base}_summary.json", "w") as fh:
            json.dump(payload, fh, indent=2, default=_json_default)
        for name, (xs, ys) in self.plots.items():
            with open(f"{base}_{name}.dat", "w") as fh:
                for x, y in zip(xs, ys):
                    fh.write(f"{x:.10e} {y:.10e}\n")
            if svg:
                _write_svg(f"{base}_{name}.svg", xs, ys, name)


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    raise TypeError(f"not serializable: {type(obj)}")


def _write_svg(path, xs, ys, title):
    """Minimal log-log polyline chart."""
    w, h, margin = 480, 320, 48
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    ok = (xs > 0) & (ys > 0)
    if ok.sum() < 2:
        return
    lx, ly = np.log10(xs[ok]), np.log10(ys[ok])

    def sx(v):
        rng = lx.max() - lx.min() or 1.0
        return margin + (v - lx.min()) / rng * (w - 2 * margin)

    def sy(v):
        rng = ly.max() - ly.min() or 1.0
        return h - margin - (v - ly.min()) / rng * (h - 2 * margin)

    pts = " ".join(f"{sx(a):.1f},{sy(b):.1f}" for a, b in zip(lx, ly))
    with open(path, "w") as fh:
        fh.write(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}">'
            f'<rect width="{w}" height="{h}" fill="white"/>'
            f'<text x="{w//2}" y="18" text-anchor="middle" '
            f'font-family="monospace" font-size="12">{title} (log-log)</text>'
            f'<polyline points="{pts}" fill="none" stroke="black"/>'
            + "".join(f'<circle cx="{sx(a):.1f}" cy="{sy(b):.1f}" r="2.5"/>'
                      for a, b in zip(lx, ly))
            + "</svg>")


# ---------------------------------------------------------------------------
# command implementations


def _trunc_for(cfg, problem):
    n_modes = cfg.get("truncation", "n_modes", default=8, cast=int)
    return Truncation(n_modes, problem.lattice.dimension)


def run_cell_solve(cfg, report):
    problem = build_problem(cfg)
    trunc = _trunc_for(cfg, problem)
    sol = cl.solve_cell_problems(problem, trunc)
    g_low, g_up = cl.voigt_reuss(problem)
    report.summary["cell"] = sol.export_dict()
    report.summary["g_underline"] = _json_default(g_low)
    report.summary["g_overline"] = _json_default(g_up)
    w_lo = float(np.linalg.eigvalsh(sol.g0 - g_low).min())
    w_hi = float(np.linalg.eigvalsh(g_up - sol.g0).min())
    # g0 >= g_underline: eigvalsh's smallest eigenvalue is exact up to
    # rounding of order u ||g0 - g_underline||, far inside the 1e-10 slack
    report.check("voigt_reuss_lower", w_lo >= -1e-10, w_lo)
    # g0 <= g_overline: the same bound, on g_overline - g0
    report.check("voigt_reuss_upper", w_hi >= -1e-10, w_hi)
    # entrywise max of the cell mean of Lambda: computed exactly, no estimate
    mean_l = float(np.abs(cl.fd.mean_field(sol.Lambda)).max())
    report.check("lambda_zero_mean", mean_l < 1e-10, mean_l)
    if problem.m == problem.n:
        # entrywise max of g0 - g_underline: at most its 2-norm, at least
        # the 2-norm / n, so the check holds the 2-norm below n * 1e-8
        dev = float(np.abs(sol.g0 - g_low).max())
        report.check("g0_equals_harmonic_mean", dev < 1e-8, dev)


def run_fiber_check(cfg, report):
    problem = build_problem(cfg)
    trunc = _trunc_for(cfg, problem)
    consts = fb.estimate_constants(problem)
    sol = cl.solve_cell_problems(problem, trunc)
    ng = cl.ng_coefficients(problem, sol)
    k_grid = cfg.get("fiber", "k_grid", default=8, cast=int)
    domain = cfg.get("fiber", "k_domain", default="ball")
    eps = cfg.get("fiber", "eps", default=0.0, cast=float)
    if eps <= 0.0:
        eps = 0.2 * consts.tau0
    s_list = cfg.get_floats("fiber", "s", default=[0.25, 1.0, 4.0])
    lat = problem.lattice
    d = lat.dimension
    offs = (np.arange(k_grid) + 0.5) / k_grid - 0.5
    tuples = np.stack(np.meshgrid(*[offs] * d, indexing="ij"),
                      axis=-1).reshape(-1, d)
    if domain == "ball":
        # span the threshold ball, where the envelope is two-sided
        rad = 0.9 * np.sqrt(max(consts.tau0 ** 2 - eps ** 2, 1e-12))
        k_points = [2.0 * rad * tup for tup in tuples]
    elif domain == "zone":
        k_points = [np.sum([o * lat.dual_basis[ax]
                            for ax, o in enumerate(tup)], axis=0)
                    for tup in tuples]
    else:
        raise ConfigError(f"k_domain must be ball or zone, got {domain!r}")

    lam_ratio = np.inf
    rows = []

    pencil = fb.FiberPencil(problem, trunc)

    for k in k_points:
        fib = pencil.fiber(k, eps, consts)
        flow = fb.partial_flow(fib, 0.0)
        lam_min = float(flow.w.min())
        lam_ratio = min(lam_ratio, lam_min / (float(k @ k) + eps ** 2))
        for s in s_list:
            rep = fb.fiber_remainder(sol, ng, fib, s, flow)
            rows.append([*np.asarray(k), eps, s, rep["remainder_norm"],
                         rep["envelope_s_pos"], rep["ratio_s_pos"], lam_min])
    report.tables["fibers"] = (
        [f"k{i}" for i in range(d)] + ["eps", "s", "remainder", "envelope",
                                       "ratio", "lambda_min"], rows)
    report.summary["cstar_check_formula"] = consts.cstar_check
    report.summary["cstar_check_measured"] = float(lam_ratio)
    report.check("fiber_lower_bound",
                 lam_ratio >= consts.cstar_check - 1e-9, float(lam_ratio))
    # envelope-constant spread per time value (sup over the k-grid)
    sups = {}
    for row in rows:
        s = row[d + 1]
        sups[s] = max(sups.get(s, 0.0), row[d + 4])
    vals = [v for v in sups.values() if v > 0]
    # no positive remainder measures no spread: nan fails the check
    spread = max(vals) / min(vals) if vals else np.nan
    report.summary["envelope_sup_per_s"] = sups
    report.summary["envelope_spread"] = float(spread)
    report.check("envelope_spread_10x", spread <= 10.0, spread)


def run_abstract_check(cfg, report):
    rng = np.random.default_rng(cfg.seed)
    count = cfg.get("abstract", "count", default=10, cast=int)
    dim = cfg.get("abstract", "dim", default=10, cast=int)
    n_max = cfg.get("abstract", "n_max", default=3, cast=int)
    rows = []
    worst = {"F_minus_P": np.inf, "F_minus_P_tauF1": np.inf,
             "BF_minus_SP": np.inf, "BF_minus_SP_K": np.inf}
    for i in range(count):
        n = int(rng.integers(1, n_max + 1))
        fam = ab.random_family(rng, dim_H=dim, n=n)
        th = ab.compute_threshold(fam)
        theta = rng.standard_normal(2)
        theta /= np.linalg.norm(theta)
        sweep = ab.dyadic_order_sweep(fam, th, theta)
        taus = [r[0] for r in sweep]
        for key in worst:
            vals = [r[1][key] for r in sweep]
            series = decaying_prefix(list(zip(taus, vals)))
            if len(series) < 3:
                rows.append([i, n, key, np.nan])
                continue
            fit = fit_rate(series)
            if not fit.exact_agreement:
                worst[key] = min(worst[key], fit.slope)
            rows.append([i, n, key,
                         fit.slope if not fit.exact_agreement else np.nan])
        mrep = ab.m_decomposition_check(th, th.tau0 * 0.5, theta, s=1.5)
        rows.append([i, n, "m_decomposition", mrep["deviation"]])
    report.tables["orders"] = (["instance", "n", "quantity", "value"], rows)
    report.summary["worst_slopes"] = {k: float(v) for k, v in worst.items()}
    for key, bound in (("F_minus_P", 0.9), ("F_minus_P_tauF1", 1.8),
                       ("BF_minus_SP", 2.8), ("BF_minus_SP_K", 3.7)):
        report.check(f"order_{key}", worst[key] >= bound, worst[key])


def run_converge(cfg, report):
    problem = build_problem(cfg)
    trunc = _trunc_for(cfg, problem)
    eps_list = cfg.get_floats("sweep", "eps",
                              default=[2.0 ** -j for j in range(2, 7)])
    s = cfg.get("sweep", "s", default=0.5, cast=float)
    mode = cfg.get("sweep", "mode", default="both")
    box = cfg.get("sweep", "box_size", default=8.0, cast=float)
    probes = cfg.get("sweep", "probes", default=0, cast=int)
    rows = ev.convergence_sweep(problem, trunc, eps_list, s, mode=mode,
                                box_size=box, n_probes=probes, seed=cfg.seed)
    header = ["eps", "s", "err_principal", "err_corrected",
              "envelope_principal", "envelope_corrected", "slope_running"]
    if probes:
        header += ["err_probe", "probe_disagrees"]
    table = []
    for i, r in enumerate(rows):
        key = "err_corrected" if mode in ("both", "corrected") \
            else "err_principal"
        if i and rows[i - 1][key] > 0 and r[key] > 0:
            running = (np.log(r[key] / rows[i - 1][key])
                       / np.log(r["eps"] / rows[i - 1]["eps"]))
        else:
            running = np.nan
        vals = {**r, "slope_running": running}
        table.append([vals[k] for k in header])
    report.tables["sweep"] = (header, table)
    # fiber counts and argmax quasimomenta stay out of the fixed CSV columns
    report.summary["sweep_fibers"] = [
        {key: r[key] for key in r if key.startswith(("eps", "n_", "k_"))}
        for r in rows]
    report.summary["rate"] = {}
    for kind, (lo, hi) in (("principal", (0.75, 1.25)),
                           ("corrected", (1.75, 2.25))):
        if mode not in ("both", kind):
            continue
        fit = fit_rate([(r["eps"], r[f"err_{kind}"]) for r in rows])
        report.plots[f"sweep_{kind}"] = (
            [r["eps"] for r in rows],
            [max(r[f"err_{kind}"], 1e-300) for r in rows])
        if fit.exact_agreement:
            report.summary["rate"][kind] = {"exact_agreement": True}
        else:
            report.summary["rate"][kind] = {
                "slope": fit.slope, "constant": fit.constant,
                "residual_max": float(np.max(np.abs(fit.residuals)))}
            report.check(f"sweep_slope_{kind}", lo <= fit.slope <= hi,
                         fit.slope)
    if probes:
        report.check("probe_agreement",
                     not any(r["probe_disagrees"] for r in rows), 0.0)


def run_evolve(cfg, report):
    problem = build_problem(cfg)
    trunc = _trunc_for(cfg, problem)
    consts = fb.estimate_constants(problem)
    sol = cl.solve_cell_problems(problem, trunc)
    ng = cl.ng_coefficients(problem, sol)
    eps = cfg.get("evolve", "eps", default=0.25, cast=float)
    n_cells = cfg.get("evolve", "n_cells", default=16, cast=int)
    s_list = cfg.get_floats("evolve", "s", default=[0.25, 0.5, 1.0])
    p_norm = cfg.get("evolve", "p_norm", default=np.inf, cast=float)
    setup = ev.EvolutionSetup(sol, ng, consts, eps, n_cells, trunc)
    rng = np.random.default_rng(cfg.seed)
    phi = setup.random_band_limited(rng)
    source_kind = cfg.get("evolve", "source", default="none")
    if source_kind == "constant":
        f_field = setup.random_band_limited(rng, band=2)

        def source(t):
            return f_field
    elif source_kind == "none":
        source = None
    else:
        raise ConfigError(f"unknown source kind {source_kind!r}")
    rows = []
    for s in s_list:
        rep = ev.duhamel_solve(setup, phi, source, s, p_norm=p_norm,
                               n_steps=cfg.get("evolve", "steps", default=32,
                                               cast=int))
        rows.append([s, rep["err_principal"], rep["err_corrected"],
                     rep["envelope_principal"], rep["envelope_corrected"],
                     rep["quad_drift"]])
        report.check(f"corrected_below_principal_s{s}",
                     rep["err_corrected"] <= rep["err_principal"] * 1.05
                     + 1e-14, rep["err_corrected"])
    report.tables["evolve"] = (
        ["s", "err_principal", "err_corrected", "envelope_principal",
         "envelope_corrected", "quad_drift"], rows)


def run_scalar_example(cfg, report):
    d = cfg.get("scalar", "d", default=2, cast=int)
    n_modes = cfg.get("truncation", "n_modes", default=8, cast=int)
    inp = se.scalar_preset(d=d, n_modes=n_modes, seed=cfg.seed)
    problem, extras = se.build_scalar_problem(inp)
    trunc = Truncation(n_modes, d)
    eff = se.scalar_effective(inp, problem, trunc)
    sol = cl.solve_cell_problems(problem, trunc)
    ng = cl.ng_coefficients(problem, sol)
    coeffs = se.scalar_N_coefficients(inp, eff)
    dev_lambda = float(np.abs(sol.Lambda - 1j * eff.Psi[..., None, :]).max())
    dev_g0 = float(np.abs(sol.g0 - eff.g0).max())
    dev_v = float(np.abs(sol.V[:, 0] - (eff.V1 + 1j * eff.V2)).max())
    dev_w = float(abs(sol.W[0, 0] - eff.W))
    rng = np.random.default_rng(cfg.seed)
    dev_n = 0.0
    for _ in range(8):
        xi = rng.standard_normal(d)
        dev_n = max(dev_n, float(abs(ng.symbol(xi, 1.0)[0, 0]
                                     - se.scalar_N_symbol(coeffs, xi))))
    report.summary["divergence_defect"] = extras["divergence_defect"]
    report.check("lambda_is_i_psi", dev_lambda < 1e-10, dev_lambda)
    report.check("g0_match", dev_g0 < 1e-8, dev_g0)
    report.check("V_match", dev_v < 1e-8, dev_v)
    report.check("W_match", dev_w < 1e-8, dev_w)
    report.check("N_match", dev_n < 1e-8, dev_n)


RUNNERS = {
    "cell-solve": run_cell_solve,
    "fiber-check": run_fiber_check,
    "abstract-check": run_abstract_check,
    "converge": run_converge,
    "evolve": run_evolve,
    "scalar-example": run_scalar_example,
}


def run(cfg):
    """Dispatch one configured experiment; returns the Report."""
    report = Report(cfg.command, cfg.config_hash(), time.time())
    runner = RUNNERS[cfg.command]
    runner(cfg, report)
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="homog",
        description="periodic parabolic homogenization experiments")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=".")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--svg", action="store_true",
                        help="also write SVG charts for plot series")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args.command, seed=args.seed,
                          out_dir=args.out)
        report = run(cfg)
    except (ConfigError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ParahomError as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 1
    prefix = cfg.raw.get("output", "prefix", fallback=cfg.command.replace("-", "_"))
    report.write(cfg.out_dir, prefix, svg=args.svg)
    for name, ok, value in report.checks:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {value:.6g}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
