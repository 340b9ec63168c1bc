import json
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from parahom import cli
from parahom.errors import DegenerateSeries, InsufficientDecades


def test_fit_rate_quadratic():
    fit = cli.fit_rate([(1.0, 1.0), (0.5, 0.25), (0.25, 0.0625)])
    assert fit.slope == pytest.approx(2.0, abs=1e-12)
    assert fit.constant == pytest.approx(1.0, abs=1e-12)
    assert max(abs(r) for r in fit.residuals) < 1e-12


def test_fit_rate_linear():
    fit = cli.fit_rate([(1.0, 2.0), (0.5, 1.0), (0.25, 0.5)])
    assert fit.slope == pytest.approx(1.0, abs=1e-12)
    assert fit.constant == pytest.approx(2.0, abs=1e-12)


def test_fit_rate_exact_agreement_at_floor():
    fit = cli.fit_rate([(1.0, 1e-16), (0.5, 2e-16), (0.25, 5e-17)])
    assert fit.exact_agreement


def test_fit_rate_zero_among_larger_errors_is_no_agreement():
    # exact agreement needs every error at the floor: one zero among larger
    # errors fits no order and gives a nan slope
    fit = cli.fit_rate([(0.5, 1.0), (0.25, 0.0), (0.125, 0.1)])
    assert not fit.exact_agreement
    assert np.isnan(fit.slope) and np.isnan(fit.constant)


def test_fit_rate_too_few_points():
    with pytest.raises(InsufficientDecades):
        cli.fit_rate([(1.0, 1.0), (0.5, 0.5)])


def test_fit_rate_non_decreasing_eps():
    with pytest.raises(DegenerateSeries):
        cli.fit_rate([(0.25, 1.0), (0.5, 0.5), (1.0, 0.25)])


def _write(tmp_path, body, name="cfg.ini"):
    path = tmp_path / name
    path.write_text(body)
    return str(path)


def test_missing_config_exit_2(tmp_path, capsys):
    rc = cli.main(["cell-solve", "--config", str(tmp_path / "nope.ini")])
    assert rc == 2


def test_bad_preset_exit_2(tmp_path):
    cfg = _write(tmp_path, "[problem]\npreset = does_not_exist\n")
    rc = cli.main(["cell-solve", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2


def test_bad_eps_range_exit_2(tmp_path):
    cfg = _write(tmp_path, "[problem]\npreset = osc1d\n[sweep]\neps = 2.0, 1.0, 0.5\n")
    rc = cli.main(["converge", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2


_SMALL_1D = "[problem]\npreset = osc1d\nn_modes = 4\n[truncation]\nn_modes = 4\n"


@pytest.mark.parametrize("command,body", [
    ("converge", _SMALL_1D + "[sweep]\neps = 0.5, 0.25, 0.125\nmode = bogus\n"),
    ("evolve", _SMALL_1D + "[evolve]\ns =\n"),
    ("cell-solve", "[run]\nseed = x\n[problem]\npreset = osc1d\n"),
    ("cell-solve", "[problem]\npreset = osc1d\nfoo = 1\n"),
    ("cell-solve", "[problem]\npreset = random_fiber\n"),
    ("cell-solve", "[problem]\npreset = osc1d\nlam = abc\n"),
    ("cell-solve", "[problem]\npreset = osc1d\n[truncation]\nn_modes = 3\n"),
    ("evolve", _SMALL_1D + "[evolve]\ns = 0.3, soon\n"),
    ("fiber-check", _SMALL_1D + "[fiber]\nk_domain = torus\n"),
    ("evolve", _SMALL_1D + "[evolve]\nsource = ramp\n"),
], ids=["unknown_mode", "empty_s_list", "seed", "unknown_preset_key",
        "missing_preset_argument", "non_numeric_preset_value",
        "n_modes_below_4", "non_numeric_float_list", "unknown_k_domain",
        "unknown_source"])
def test_malformed_config_exit_2(tmp_path, command, body):
    # a config that would check nothing, or that names a key no reader
    # takes, is malformed: exit 2 and no traceback
    cfg = _write(tmp_path, body)
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("eps", ["0.5, 0.25", "0.5, 0.5, 0.25"],
                         ids=["two_values", "repeated_value"])
def test_sweep_eps_without_three_distinct_values_exit_2_before_work(
        tmp_path, monkeypatch, capsys, eps):
    # the rate fit needs three strictly decreasing eps: a list that cannot
    # give them is a malformed config, refused before the sweep starts
    def refuse(*args, **kwargs):
        raise AssertionError("sweep started")

    monkeypatch.setattr(cli.ev, "convergence_sweep", refuse)
    cfg = _write(tmp_path, _SMALL_1D + f"[sweep]\neps = {eps}\n")
    assert cli.main(["converge", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: [sweep] eps")


def test_failure_inside_a_runner_exit_1(tmp_path, monkeypatch, capsys):
    # an invariant that fails inside a command exits 1 with a failure line
    # and writes no report
    from parahom.errors import PositivityViolation

    def failing(cfg, report):
        raise PositivityViolation("planted")

    monkeypatch.setitem(cli.RUNNERS, "cell-solve", failing)
    cfg = _write(tmp_path, "[problem]\npreset = osc1d\n")
    assert cli.main(["cell-solve", "--config", cfg, "--out",
                     str(tmp_path)]) == 1
    assert capsys.readouterr().err == "failure: planted\n"
    assert not list(tmp_path.glob("*_summary.json"))


def _failed_checks(out):
    return {line.split()[1].rstrip(":") for line in out.splitlines()
            if line.startswith("[FAIL]")}


@pytest.mark.parametrize("command,body,check", [
    ("abstract-check", "[abstract]\ncount = 0\n", "order_F_minus_P"),
    ("fiber-check", _SMALL_1D + "[fiber]\nk_grid = 0\n", "fiber_lower_bound"),
], ids=["no_instances", "no_k_points"])
def test_check_with_nothing_measured_fails(tmp_path, capsys, command, body,
                                           check):
    cfg = _write(tmp_path, body)
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path)]) == 1
    assert f"[FAIL] {check}: inf" in capsys.readouterr().out


def test_fiber_check_spread_with_nothing_measured_fails(tmp_path, capsys):
    # no k-point gives no remainder, so there is no spread to pass
    cfg = _write(tmp_path, _SMALL_1D + "[fiber]\nk_grid = 0\n")
    assert cli.main(["fiber-check", "--config", cfg, "--out",
                     str(tmp_path)]) == 1
    assert "[FAIL] envelope_spread_10x: nan" in capsys.readouterr().out


def test_cell_solve_end_to_end(tmp_path, capsys):
    cfg = _write(tmp_path, """
[run]
seed = 3
[problem]
preset = osc1d
n_modes = 32
[truncation]
n_modes = 32
[output]
prefix = run
""")
    rc = cli.main(["cell-solve", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out
    data = json.loads((tmp_path / "run_summary.json").read_text())
    g0 = data["summary"]["cell"]["g0"]["re"][0][0]
    assert abs(g0 - np.sqrt(3)) < 1e-8
    assert data["passed"]


@pytest.mark.parametrize("plant,failing", [
    (("g0", "above_voigt"), {"voigt_reuss_upper", "g0_equals_harmonic_mean"}),
    (("g0", "below_reuss"), {"voigt_reuss_lower", "g0_equals_harmonic_mean"}),
    (("g0", "inside"), {"g0_equals_harmonic_mean"}),
    (("Lambda", None), {"lambda_zero_mean"}),
], ids=["g0_above_voigt", "g0_below_reuss", "g0_off_harmonic_mean",
        "lambda_nonzero_mean"])
def test_cell_solve_checks_fail_on_planted_defects(tmp_path, capsys,
                                                   monkeypatch, plant,
                                                   failing):
    # each check of cell-solve fails on the defect it guards against: a g0
    # outside the Voigt-Reuss bracket, a g0 off the harmonic mean (osc1d
    # has m = n) and a Lambda with nonzero mean; the other checks pass
    import dataclasses

    real = cli.cl.solve_cell_problems

    def planted(problem, trunc):
        sol = real(problem, trunc)
        name, where = plant
        if name == "Lambda":
            return dataclasses.replace(sol, Lambda=sol.Lambda + 1e-3)
        # g0 above the arithmetic mean, below the harmonic one, or inside
        # the bracket but off the harmonic mean
        g_low, g_up = cli.cl.voigt_reuss(problem)
        g0 = {"above_voigt": g_up + 0.1, "below_reuss": g_low - 0.1,
              "inside": 0.5 * (g_low + g_up)}[where]
        return dataclasses.replace(sol, g0=g0)

    monkeypatch.setattr(cli.cl, "solve_cell_problems", planted)
    cfg = _write(tmp_path, _SMALL_1D.replace("= 4", "= 16"))
    assert cli.main(["cell-solve", "--config", cfg, "--out",
                     str(tmp_path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    failed = {line.split()[1].rstrip(":") for line in lines
              if line.startswith("[FAIL]")}
    assert failed == failing
    assert len(lines) == 4


def test_deterministic_reruns(tmp_path):
    cfg = _write(tmp_path, """
[run]
seed = 11
[problem]
preset = random_scalar_2d
seed = 5
n_modes = 6
[truncation]
n_modes = 6
[output]
prefix = det
""")
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert cli.main(["cell-solve", "--config", cfg, "--out", str(out_a)]) == 0
    assert cli.main(["cell-solve", "--config", cfg, "--out", str(out_b)]) == 0
    ja = json.loads((out_a / "det_summary.json").read_text())
    jb = json.loads((out_b / "det_summary.json").read_text())
    ja.pop("elapsed_s")
    jb.pop("elapsed_s")
    assert ja == jb


def test_converge_command_writes_tables(tmp_path):
    cfg = _write(tmp_path, """
[run]
seed = 1
[problem]
preset = osc1d
n_modes = 8
[truncation]
n_modes = 8
[sweep]
eps = 0.25, 0.125, 0.0625
s = 0.5
mode = principal
box_size = 4.0
[output]
prefix = conv
""")
    rc = cli.main(["converge", "--config", cfg, "--out", str(tmp_path),
                   "--svg"])
    assert rc == 0
    assert (tmp_path / "conv_sweep.csv").exists()
    assert (tmp_path / "conv_sweep_principal.dat").exists()
    assert (tmp_path / "conv_sweep_principal.svg").exists()
    data = json.loads((tmp_path / "conv_summary.json").read_text())
    assert 0.75 <= data["summary"]["rate"]["principal"]["slope"] <= 1.25
    header = (tmp_path / "conv_sweep.csv").read_text().splitlines()[0]
    for col in ("err_principal", "err_corrected", "envelope_principal",
                "envelope_corrected", "slope_running"):
        assert col in header


def test_converge_csv_reproducible(tmp_path):
    cfg = _write(tmp_path, """
[problem]
preset = osc1d
n_modes = 8
[truncation]
n_modes = 8
[sweep]
eps = 0.25, 0.125, 0.0625
s = 0.5
mode = principal
box_size = 4.0
[output]
prefix = rep
""")
    out_a = tmp_path / "ra"
    out_b = tmp_path / "rb"
    assert cli.main(["converge", "--config", cfg, "--out", str(out_a)]) == 0
    assert cli.main(["converge", "--config", cfg, "--out", str(out_b)]) == 0
    assert (out_a / "rep_sweep.csv").read_bytes() \
        == (out_b / "rep_sweep.csv").read_bytes()


def test_converge_summary_records_sweep_fibers(tmp_path):
    # fiber counts and argmax quasimomenta go to the summary; the CSV keeps
    # its fixed columns
    cfg = _write(tmp_path, """
[problem]
preset = osc1d_full
n_modes = 6
[truncation]
n_modes = 6
[sweep]
eps = 0.25, 0.125, 0.0625
s = 0.5
mode = both
box_size = 2.0
[output]
prefix = fib
""")
    assert cli.main(["converge", "--config", cfg, "--out", str(tmp_path)]) == 0
    header = (tmp_path / "fib_sweep.csv").read_text().splitlines()[0]
    assert header == ("eps,s,err_principal,err_corrected,envelope_principal,"
                      "envelope_corrected,slope_running")
    data = json.loads((tmp_path / "fib_summary.json").read_text())
    fibers = data["summary"]["sweep_fibers"]
    assert [f["eps"] for f in fibers] == [0.25, 0.125, 0.0625]
    assert [f["n_fibers"] for f in fibers] == [8, 16, 32]
    for f in fibers:
        assert 0 < f["n_decomposed"] < f["n_fibers"]
        assert len(f["k_argmax_principal"]) == len(f["k_argmax_corrected"]) == 1


def test_converge_probes_agree_with_exact_norm(tmp_path):
    # a probe's solution-level error is bounded by the exact operator norm
    # (the sup over the box fibers), so no row may read probe > exact
    cfg = _write(tmp_path, """
[problem]
preset = osc1d
n_modes = 8
[truncation]
n_modes = 8
[sweep]
eps = 0.25, 0.125, 0.0625
s = 0.5
box_size = 4.0
probes = 2
[output]
prefix = probe
""")
    assert cli.main(["converge", "--config", cfg, "--out", str(tmp_path)]) == 0
    data = json.loads((tmp_path / "probe_summary.json").read_text())
    assert {c["name"]: c["passed"] for c in data["checks"]}["probe_agreement"]
    rows = (tmp_path / "probe_sweep.csv").read_text().splitlines()
    header = rows[0].split(",")
    flags = [r.split(",")[header.index("probe_disagrees")] for r in rows[1:]]
    assert flags == ["False"] * 3


_PROBED_SWEEP = """
[problem]
preset = osc1d
n_modes = 8
[truncation]
n_modes = 8
[sweep]
eps = 0.25, 0.125, 0.0625
s = 0.5
box_size = 4.0
probes = 2
[output]
prefix = probe
"""


def _checks(tmp_path, prefix):
    data = json.loads((tmp_path / f"{prefix}_summary.json").read_text())
    return {c["name"]: (c["passed"], c["value"]) for c in data["checks"]}


def test_converge_probe_agreement_measures_the_worst_ratio(tmp_path):
    cfg = _write(tmp_path, _PROBED_SWEEP)
    assert cli.main(["converge", "--config", cfg, "--out", str(tmp_path)]) == 0
    passed, ratio = _checks(tmp_path, "probe")["probe_agreement"]
    assert passed and 0.0 < ratio <= 1.0 + 1e-8


@pytest.mark.parametrize("probe_error", [np.nan, np.inf])
def test_converge_probe_that_measured_nothing_fails(tmp_path, monkeypatch,
                                                    probe_error):
    # a probe error that is not finite was never measured: it must not hide
    # behind the other probes or pass as agreement
    from parahom import evolution as ev
    monkeypatch.setattr(ev, "solution_error", lambda *args, **kwargs: {
        "principal": probe_error, "corrected": probe_error})
    cfg = _write(tmp_path, _PROBED_SWEEP)
    assert cli.main(["converge", "--config", cfg, "--out", str(tmp_path)]) == 1
    passed, ratio = _checks(tmp_path, "probe")["probe_agreement"]
    assert not passed and not np.isfinite(ratio)
    rows = (tmp_path / "probe_sweep.csv").read_text().splitlines()
    header = rows[0].split(",")
    flags = [r.split(",")[header.index("probe_disagrees")] for r in rows[1:]]
    assert flags == ["True"] * 3


@pytest.mark.parametrize("kind", ["principal", "corrected"])
@pytest.mark.parametrize("bad", [np.nan, 0.0])
def test_converge_slope_with_a_row_measuring_nothing_fails(
        tmp_path, monkeypatch, kind, bad):
    # one row whose error is nan or zero among errors above the floor fits
    # no order: the slope check must be recorded and fail, not skipped
    from parahom import evolution as ev
    sweep = ev.convergence_sweep

    def broken(*args, **kwargs):
        rows = sweep(*args, **kwargs)
        rows[1][f"err_{kind}"] = bad
        return rows

    monkeypatch.setattr(ev, "convergence_sweep", broken)
    cfg = _write(tmp_path, _PROBED_SWEEP.replace("probes = 2", "probes = 0"))
    assert cli.main(["converge", "--config", cfg, "--out", str(tmp_path)]) == 1
    checks = _checks(tmp_path, "probe")
    passed, slope = checks[f"sweep_slope_{kind}"]
    assert not passed and np.isnan(slope)
    other = "corrected" if kind == "principal" else "principal"
    assert checks[f"sweep_slope_{other}"][0]


def test_scalar_example_command(tmp_path):
    cfg = _write(tmp_path, """
[run]
seed = 3
[scalar]
d = 2
[truncation]
n_modes = 6
[output]
prefix = sc
""")
    rc = cli.main(["scalar-example", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    data = json.loads((tmp_path / "sc_summary.json").read_text())
    assert data["passed"]


@pytest.mark.parametrize("command,body,table", [
    ("converge", """
[problem]
preset = osc1d
n_modes = 8
[truncation]
n_modes = 8
[sweep]
eps = 0.25, 0.125, 0.0625
s = 0.5
mode = both
box_size = 2.0
[output]
prefix = out
""", "sweep"),
    ("fiber-check", """
[problem]
preset = osc1d_full
n_modes = 8
[truncation]
n_modes = 8
[fiber]
k_grid = 3
s = 0.5, 2.0
[output]
prefix = out
""", "fibers"),
], ids=["converge", "fiber-check"])
def test_run_threads_key_is_inert(tmp_path, monkeypatch, command, body,
                                  table):
    # perfbench still writes ``[run] threads``: any value runs the same
    # serial fiber loop, and no thread pool is ever built
    import concurrent.futures

    def refuse(self, *args, **kwargs):
        raise AssertionError("thread pool built")

    monkeypatch.setattr(concurrent.futures.ThreadPoolExecutor, "__init__",
                        refuse)
    csv_bytes = []
    for threads in (1, 2):
        cfg = _write(tmp_path, f"[run]\nthreads = {threads}\n{body}",
                     name=f"t{threads}.ini")
        out = tmp_path / f"t{threads}"
        assert cli.main([command, "--config", cfg, "--out", str(out)]) == 0
        csv_bytes.append((out / f"out_{table}.csv").read_bytes())
    assert csv_bytes[0] == csv_bytes[1]


def test_grid_file_problem_roundtrip(tmp_path):
    from parahom import fields as fd

    rng = np.random.default_rng(0)
    x = np.arange(32) / 32
    g = (2.0 + 0.5 * np.cos(2 * np.pi * x))[:, None, None].astype(complex)
    gpath = tmp_path / "g.phom"
    fd.write_field(gpath, g)
    cfg = _write(tmp_path, f"""
[problem]
g_file = {gpath}
basis = 1
lambda = 1.0
[truncation]
n_modes = 8
[output]
prefix = gf
""")
    rc = cli.main(["cell-solve", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    data = json.loads((tmp_path / "gf_summary.json").read_text())
    g0 = data["summary"]["cell"]["g0"]["re"][0][0]
    ref = 1.0 / np.mean(1.0 / (2.0 + 0.5 * np.cos(2 * np.pi * x)))
    assert abs(g0 - ref) < 1e-8


def _grid_file_config(tmp_path, gpath, extra=""):
    return _write(tmp_path, f"""
[problem]
g_file = {gpath}
{extra}
[truncation]
n_modes = 4
""")


@pytest.mark.parametrize("g_bytes,extra", [
    (None, ""),
    (b"PHOM\x01\x00\x00\x00", ""),
    ("valid", "lambda = abc"),
    ("valid", "basis = one"),
    ("valid", "b_symbols = 1 x"),
    ("valid", "basis = 1 0; 0 1"),
    ("valid", "b_symbols = 1 0 | 1"),
    ("valid", "basis = 1 2 3"),
], ids=["missing_file", "short_header", "lambda", "basis", "b_symbols",
        "basis_dimension", "b_symbols_shapes", "basis_not_square"])
def test_malformed_grid_file_input_exit_2(tmp_path, capsys, g_bytes, extra):
    # a missing or short grid file, a [problem] number that does not parse,
    # or a basis or b_symbols that does not fit the 1D grid file is bad
    # input: exit 2 with a message and no traceback
    from parahom import fields as fd

    gpath = tmp_path / "g.phom"
    if g_bytes == "valid":
        fd.write_field(gpath, np.full((16, 1, 1), 2.0, dtype=complex))
    elif g_bytes is not None:
        gpath.write_bytes(g_bytes)
    cfg = _grid_file_config(tmp_path, gpath, extra)
    rc = cli.main(["cell-solve", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("key", ["a_files", "q_file"])
def test_grid_file_field_of_another_dimension_exit_2(tmp_path, capsys, key):
    # a first-order or potential field sampled on a 2D grid does not fit
    # the 1D basis and g: bad input, exit 2 with a message
    from parahom import fields as fd

    gpath, fpath = tmp_path / "g.phom", tmp_path / "field.phom"
    fd.write_field(gpath, np.full((16, 1, 1), 2.0, dtype=complex))
    fd.write_field(fpath, np.full((16, 16, 1, 1), 0.1, dtype=complex))
    cfg = _grid_file_config(tmp_path, gpath, f"{key} = {fpath}")
    rc = cli.main(["cell-solve", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cell_solve_on_random_fiber_in_3d(tmp_path):
    # random_fiber builds b = grad (m = d) in every dimension, so the 3D
    # preset is well formed and its cell solve passes its checks
    cfg = _write(tmp_path, """
[problem]
preset = random_fiber
d = 3
seed = 201
[truncation]
n_modes = 4
""")
    assert cli.main(["cell-solve", "--config", cfg, "--out",
                     str(tmp_path)]) == 0


def test_abstract_check_command(tmp_path):
    cfg = _write(tmp_path, """
[run]
seed = 5
[abstract]
count = 3
dim = 8
n_max = 2
[output]
prefix = abs
""")
    rc = cli.main(["abstract-check", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    data = json.loads((tmp_path / "abs_summary.json").read_text())
    slopes = data["summary"]["worst_slopes"]
    assert slopes["F_minus_P"] >= 0.9
    assert slopes["BF_minus_SP_K"] >= 3.7


def test_abstract_check_zero_among_larger_errors_fails(tmp_path, capsys,
                                                     monkeypatch):
    # two instances: the first measures the orders 1, 2, 3 and 4 cleanly,
    # the second puts a zero at the fourth tau of the same series.  That
    # zero is no exact agreement: every order check fails with a nan slope,
    # where skipping the second instance would pass on the first alone
    calls = []

    def sweep(family, th, theta):
        zero_at = 3 if calls else None
        calls.append(zero_at)
        taus = 0.5 ** np.arange(8)
        orders = {"F_minus_P": 1, "F_minus_P_tauF1": 2, "BF_minus_SP": 3,
                  "BF_minus_SP_K": 4}
        return [(float(tau), {key: 0.0 if i == zero_at else float(tau ** k)
                              for key, k in orders.items()})
                for i, tau in enumerate(taus)]

    monkeypatch.setattr(cli.ab, "dyadic_order_sweep", sweep)
    cfg = _write(tmp_path, "[abstract]\ncount = 2\ndim = 6\nn_max = 1\n")
    assert cli.main(["abstract-check", "--config", cfg, "--out",
                     str(tmp_path)]) == 1
    assert calls == [None, 3]
    out = capsys.readouterr().out
    for key in ("F_minus_P", "F_minus_P_tauF1", "BF_minus_SP",
                "BF_minus_SP_K"):
        assert f"[FAIL] order_{key}: nan" in out


def test_fiber_check_command(tmp_path):
    cfg = _write(tmp_path, """
[run]
seed = 2
[problem]
preset = osc1d_full
n_modes = 8
[truncation]
n_modes = 8
[fiber]
k_grid = 4
s = 0.5, 2.0
[output]
prefix = fib
""")
    rc = cli.main(["fiber-check", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    data = json.loads((tmp_path / "fib_summary.json").read_text())
    assert data["passed"]
    table = (tmp_path / "fib_fibers.csv").read_text().splitlines()
    assert "ratio" in table[0]
    assert len(table) == 1 + 4 * 2          # header + k_grid * s values


def test_fiber_check_decomposes_through_partial_flow(tmp_path, monkeypatch):
    from parahom import fibers as fb

    calls, original = [], fb.partial_flow

    def counting(fiber, s):
        calls.append(s)
        return original(fiber, s)

    monkeypatch.setattr(fb, "partial_flow", counting)
    cfg = _write(tmp_path, """
[problem]
preset = osc1d_full
n_modes = 8
[truncation]
n_modes = 8
[fiber]
k_grid = 3
s = 0.5, 2.0
""")
    assert cli.main(["fiber-check", "--config", cfg, "--out",
                     str(tmp_path)]) == 0
    assert calls == [0.0] * 3               # one per k point


def test_evolve_command(tmp_path):
    cfg = _write(tmp_path, """
[run]
seed = 4
[problem]
preset = osc1d
n_modes = 8
[truncation]
n_modes = 8
[evolve]
eps = 0.25
n_cells = 8
s = 0.3, 0.6
[output]
prefix = evo
""")
    rc = cli.main(["evolve", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    rows = (tmp_path / "evo_evolve.csv").read_text().splitlines()
    assert len(rows) == 3


# ---------------------------------------------------------------------------
# property tests of the rate fit

PROPS = settings(max_examples=60, deadline=None, derandomize=True,
                 database=None)


def dyadic(first, count):
    return [2.0 ** -(first + i) for i in range(count)]


@PROPS
@given(st.integers(0, 3), st.integers(3, 8), st.floats(0.5, 3.0),
       st.floats(1e-3, 1e3))
def test_fit_rate_recovers_power_law(first, count, p, C):
    eps = dyadic(first, count)
    fit = cli.fit_rate([(e, C * e ** p) for e in eps])
    assert not fit.exact_agreement
    assert fit.slope == pytest.approx(p, rel=1e-9, abs=1e-9)
    assert fit.constant == pytest.approx(C, rel=1e-8)
    assert max(abs(r) for r in fit.residuals) < 1e-9


@PROPS
@given(st.lists(st.floats(1e-8, 1.0), min_size=3, max_size=8),
       st.floats(1e-3, 1e3))
def test_fit_rate_slope_invariant_under_scaling(errs, factor):
    eps = dyadic(1, len(errs))
    base = cli.fit_rate(list(zip(eps, errs)))
    scaled = cli.fit_rate([(e, factor * r) for e, r in zip(eps, errs)])
    assert scaled.slope == pytest.approx(base.slope, rel=1e-9, abs=1e-9)
    assert scaled.constant == pytest.approx(factor * base.constant, rel=1e-8)


@PROPS
@given(st.lists(st.floats(0.0, 1e-13), min_size=3, max_size=8))
def test_fit_rate_exact_agreement_below_floor(errs):
    fit = cli.fit_rate(list(zip(dyadic(0, len(errs)), errs)))
    assert fit.exact_agreement
    assert fit.residuals == []


@PROPS
@given(st.lists(st.floats(1e-12, 1.0), min_size=1, max_size=10))
def test_decaying_prefix_is_a_decaying_prefix(errs):
    series = list(zip(dyadic(0, len(errs)), errs))
    out = cli.decaying_prefix(series)
    assert out == series[:len(out)] and len(out) >= 1
    assert all(b[1] <= 0.8 * a[1] for a, b in zip(out, out[1:]))
    if len(out) < len(series):
        assert series[len(out)][1] > 0.8 * out[-1][1]


@PROPS
@given(st.floats(1e-6, 1e3), st.floats(0.01, 0.79), st.integers(1, 12))
def test_decaying_prefix_keeps_geometric_series(start, ratio, count):
    series = [(e, start * ratio ** i) for i, e in enumerate(dyadic(0, count))]
    assert cli.decaying_prefix(series) == series


# ---------------------------------------------------------------------------
# the checks of fiber-check, abstract-check, evolve and scalar-example fail
# on the defect each guards against


_FIBER_1D = """
[problem]
preset = osc1d_full
n_modes = 8
[truncation]
n_modes = 8
[fiber]
k_grid = 4
"""


def test_fiber_check_on_the_zone(tmp_path):
    cfg = _write(tmp_path, _FIBER_1D + "k_domain = zone\ns = 0.5, 2.0\n"
                 "[output]\nprefix = fib\n")
    assert cli.main(["fiber-check", "--config", cfg, "--out",
                     str(tmp_path)]) == 0
    data = json.loads((tmp_path / "fib_summary.json").read_text())
    assert data["passed"] and data["summary"]["envelope_spread"] <= 10.0
    rows = (tmp_path / "fib_fibers.csv").read_text().splitlines()[1:]
    assert len(rows) == 4 * 2               # k_grid * s values
    k = [float(row.split(",")[0]) for row in rows]
    assert max(map(abs, k)) <= np.pi        # the k-grid spans the zone


@pytest.mark.parametrize("plant,failing", [
    ("zero_eigenvalue", {"fiber_lower_bound", "envelope_spread_10x"}),
    ("no_decay", {"envelope_spread_10x"}),
])
def test_fiber_check_checks_fail_on_planted_defects(tmp_path, capsys,
                                                    monkeypatch, plant,
                                                    failing):
    # a fiber spectrum shifted down to 0 breaks the floor, and the flow of
    # the lowest pair no longer decays; a remainder that does not decay in s
    # outgrows the envelope 1/s by 16x over s = 0.25..4
    from parahom.linalg import HermitianFlow

    real_flow, real_rem = cli.fb.partial_flow, cli.fb.fiber_remainder

    def shifted(fiber, s):
        flow = real_flow(fiber, s)
        return HermitianFlow.from_eigh(flow.w - flow.w.min(), flow.v)

    def frozen(cell, ng, fiber, s, flow=None):
        rep = real_rem(cell, ng, fiber, s, flow)
        nrm = real_rem(cell, ng, fiber, 0.25, flow)["remainder_norm"]
        return {**rep, "remainder_norm": nrm,
                "ratio_s_pos": nrm / rep["envelope_s_pos"]}

    if plant == "zero_eigenvalue":
        monkeypatch.setattr(cli.fb, "partial_flow", shifted)
    else:
        monkeypatch.setattr(cli.fb, "fiber_remainder", frozen)
    cfg = _write(tmp_path, _FIBER_1D + "s = 0.25, 1.0, 4.0\n")
    assert cli.main(["fiber-check", "--config", cfg, "--out",
                     str(tmp_path)]) == 1
    assert _failed_checks(capsys.readouterr().out) == failing


def test_abstract_check_fails_on_planted_lower_orders(tmp_path, capsys,
                                                      monkeypatch):
    # every residual divided by tau^(1/2) decays half an order slower than
    # the threshold approximation gives: all four order checks fail
    real = cli.ab.dyadic_order_sweep

    def slower(family, th, theta):
        return [(tau, {key: val / np.sqrt(tau) for key, val in norms.items()})
                for tau, norms in real(family, th, theta)]

    monkeypatch.setattr(cli.ab, "dyadic_order_sweep", slower)
    cfg = _write(tmp_path, "[run]\nseed = 5\n[abstract]\ncount = 2\ndim = 8\n"
                 "n_max = 2\n")
    assert cli.main(["abstract-check", "--config", cfg, "--out",
                     str(tmp_path)]) == 1
    assert _failed_checks(capsys.readouterr().out) == {
        "order_F_minus_P", "order_F_minus_P_tauF1", "order_BF_minus_SP",
        "order_BF_minus_SP_K"}


_EVOLVE_1D = """
[run]
seed = 4
[problem]
preset = osc1d
n_modes = 8
[truncation]
n_modes = 8
[evolve]
eps = 0.25
n_cells = 8
"""


def test_evolve_with_a_constant_source(tmp_path):
    cfg = _write(tmp_path, _EVOLVE_1D + "s = 0.3\nsource = constant\n"
                 "steps = 128\n[output]\nprefix = evo\n")
    assert cli.main(["evolve", "--config", cfg, "--out", str(tmp_path)]) == 0
    header, row = (tmp_path / "evo_evolve.csv").read_text().splitlines()
    drift = float(dict(zip(header.split(","), row.split(",")))["quad_drift"])
    assert 0.0 < drift < 1e-3


def test_evolve_check_fails_on_a_planted_sign_flip(tmp_path, capsys,
                                                   monkeypatch):
    # the corrector with its sign flipped doubles the error it should remove
    real = cli.ev.duhamel_solve

    def flipped(setup, phi, source, s, **kwargs):
        rep = real(setup, phi, source, s, **kwargs)
        wrong = 2.0 * rep["u0"] - rep["corrected"]
        return {**rep, "err_corrected": setup.box_norm(rep["u_eps"] - wrong)}

    monkeypatch.setattr(cli.ev, "duhamel_solve", flipped)
    cfg = _write(tmp_path, _EVOLVE_1D + "s = 0.3, 0.6\n")
    assert cli.main(["evolve", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert _failed_checks(capsys.readouterr().out) == {
        "corrected_below_principal_s0.3", "corrected_below_principal_s0.6"}


@pytest.mark.parametrize("plant,failing", [
    ("Psi", {"lambda_is_i_psi"}),
    ("g0", {"g0_match"}),
    ("V1", {"V_match"}),
    ("W", {"W_match"}),
    ("N22", {"N_match"}),
])
def test_scalar_example_checks_fail_on_planted_defects(tmp_path, capsys,
                                                       monkeypatch, plant,
                                                       failing):
    # each closed-form value moved by 1e-3 fails the one check that compares
    # it with the generic pipeline
    import dataclasses

    real_eff, real_n = cli.se.scalar_effective, cli.se.scalar_N_coefficients

    def planted_eff(inp, problem, trunc):
        eff = real_eff(inp, problem, trunc)
        return dataclasses.replace(eff, **{plant: getattr(eff, plant) + 1e-3})

    def planted_n(inp, eff):
        coeffs = real_n(inp, eff)
        return {**coeffs, "N22": coeffs["N22"] + 1e-3}

    if plant == "N22":
        monkeypatch.setattr(cli.se, "scalar_N_coefficients", planted_n)
    else:
        monkeypatch.setattr(cli.se, "scalar_effective", planted_eff)
    cfg = _write(tmp_path, "[run]\nseed = 3\n[scalar]\nd = 2\n"
                 "[truncation]\nn_modes = 6\n")
    assert cli.main(["scalar-example", "--config", cfg, "--out",
                     str(tmp_path)]) == 1
    assert _failed_checks(capsys.readouterr().out) == failing
