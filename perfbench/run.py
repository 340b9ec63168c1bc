"""Benchmark entry point for parahom.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; parahom is imported from ``src``.
Each workload runs in a fresh worker process (``worker.py``).  Before it,
``SETUP_PROBES`` extra processes only start up and build the problem, so that
``setup_s`` is a median of several start-ups.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``,
its per-layer metrics with ``--trace 1``.  Details of the run go to
``perfbench/out/``.  Exits non-zero without a result line when a process
fails or the run overruns ``DEADLINE_S``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 2
DEADLINE_S = 170.0
# one BLAS thread: on a shared host of few cores, a second thread that spins
# while the other core is taken measures the scheduler, not the program
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


class RunFailed(Exception):
    pass


def spawn(args, deadline):
    """Run the worker with ``args``; return its last stdout line as JSON."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env.update(BLAS_ENV)
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunFailed("deadline passed before the worker started")
    t0 = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args,
           "--t0", repr(t0), "--out", OUT]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"worker overran the {DEADLINE_S:.0f} s deadline") from exc
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RunFailed(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RunFailed("worker printed no result")
    return json.loads(lines[-1])


def trimmed_mean(samples):
    """Mean of the samples without the fastest and the slowest fifth.

    The host's CPU speed drifts over seconds, so round times cluster around
    a fast and a slow level.  A median jumps between the two with the share
    of slow rounds; a mean follows that share smoothly, and trimming keeps a
    single stalled round from moving it."""
    ordered = sorted(samples)
    cut = len(ordered) // 5
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return spec["end_to_end"], spec["per_layer"]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    deadline = time.monotonic() + DEADLINE_S
    end_to_end, per_layer = declared_metrics()
    os.makedirs(OUT, exist_ok=True)

    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        setup_samples = [spawn(common + ["--setup-only"], deadline)["setup_s"]
                         for _ in range(SETUP_PROBES)]
        res = spawn(common, deadline)
    except RunFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setup_samples.append(res["setup_s"])

    if args.trace:
        values = res["layers"]
        declared = per_layer
    else:
        values = {"wall_s": trimmed_mean(res["walls"]),
                  "setup_s": statistics.median(setup_samples),
                  "peak_rss_mb": res["peak_rss_mb"]}
        declared = end_to_end
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"benchmark failed: no value for {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    out = {"correct": res["wrong"] == 0, "attempted": res["attempted"],
           "failed": res["failed"], "metrics": metrics}

    details = {**res, "setup_samples": setup_samples, "result": out}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump(details, fh, indent=1)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
