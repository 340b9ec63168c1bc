"""One workload in one fresh process.

Started by ``run.py``.  ``--t0`` is the parent's ``time.monotonic()`` just
before the spawn (CLOCK_MONOTONIC is shared by all processes on Linux), so
``setup_s`` covers process start, the imports of numpy, scipy and parahom and
building the problem.  With ``--setup-only`` the process stops there.
Otherwise it runs whole rounds of the workload until the next round would end
past ``--seconds``, then checks every round and prints one JSON line.

With ``--trace 1`` untraced and traced rounds alternate; the traced ones
give the per-layer metrics, the difference of the two medians gives
``trace.overhead_s``, and the spans go to ``out/trace-<workload>-seed<n>.json``.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time

import numpy as np
import scipy

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402  (imports parahom)

# measure the checkout's own source, never an installed copy
SRC = os.path.join(os.path.dirname(HERE), "src")
if not os.path.abspath(workloads.cl.__file__).startswith(SRC + os.sep):
    sys.exit(f"parahom was imported from {workloads.cl.__file__}, not from {SRC}")

MIN_ROUNDS = 2


def blas_info():
    """BLAS name, version and thread count, as far as numpy reveals them."""
    info = {"name": None, "version": None, "threads": None}
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = dep.get("name"), dep.get("version")
    except (KeyError, TypeError):
        pass
    import ctypes
    import glob
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        handle = ctypes.CDLL(lib)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(handle, fn):
                getter = getattr(handle, fn)
                getter.restype = ctypes.c_int
                info["threads"] = int(getter())
                return info
    return info


def machine():
    return {"cores": os.cpu_count(), "numpy": np.__version__,
            "scipy": scipy.__version__, "python": sys.version.split()[0],
            "blas": blas_info(), "python_threads": 1}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload](args.seed, args.out)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()

    walls, traced_walls, layers, records, cpus = [], [], [], [], []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(records) % 2 == 1
        if traced:
            tracer.install()
            tracer.begin_round()
        cpu0 = time.process_time()
        try:
            wall, record = workload.run_round()
        finally:
            if traced:
                layers.append(tracer.end_round())
                tracer.uninstall()
        (traced_walls if traced else walls).append(wall)
        cpus.append(time.process_time() - cpu0)
        records.append(record)
        elapsed = time.perf_counter() - start
        if len(records) >= MIN_ROUNDS and elapsed + wall > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    statuses, check_info = workload.check(records)
    flat = [st for row in statuses for st in row]
    if len(flat) != len(records) * workload.ops_per_round:
        raise RuntimeError("check returned the wrong number of statuses")

    result = {
        "workload": args.workload, "seed": args.seed,
        "setup_s": setup_s, "rounds": len(records),
        "walls": walls, "traced_walls": traced_walls, "round_cpu_s": cpus,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(flat),
        "failed": sum(st != workloads.OK for st in flat),
        "wrong": sum(st == workloads.WRONG for st in flat),
        "checks": check_info, "machine": machine(),
    }
    if tracer is not None:
        keys = sorted({k for round_ in layers for k in round_})
        result["layers"] = {k: statistics.median(r.get(k, 0) for r in layers)
                            for k in keys}
        result["layers"]["trace.overhead_s"] = (
            statistics.median(traced_walls) - statistics.median(walls))
        path = os.path.join(args.out, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as fh:
            json.dump(tracer.dump(), fh)
    print(json.dumps(result, default=_plain))
    return 0


def _plain(obj):
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    raise TypeError(f"not serializable: {type(obj)}")


if __name__ == "__main__":
    sys.exit(main())
