"""Span tracing of parahom's public functions, installed from outside the
package.

``Tracer.install`` replaces each traced function (and the ``__init__`` of
each traced class) with a wrapper that records one span per call: label,
parent span, start and end.  Every module of the package that bound the same
function object by name is patched too, so calls through ``from .x import f``
are seen as well.  ``uninstall`` restores the originals, so untraced rounds
run the unmodified code.  Spans stay in memory; the worker writes them out
when the run ends.
"""

import functools
import sys
import time
import weakref

# (module, attribute path); a span is labelled "<module>.<path>"
TARGETS = [
    ("fields", "mult_matrix"),
    ("fields", "symbol_blockdiag"),
    ("fields", "eval_matrix"),
    ("fibers", "assemble_fiber"),
    ("fibers", "FiberFlow"),
    ("fibers", "principal_remainder"),
    ("fibers", "fiber_remainder"),
    ("fibers", "principal_term"),
    ("fibers", "fiber_corrector"),
    ("fibers", "estimate_constants"),
    ("fibers", "hatted_family"),
    ("fibers", "GridRectangles.X0"),
    ("fibers", "GridRectangles.X1"),
    ("fibers", "GridRectangles.Y0"),
    ("fibers", "GridRectangles.Y1"),
    ("fibers", "GridRectangles.Y2"),
    ("linalg", "opnorm"),
    ("linalg", "confluent_weights_batch"),
    ("abstract", "compute_threshold"),
    ("abstract", "L_operator"),
    ("abstract", "n_operator"),
    ("cell", "solve_cell_problems"),
    ("cell", "ng_coefficients"),
    ("evolution", "evolve_fine"),
    ("evolution", "evolve_homogenized"),
    ("evolution", "corrector_apply"),
    ("evolution", "smoothing_apply"),
    ("evolution", "duhamel_solve"),
    ("evolution", "EvolutionSetup.apply_symbol"),
    ("evolution", "EvolutionSetup.decompose"),
    ("evolution", "EvolutionSetup.recompose"),
    ("evolution", "EvolutionSetup.fiber"),
    ("evolution", "EvolutionSetup.flow"),
]

# linalg.opnorm switches from a full SVD to power iteration above this size
POWER_CUTOFF = 512

_CACHE_LABELS = ("evolution.EvolutionSetup.fiber",
                 "evolution.EvolutionSetup.flow")


class Tracer:
    """Records spans of the traced functions, one list per traced round."""

    def __init__(self):
        self.rounds = []          # finished rounds: (labels, parents, starts, ends)
        self._patches = []        # (owner, name, original)
        self._reset()

    def _reset(self):
        self.labels, self.parents, self.starts, self.ends = [], [], [], []
        self._stack = []
        self.power_calls = 0
        self.builds = {"fibers.assemble_fiber": 0, "fibers.FiberFlow": 0}
        self._cache_bytes = {}    # id(setup) -> [weakref, bytes]
        self.peak_cache_bytes = 0

    # -- patching -------------------------------------------------------------

    def install(self):
        for module_name, path in TARGETS:
            module = sys.modules[f"parahom.{module_name}"]
            label = f"{module_name}.{path}"
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                self._patch(owner, attr, self._wrap(getattr(owner, attr), label))
                continue
            original = getattr(module, attr)
            if isinstance(original, type):
                init = original.__init__
                self._patch(original, "__init__", self._wrap(init, label))
                continue
            wrapper = self._wrap(original, label)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "parahom" and not mod_name.startswith("parahom."):
                    continue
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapper)

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches = []

    def _patch(self, owner, name, value):
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    # -- spans ----------------------------------------------------------------

    def _wrap(self, fn, label):
        tracer = self
        is_cache = label in _CACHE_LABELS
        counts_build = label in ("fibers.assemble_fiber", "fibers.FiberFlow")
        is_opnorm = label == "linalg.opnorm"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(tracer.starts)
            tracer.labels.append(label)
            tracer.parents.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.ends.append(0.0)
            if is_opnorm and max(args[0].shape) > POWER_CUTOFF:
                tracer.power_calls += 1
            if is_cache:
                before = dict(tracer.builds)
            tracer._stack.append(sid)
            tracer.starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.ends[sid] = time.perf_counter()
                tracer._stack.pop()
            if counts_build:
                tracer.builds[label] += 1
            if is_cache:
                tracer._count_cached(args[0], label, result, before)
            return result

        return wrapper

    def _count_cached(self, setup, label, result, before):
        """Bytes a cache lookup added to its setup's fiber or flow cache."""
        if label.endswith(".fiber"):
            built = self.builds["fibers.assemble_fiber"] > before["fibers.assemble_fiber"]
            nbytes = result.matrix.nbytes if built else 0
        else:
            built = self.builds["fibers.FiberFlow"] > before["fibers.FiberFlow"]
            nbytes = result.w.nbytes + result.v.nbytes if built else 0
        if not nbytes:
            return
        entry = self._cache_bytes.get(id(setup))
        if entry is None or entry[0]() is not setup:
            entry = [weakref.ref(setup), 0]
            self._cache_bytes[id(setup)] = entry
        entry[1] += nbytes
        self.peak_cache_bytes = max(self.peak_cache_bytes, entry[1])

    # -- rounds ---------------------------------------------------------------

    def begin_round(self):
        self._reset()

    def end_round(self):
        """Close the round and return its per-layer metrics."""
        self.rounds.append((self.labels, self.parents, self.starts, self.ends))
        return layer_metrics(self.labels, self.parents, self.starts, self.ends,
                             self.power_calls, self.peak_cache_bytes)

    def dump(self):
        """Spans of every traced round, with labels interned."""
        table = sorted({lab for r in self.rounds for lab in r[0]})
        index = {lab: i for i, lab in enumerate(table)}
        out = []
        for labels, parents, starts, ends in self.rounds:
            t0 = min(starts) if starts else 0.0
            out.append([[index[lab], p, round(s - t0, 9), round(e - t0, 9)]
                        for lab, p, s, e in zip(labels, parents, starts, ends)])
        return {"labels": table, "span_fields": ["label", "parent", "start", "end"],
                "rounds": out}


def layer_metrics(labels, parents, starts, ends, power_calls, peak_cache_bytes):
    """calls, inclusive time and self time per label, plus cache counters."""
    dur = [e - s for s, e in zip(starts, ends)]
    child_time = [0.0] * len(labels)
    for sid, parent in enumerate(parents):
        if parent >= 0:
            child_time[parent] += dur[sid]
    # every traced function reports, with zeros where a workload never calls it
    stats = {f"{module}.{path}": {"calls": 0, "s": 0.0, "self_s": 0.0}
             for module, path in TARGETS}
    for sid, label in enumerate(labels):
        st = stats[label]
        st["calls"] += 1
        st["self_s"] += dur[sid] - child_time[sid]
        if not _has_ancestor(parents, labels, sid, label):
            st["s"] += dur[sid]
    out = {}
    for label, st in stats.items():
        for key, value in st.items():
            out[f"{label}.{key}"] = value
    out["linalg.opnorm.power_calls"] = power_calls

    # cache lookups: outermost fiber/flow calls; assembled: those that built
    lookups = assembled = 0
    built_below = set()
    for sid, label in enumerate(labels):
        if label in ("fibers.assemble_fiber", "fibers.FiberFlow"):
            top = _outermost_cache_ancestor(parents, labels, sid)
            if top is not None:
                built_below.add(top)
    for sid, label in enumerate(labels):
        if label in _CACHE_LABELS and _outermost_cache_ancestor(
                parents, labels, sid) == sid:
            lookups += 1
            assembled += sid in built_below
    out["evolution.fiber_cache.lookups"] = lookups
    out["evolution.fiber_cache.assembled"] = assembled
    out["evolution.fiber_cache.hit_ratio"] = (
        (lookups - assembled) / lookups if lookups else 0.0)
    out["evolution.fiber_cache.peak_mb_computed"] = peak_cache_bytes / 2 ** 20
    return out


def _has_ancestor(parents, labels, sid, label):
    p = parents[sid]
    while p >= 0:
        if labels[p] == label:
            return True
        p = parents[p]
    return False


def _outermost_cache_ancestor(parents, labels, sid):
    top = sid if labels[sid] in _CACHE_LABELS else None
    p = parents[sid]
    while p >= 0:
        if labels[p] in _CACHE_LABELS:
            top = p
        p = parents[p]
    return top
