"""The benchmark must keep running against parahom.

``perfbench/tracing.py`` looks its targets up by name when a traced run
starts, and ``perfbench/workloads.py`` calls parahom with fixed keywords
and attributes; a refactor that drops or renames one would only show in a
benchmark run.  This loads both files by path, resolves each tracer target
(including ``Class.method`` paths), and runs one checked round of each
workload.
"""

import importlib
import importlib.util
import inspect
import os
import types

import pytest

_PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                          "perfbench")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(_PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module_name,path", _load("tracing").TARGETS,
                         ids=lambda v: str(v))
def test_traced_target_resolves(module_name, path):
    obj = importlib.import_module(f"parahom.{module_name}")
    for attr in path.split("."):
        assert hasattr(obj, attr), f"parahom.{module_name}.{path}"
        obj = getattr(obj, attr)
    assert callable(obj)


_WORKLOADS = _load("workloads")


@pytest.mark.parametrize("name", sorted(_WORKLOADS.WORKLOADS))
def test_workload_round_checks_ok(name, tmp_path):
    workload = _WORKLOADS.WORKLOADS[name](201, str(tmp_path))
    _, record = workload.run_round()
    statuses, _ = workload.check([record])
    assert statuses and all(st == _WORKLOADS.OK
                            for row in statuses for st in row), statuses


# functions that the benchmark's tracer is meant to wrap next: the tracer
# patches callables on their owner, so none of them may turn into a
# property or a cached attribute
_PLAIN_CALLABLES = [
    ("evolution", "EvolutionSetup.fine_flow"),
    ("evolution", "spectral_sums"),
    ("fibers", "FiberPencil.fiber"),
    ("fibers", "spectrum_above"),
    ("fibers", "partial_flow"),
    ("fibers", "projected_norms"),
    ("fibers", "remainder_norms"),
    ("linalg", "herm_norm"),
    ("linalg", "spectrum_above"),
]


@pytest.mark.parametrize("module_name,path", _PLAIN_CALLABLES,
                         ids=lambda v: str(v))
def test_future_trace_target_is_a_plain_function(module_name, path):
    owner = importlib.import_module(f"parahom.{module_name}")
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    assert isinstance(inspect.getattr_static(owner, attr),
                      types.FunctionType), f"parahom.{module_name}.{path}"
