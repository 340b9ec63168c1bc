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
import os

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
