"""Every function the benchmark tracer patches must exist in parahom.

``perfbench/tracing.py`` looks its targets up by name when a traced run
starts; a refactor that drops or renames one would only show there.  This
loads the tracer's target list by path and resolves each entry, including
``Class.method`` paths.
"""

import importlib
import importlib.util
import os

import pytest

_TRACING = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                        "perfbench", "tracing.py")


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module_name,path", _targets(),
                         ids=lambda v: str(v))
def test_traced_target_resolves(module_name, path):
    obj = importlib.import_module(f"parahom.{module_name}")
    for attr in path.split("."):
        assert hasattr(obj, attr), f"parahom.{module_name}.{path}"
        obj = getattr(obj, attr)
    assert callable(obj)
