"""Every layer the benchmark tracer times must still exist in sdglab.

The tracer reports a missing name as skipped rather than failing, so without
this check a rename or deletion would silently drop a traced layer.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _targets() -> tuple[str, ...]:
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("target", _targets())
def test_traced_name_resolves(target):
    module_name, *path = target.split(".")
    owner = importlib.import_module(f"sdglab.{module_name}")
    for part in path[:-1]:
        owner = getattr(owner, part)
    assert callable(vars(owner)[path[-1]]) or isinstance(vars(owner)[path[-1]], staticmethod)
