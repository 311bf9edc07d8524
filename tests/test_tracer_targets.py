"""Every function the benchmark's tracer wraps (perfbench/tracing.py) still exists."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPEC = importlib.util.spec_from_file_location(
    "tracing", Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
)
tracing = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(tracing)


@pytest.mark.parametrize(
    "module_name, attribute", [pytest.param(*target, id=".".join(target)) for target in tracing.TARGETS]
)
def test_tracer_target_resolves(module_name, attribute):
    # as Tracer.install resolves it: a method from its class __dict__, a function from its module
    module = importlib.import_module(module_name)
    owner_name, _, key = attribute.rpartition(".")
    if owner_name:
        raw = getattr(module, owner_name).__dict__[key]
        assert callable(raw.__func__ if isinstance(raw, classmethod) else raw)
    else:
        assert callable(getattr(module, key))
