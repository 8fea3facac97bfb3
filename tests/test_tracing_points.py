"""The benchmark's tracer (perfbench/tracing.py) wraps torustab functions by
the name under which the calling module looks them up.  A refactor that drops
such a name makes traced benchmark runs fail, so each one must still exist."""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_wrap_point_is_defined(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # dataclasses look it up
    spec.loader.exec_module(tracing)
    assert tracing.WRAP_POINTS
    for module, path, _ in tracing.WRAP_POINTS:
        owner, attr = tracing.resolve_owner(module, path)
        assert attr in vars(owner), f"{module}:{path} is gone"
