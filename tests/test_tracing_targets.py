"""perfbench/tracing.py wraps library functions by name; a rename makes the
traced benchmark drop that span. This catches the rename in the unit tests.
The tracer is read and executed from its source, so nothing under perfbench/
is imported as a package or written."""

import types
from pathlib import Path

import vismem  # noqa: F401  (imports every module the targets name)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing() -> types.ModuleType:
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_trace_target_resolves():
    tracing = load_tracing()
    assert tracing.TARGETS
    missing = [f"{module}.{path}" for module, path, _ in tracing.TARGETS
               if tracing._resolve(module, path) is None]
    assert missing == [], f"trace targets not found in vismem: {missing}"
