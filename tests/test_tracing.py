"""perfbench/tracing.py wraps graphopt call sites by name, from outside the
package; a renamed or deleted one would otherwise fail only a traced run."""

import types
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    """The tracer module, executed from its source without importing the
    benchmark package or writing a bytecode cache."""
    module = types.ModuleType("tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_patch_point_resolves_to_a_callable():
    rows = load_tracing().patch_table()
    assert rows
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, *_ in rows
        if not callable(getattr(owner, attr, None))
    ]
    assert missing == []
