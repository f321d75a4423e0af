"""The traced benchmark run wraps library functions by name; each must exist."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _traced() -> dict:
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        targets = getattr(node, "targets", None) or [getattr(node, "target", None)]
        if any(getattr(t, "id", None) == "TRACED" for t in targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TRACED")


def test_traced_names_exist():
    traced = _traced()
    assert traced
    missing = [
        f"{mod}.{name}"
        for mod, names in traced.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"trigasket.{mod}"), name, None))
    ]
    assert missing == []
