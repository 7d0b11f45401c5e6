"""The benchmark's span targets name functions the package still has.

perfbench/layers.py wraps each (module, attribute) of its TARGETS table for a
traced run and reports a renamed one only as a missing layer.  This reads the
table from the source, without importing the benchmark, and resolves every
entry against the package.
"""
import ast
import importlib
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _targets() -> dict:
    tree = ast.parse(LAYERS.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS table in {LAYERS}")


def test_every_target_resolves_to_a_callable():
    targets = _targets()
    assert targets
    unresolved = [
        name for name, (module, attr) in targets.items()
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert unresolved == []
