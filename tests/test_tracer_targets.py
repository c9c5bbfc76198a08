"""The benchmark's tracer wraps named functions of the package from outside;
a refactor that moves or renames one breaks `perfbench/run.py --trace 1`."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def tracer_targets():
    """TARGETS of the tracer, read from its source without importing it."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError("perfbench/tracer.py defines no TARGETS")


def test_every_tracer_target_resolves_in_the_package():
    targets = tracer_targets()
    assert targets
    for module, qualname in targets:
        owner = importlib.import_module(f"thetapairs.{module}")
        for part in qualname.split("."):
            assert hasattr(owner, part), f"thetapairs.{module}.{qualname}"
            owner = getattr(owner, part)
        assert callable(owner), f"thetapairs.{module}.{qualname}"
