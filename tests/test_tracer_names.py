"""The benchmark's tracer wraps cdtlab functions by name, so a rename in
cdtlab must fail here rather than crash a traced benchmark run."""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def spanned() -> list[tuple[str, str]]:
    """The (module, function) pairs of the tracer's SPANNED list, read
    from its source without importing it."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "SPANNED":
            return list(ast.literal_eval(node.value))
    raise AssertionError(f"{TRACER} assigns no SPANNED")


@pytest.mark.parametrize("module, name", spanned())
def test_spanned_name_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"cdtlab.{module}"), name))
