"""The public names stay consistent: every `__all__` entry exists, and the
package re-exports only names that their module lists as public, so a
deleted class cannot leave a stale export behind."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import cdtlab

MODULES = sorted(m.name for m in pkgutil.iter_modules(cdtlab.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(f"cdtlab.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def reexports() -> list[tuple[str, str]]:
    """(module, name) for each `from .module import name` in the package
    `__init__`, read from its source."""
    tree = ast.parse(Path(cdtlab.__file__).read_text())
    return [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


@pytest.mark.parametrize("module, name", reexports())
def test_reexport_is_public(module, name):
    mod = importlib.import_module(f"cdtlab.{module}")
    assert name in mod.__all__
    assert getattr(cdtlab, name) is getattr(mod, name)
