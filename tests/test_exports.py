"""The public names stay consistent: every `__all__` entry exists, and the
package re-exports only names that their module lists as public, so a
deleted class cannot leave a stale export behind."""

import ast
import importlib
import pkgutil
import re
import sys
import tomllib
from pathlib import Path

import pytest

import cdtlab

ROOT = Path(__file__).resolve().parents[1]
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


def third_party_imports() -> set[str]:
    """Top-level names of every absolute import in the package, at module
    level or inside a function, less the standard library and cdtlab."""
    names = set()
    for path in (ROOT / "src" / "cdtlab").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"__future__", "cdtlab"}


def test_imports_match_declared_dependencies():
    declared = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["dependencies"]
    assert third_party_imports() == {re.split(r"[<>=!~ ;\[]", d)[0] for d in declared}
