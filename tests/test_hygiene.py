"""Source hygiene of the mfcg package: every exported name exists, and no
module imports a name it never uses."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import mfcg

MODULES = sorted(info.name for info in pkgutil.iter_modules(mfcg.__path__))
SOURCES = sorted(Path(mfcg.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"mfcg.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"mfcg.{name}.__all__ names missing attributes: {missing}"


def _unused_imports(tree: ast.Module) -> list:
    """Names bound by import statements (outside __future__) that no
    expression and no __all__ entry refers to."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported.setdefault(bound, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    unused = _unused_imports(ast.parse(path.read_text()))
    assert not unused, f"{path.name}: unused imports (line, name) {unused}"


def test_unused_import_check_sees_a_dead_name():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os\nfrom math import pi, tau\nx = pi\n")
    assert _unused_imports(tree) == [(2, "os"), (3, "tau")]
