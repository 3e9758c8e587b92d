"""Source hygiene of the mfcg package: every exported name exists, every
exported name and public function and method is used, and no module
imports a name it never uses."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import mfcg

MODULES = sorted(info.name for info in pkgutil.iter_modules(mfcg.__path__))
SOURCES = sorted(Path(mfcg.__file__).parent.glob("*.py"))
# the clients of the package outside it: the benchmark harness, and the
# acceptance criteria, which are the behaviour contract; the other tests,
# the harness's included, do not keep a name alive
CLIENTS = sorted(p for p in (Path(__file__).parents[1] / "perfbench").glob("*.py")
                 if not p.name.startswith("test_")) + [
    Path(__file__).parent / "test_acceptance.py"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"mfcg.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"mfcg.{name}.__all__ names missing attributes: {missing}"


def _exports(tree: ast.Module) -> list:
    """The `__all__` names of a parsed module, [] without one."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return ast.literal_eval(node.value)
    return []


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
    used |= set(_exports(tree))
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    unused = _unused_imports(ast.parse(path.read_text()))
    assert not unused, f"{path.name}: unused imports (line, name) {unused}"


def test_unused_import_check_sees_a_dead_name():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os\nfrom math import pi, tau\nx = pi\n")
    assert _unused_imports(tree) == [(2, "os"), (3, "tau")]


def _public_names(tree: ast.Module) -> list:
    """The `__all__` names of a parsed module, its public top-level
    functions and the public methods of its top-level classes."""
    names = set(_exports(tree))
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else [node]
        names.update(m.name for m in members
                     if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                     and not m.name.startswith("_"))
    return sorted(names)


def _unreferenced_names(modules: dict, others=()) -> list:
    """(module, name) of each public name of the parsed `modules` (name ->
    tree) that no expression in them or in `others` loads, by name or as an
    attribute: its definition, imports and `__all__` do not count."""
    loaded = set()
    for tree in [*modules.values(), *others]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
    return sorted((module, name) for module, tree in modules.items()
                  for name in _public_names(tree) if name not in loaded)


def test_every_export_is_used():
    assert all(path.exists() for path in CLIENTS) and len(CLIENTS) > 1, CLIENTS
    modules = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
    others = [ast.parse(path.read_text()) for path in CLIENTS]
    unused = _unreferenced_names(modules, others)
    assert not unused, ("public names nothing in src/mfcg, perfbench or the "
                        f"acceptance tests uses: {unused}")


def test_export_check_sees_a_dead_name():
    module = ast.parse('__all__ = ["used", "dead", "local", "attr"]\n'
                       "def used(): pass\ndef dead(): pass\n"
                       "def local(): pass\nattr = local()\n")
    client = ast.parse("from m import dead, used\nimport m\nused()\nm.attr\n")
    assert _unreferenced_names({"m": module}, [client]) == [("m", "dead")]


def test_export_check_sees_a_dead_function_and_method():
    # public functions and methods count without an `__all__`; private
    # ones, dunders and nested functions do not
    module = ast.parse("def helper(): pass\ndef orphan(): pass\n"
                       "def _private(): pass\n"
                       "class Box:\n"
                       "    def __init__(self): pass\n"
                       "    def size(self): pass\n"
                       "    def stale(self):\n"
                       "        def inner(): pass\n"
                       "        return inner\n")
    client = ast.parse("from m import Box, helper\nhelper()\nBox().size()\n")
    assert _unreferenced_names({"m": module}, [client]) == [("m", "orphan"),
                                                            ("m", "stale")]
