"""No dead private names in the library: every module-level private name is read somewhere.

Walks the syntax tree of each src/opnkit module, collects the names with one
leading underscore (dunders excluded) that a module binds at its top level, and
checks that some module of the package loads each one: as a name, as an
attribute or through a from-import.
"""

import ast
from pathlib import Path

import pytest

import opnkit

_MODULES = sorted(Path(opnkit.__file__).parent.glob("*.py"))


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_bindings(tree: ast.Module) -> dict[str, int]:
    """Private name -> line of each name the module binds at its top level."""
    bound = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [(stmt.name, stmt.lineno)]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [(n.id, n.lineno) for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
            names = [((a.asname or a.name).split(".")[0], stmt.lineno) for a in stmt.names]
        else:
            names = []
        bound.update((name, line) for name, line in names if _is_private(name))
    return bound


def loaded_names(tree: ast.Module) -> set[str]:
    """Every name the module reads: loaded names, attribute names and from-imported names."""
    loaded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
        elif isinstance(node, ast.Attribute):
            loaded.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            loaded.update(a.name for a in node.names)
    return loaded


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """'module:line: name' for each private top-level binding that no source loads."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    loaded = set().union(*(loaded_names(tree) for tree in trees.values()))
    return [
        f"{module}:{line}: {name}"
        for module, tree in trees.items()
        for name, line in private_bindings(tree).items()
        if name not in loaded
    ]


def test_no_dead_private_names():
    assert dead_private_names({m.name: m.read_text(encoding="utf-8") for m in _MODULES}) == []


@pytest.mark.parametrize(
    "sources,expected",
    [
        ({"a.py": "_X = 1"}, ["a.py:1: _X"]),
        ({"a.py": "_X = 1\ny = _X"}, []),
        ({"a.py": "_X = 1", "b.py": "from a import _X"}, []),
        ({"a.py": "_X = 1", "b.py": "import a\ny = a._X"}, []),
        ({"a.py": "_X = 1\n_X = 2"}, ["a.py:2: _X"]),
        ({"a.py": "_A, _B = 1, 2\ny = _A"}, ["a.py:1: _B"]),
        ({"a.py": "def _f():\n    pass"}, ["a.py:1: _f"]),
        ({"a.py": "class _C:\n    pass"}, ["a.py:1: _C"]),
        ({"a.py": "import numpy as _np"}, ["a.py:1: _np"]),
        ({"a.py": "__all__ = []\n_x: int = 0\ny = _x"}, []),
        ({"a.py": "def f():\n    _local = 1"}, []),
        ({"a.py": "class C:\n    def _m(self):\n        pass"}, []),
    ],
)
def test_each_binding_form_is_named(sources, expected):
    assert dead_private_names(sources) == expected
