"""Every name a ``src/pdesup`` module or a test file imports is used in that file.

A stdlib-only stand-in for a linter's unused-import rule: each module is
parsed with ``ast``, and an imported name counts as used when it is read
anywhere in the module (annotations included).  Names listed in the
module's ``__all__`` are exempt, and so are ``from __future__`` imports.
No module imports a sibling's private (underscore) name, at any depth.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "pdesup"
TESTS = Path(__file__).resolve().parent


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never reads, in import order."""
    tree = ast.parse(source)
    imported, used, exported = [], set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    return [name for name in imported if name not in used and name not in exported]


def private_imports(source: str) -> list[str]:
    """The underscore names ``source`` imports from a sibling module."""
    return [a.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level
            for a in node.names if a.name.startswith("_")]


def test_the_check_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport math\nimport os.path\n"
              "from .core import Trajectory as T, grid_1d\n__all__ = ['grid_1d']\n"
              "def f(x: T):\n    return os.path.join(x)\n")
    assert unused_imports(source) == ["math"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")),
                         ids=lambda p: p.name if p.parent == SRC else f"tests/{p.name}")
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_finds_a_private_import():
    source = ("from .core import grid_1d\nfrom os import _exit\n"
              "def f():\n    from .config import _expr\n    return _expr, grid_1d, _exit\n")
    assert private_imports(source) == ["_expr"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_name_is_imported_from_a_sibling(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []
