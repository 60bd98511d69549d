"""Print the size of ``src/pdesup``: its line count and its settable values.

    python tools/src_size.py [TREE]

The line count is that of ``cat src/pdesup/*.py | wc -l``.  A settable
value is a parameter with a default (of a function, method or lambda) or
a dataclass field given a value in its class body (any ``field(...)``
counts, ``init=False`` included).
``TREE`` defaults to the repository this script lives in.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def settable_values(tree: ast.Module) -> int:
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            count += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(isinstance(st, ast.AnnAssign) and st.value is not None
                         for st in node.body)
    return count


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent
    files = sorted((root / "src" / "pdesup").glob("*.py"))
    texts = [f.read_text(encoding="utf-8") for f in files]
    lines = sum(text.count("\n") for text in texts)
    values = sum(settable_values(ast.parse(text)) for text in texts)
    print(f"src lines: {lines}")
    print(f"settable values: {values}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
