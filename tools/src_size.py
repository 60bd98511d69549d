"""Print the size of ``src/pdesup``: its line count and its settable values,
in total and then per module.

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


def module_sizes(root: Path) -> dict[str, tuple[int, int]]:
    """(lines, settable values) of each module of ``root/src/pdesup``, by file name."""
    sizes = {}
    for f in sorted((root / "src" / "pdesup").glob("*.py")):
        text = f.read_text(encoding="utf-8")
        sizes[f.name] = (text.count("\n"), settable_values(ast.parse(text)))
    return sizes


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent
    sizes = module_sizes(root)
    print(f"src lines: {sum(lines for lines, _ in sizes.values())}")
    print(f"settable values: {sum(values for _, values in sizes.values())}")
    width = max(map(len, sizes))
    print(f"{'module':<{width}}  {'lines':>5}  {'settable':>8}")
    for name, (lines, values) in sizes.items():
        print(f"{name:<{width}}  {lines:>5}  {values:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
