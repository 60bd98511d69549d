"""Run every benchmark operation on two source trees and diff what they wrote.

    python tools/compare_outputs.py PARENT_TREE CHANGE_TREE --seeds 1 2

For each tree, one process with that tree's ``src`` on its path builds the
operations of the four workloads of ``perfbench/workloads.py`` at full
size for each seed, and runs them one after another in-process through
``pdesup.cli.main``.  Each operation's CSVs, stdout, stderr and exit code
go to ``OUT/<parent|change>/<workload>/seed<k>/<index>-<command>/``.  The
two output trees are then compared byte for byte: every file that differs
or exists on one side only is listed, and the exit code is 1 if there is
any.  A differing file whose every difference is a number (a CSV cell, or
a number in the text of ``stdout.txt``) is listed with its largest
relative move ``|b - a| / max(1, |a|)`` (see :func:`largest_move`), so that
a rounding-level move can be told from a real change.  The last line
(:func:`summary`) gives the largest move over all differing files and per
workload, and names every file whose difference is not numeric.  ``--out`` defaults to
a fresh temporary directory.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import filecmp
import io
import os
import re
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
PERFBENCH = TOOLS.parent / "perfbench"
# the child process of one tree: python -c _CHILD TREE OUT SEED...
_CHILD = ("import sys; from pathlib import Path; from compare_outputs import run_tree; "
          "run_tree(Path(sys.argv[1]), Path(sys.argv[2]), [int(s) for s in sys.argv[3:]])")


def run_tree(tree: Path, out: Path, seeds) -> None:
    """Every operation of every workload at each seed, in this process; the
    caller puts ``tree/src`` first on the path."""
    sys.path.insert(0, str(PERFBENCH))
    import workloads as wl

    from pdesup.cli import main

    for workload in wl.WORKLOADS:
        for seed in seeds:
            base = out / workload / f"seed{seed}"
            ops = wl.build(workload, seed, "full", base / "inputs", tree / "configs")
            for i, op in enumerate(ops):
                outdir = base / f"{i:03d}-{op.command}"
                outdir.mkdir(parents=True)
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    try:
                        code = main([op.command, "--config", str(op.config), "--out", str(outdir)])
                    except Exception:
                        code = "exception"
                        traceback.print_exc(file=stderr)
                (outdir / "stdout.txt").write_text(stdout.getvalue(), encoding="utf-8")
                (outdir / "stderr.txt").write_text(stderr.getvalue(), encoding="utf-8")
                (outdir / "exit_code.txt").write_text(f"{code}\n", encoding="utf-8")


def differing(a: Path, b: Path) -> tuple[int, list[str]]:
    """(files compared, relative paths that differ or exist on one side only)."""
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    bad = sorted(str(p) for p in files_a ^ files_b)
    bad += sorted(str(p) for p in files_a & files_b
                  if not filecmp.cmp(a / p, b / p, shallow=False))
    return len(files_a | files_b), bad


# a number in running text: a decimal or nan/inf, with its sign
_NUMBER = re.compile(r"([-+]?(?:(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][-+]?\d+)?|nan|inf))")


def _cells(path: Path) -> list[list[str]]:
    """A CSV's rows of cells; any other text is one row of the text split
    around its numbers, so text and numbers alternate."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".csv":
        return list(csv.reader(text.splitlines()))
    return [_NUMBER.split(text)]


def largest_move(a: Path, b: Path) -> float | None:
    """The largest ``|y - x| / max(1, |x|)`` over the cells where file ``a``
    holds x and file ``b`` holds y (see :func:`_cells`); infinite where that
    is not a number.

    None unless both files have the same rows of the same lengths, and
    every pair of cells is either one text twice or two numbers.  Only a
    CSV and ``stdout.txt`` are read as numbers: any other file (stderr,
    the exit code) gives None.
    """
    if a.suffix != ".csv" and a.name != "stdout.txt":
        return None
    rows_a, rows_b = _cells(a), _cells(b)
    if [len(r) for r in rows_a] != [len(r) for r in rows_b]:
        return None
    move = 0.0
    for row_a, row_b in zip(rows_a, rows_b):
        for x, y in zip(row_a, row_b):
            if x == y:
                continue
            try:
                x, y = float(x), float(y)
            except ValueError:
                return None
            d = abs(y - x) / max(1.0, abs(x))
            move = max(move, d if d == d else float("inf"))
    return move


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path, help="source tree of the parent commit")
    p.add_argument("change", type=Path, help="source tree of the change")
    p.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    p.add_argument("--out", type=Path, default=None, help="directory for the outputs")
    args = p.parse_args()

    out = args.out or Path(tempfile.mkdtemp(prefix="compare_outputs-"))
    for label, tree in (("parent", args.parent), ("change", args.change)):
        target = out / label
        if target.exists():
            p.error(f"{target} exists; give an empty --out")
        tree = tree.resolve()
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tree / "src"), str(TOOLS)]))
        subprocess.run([sys.executable, "-c", _CHILD, str(tree), str(target),
                        *map(str, args.seeds)], env=env, check=True)
    n, bad = differing(out / "parent", out / "change")
    moves = {}
    for path in bad:
        a, b = out / "parent" / path, out / "change" / path
        moves[path] = largest_move(a, b) if a.is_file() and b.is_file() else None
        move = moves[path]
        print(f"differs: {path}" + ("" if move is None else f" (largest relative move {move:.2g})"))
    print(summary(n, out, moves))
    return 1 if bad else 0


def summary(n: int, out: Path, moves: dict) -> str:
    """The closing line: files compared, how many differ, the largest
    relative move over the numeric ones, overall and for each workload (the
    first part of the path) with a numeric difference, and every other
    differing file.

    ``moves`` maps each differing file to its :func:`largest_move`, None
    when its difference is not numeric (or it exists on one side only).
    """
    by_workload = {}
    for path, m in moves.items():
        if m is not None:
            workload = Path(path).parts[0]
            by_workload[workload] = max(by_workload.get(workload, 0.0), m)
    per = ", ".join(f"{w} {m:.2g}" for w, m in sorted(by_workload.items())) or "none"
    other = [path for path, m in moves.items() if m is None]
    return (f"{n} files compared under {out}; {len(moves)} differ; largest relative move "
            f"{max(by_workload.values(), default=0.0):.2g} (by workload: {per}); "
            f"not numeric: {', '.join(other) or 'none'}")


if __name__ == "__main__":
    sys.exit(main())
