"""Run every benchmark operation on two source trees and diff what they wrote.

    python tools/compare_outputs.py PARENT_TREE CHANGE_TREE --seeds 1 2

For each tree, one process with that tree's ``src`` on its path builds the
operations of the four workloads of ``perfbench/workloads.py`` at full
size for each seed, and runs them one after another in-process through
``pdesup.cli.main``.  Each operation's CSVs, stdout, stderr and exit code
go to ``OUT/<parent|change>/<workload>/seed<k>/<index>-<command>/``.  The
two output trees are then compared byte for byte: every file that differs
or exists on one side only is listed, and the exit code is 1 if there is
any.  ``--out`` defaults to a fresh temporary directory.
"""

from __future__ import annotations

import argparse
import contextlib
import filecmp
import io
import os
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
    for path in bad:
        print(f"differs: {path}")
    print(f"{n} files compared under {out}; {len(bad)} differ")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
