"""Print how much each command of one benchmark workload raises the peak RSS.

    python tools/peak_rss.py [--workload cli-configs] [--seed 1] [--size full] [--checks]

Each operation of the workload runs in a fresh process of its own, with
this checkout's ``src`` and ``perfbench`` first on its path, so a command's
figure does not depend on the commands before it in a round.  That process
does what a benchmark worker (``perfbench/worker.py``) does before its
first round: it imports ``pdesup.cli``, builds the workload's operations
and runs the warm-up operations.  It then runs the one operation in-process
through ``pdesup.cli.main`` and prints one line: the command's rise of
``ru_maxrss`` (the process's peak resident set) over the peak after the
warm-up, and the peak after it.  With ``--checks``, perfbench's
``checks.py`` is imported before the command, as a worker imports it
before its first round, and the command's output check runs after it; the
check's own rise over the command's peak is printed on the next line,
after ``check``.  Two such processes run at a time.  BLAS and OpenMP run
on one thread, as in the benchmark.  Outputs go to temporary directories
that are removed at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import resource
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
JOBS = 2  # operations measured at once, each in a process of its own
THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
           "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _maxrss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB


def _run(main, op, outdir: Path):
    """(exit code, printed summary) of one operation, its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([op.command, "--config", str(op.config), "--out", str(outdir)])
    return code, out.getvalue()


def measure(args, work: Path) -> None:
    """The lines of operation ``args.only``, in this process."""
    sys.path[:0] = [str(ROOT / "src"), str(PERFBENCH)]
    import pdesup.cli as cli
    import workloads as wl

    ops = wl.build(args.workload, args.seed, args.size, work / "inputs", ROOT / "configs")
    for i, op in enumerate(wl.warmup_operations(args.workload, work / "warmup", ROOT / "configs")):
        _run(cli.main, op, work / "warmup-out" / str(i))
    if args.checks:
        import checks
    op, outdir = ops[args.only], work / "out"
    warm = _maxrss_mib()
    code, printed = _run(cli.main, op, outdir)
    peak = _maxrss_mib()
    print(f"{op.name}: +{peak - warm:.2f} MiB (peak {peak:.2f} MiB after warm-up {warm:.2f}, "
          f"exit {code})")
    if args.checks:
        problems = checks.CHECKERS[op.check](op.config, outdir, printed, op.exact)
        after = _maxrss_mib()
        print(f"  check {op.check}: +{after - peak:.2f} MiB (peak {after:.2f} MiB, "
              f"{'; '.join(problems) or 'ok'})")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="cli-configs")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--size", default="full", choices=("full", "small"))
    p.add_argument("--checks", action="store_true", help="run perfbench's check after each command")
    p.add_argument("--only", type=int, default=None, help=argparse.SUPPRESS)  # one child's operation
    args = p.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="peak_rss-") as tmp:
        if args.only is not None:
            measure(args, Path(tmp))
            return 0
        sys.path.insert(0, str(PERFBENCH))
        import workloads as wl

        n_ops = len(wl.build(args.workload, args.seed, args.size, Path(tmp), ROOT / "configs"))
    env = dict(os.environ, PYTHONHASHSEED="0", **dict.fromkeys(THREADS, "1"))
    base = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--size", args.size] + (["--checks"] if args.checks else [])

    def child(i):  # a process's peak RSS is its own, whatever runs beside it
        return subprocess.run(base + ["--only", str(i)], env=env, check=True,
                              capture_output=True, text=True).stdout

    with ThreadPoolExecutor(JOBS) as pool:
        for lines in pool.map(child, range(n_ops)):
            print(lines, end="", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
