"""One workload process: set up, then run whole rounds of operations.

Started by ``run.py`` with BLAS/OpenMP pinned to one thread.  Set-up is
the ``pdesup`` import, input generation and a warm-up pass of the
workload's commands on tiny inputs.  With ``--setup-only`` the process
stops there.  Otherwise it runs rounds (every operation of the workload,
in order) for about ``--seconds`` and at least two rounds, checks every
output, and writes its raw figures as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import monotonic, perf_counter

MIN_ROUNDS = 2


def _call_cli(main, op, outdir: Path):
    """(exit code or error text, printed summary, seconds) of one operation."""
    argv = [op.command, "--config", str(op.config), "--out", str(outdir)]
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except (Exception, SystemExit):
        rc = traceback.format_exc(limit=3)
    elapsed = perf_counter() - t0
    if rc != 0 and err.getvalue():
        rc = f"{rc}: {err.getvalue().strip()}"
    return rc, out.getvalue(), elapsed


def _written(outdir: Path):
    """(bytes, CSV data rows) of what one operation wrote."""
    size = rows = 0
    for path in outdir.iterdir():
        data = path.read_bytes()
        size += len(data)
        rows += max(data.count(b"\n") - 1, 0)
    return size, rows


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--size", default="full")
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--configs", type=Path, required=True)
    p.add_argument("--t0", type=float, required=True,
                   help="monotonic clock reading taken just before this process was started")
    p.add_argument("--result", type=Path, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)

    import pdesup.cli as cli
    t_import = monotonic()
    import workloads
    ops = workloads.build(args.workload, args.seed, args.size,
                          args.workdir / "inputs", args.configs)
    warm = workloads.warmup_operations(args.workload, args.workdir / "warmup", args.configs)
    t_inputs = monotonic()
    warm_errors = []
    for i, op in enumerate(warm):
        rc, _, _ = _call_cli(cli.main, op, args.workdir / "warmup-out" / str(i))
        if rc != 0:
            warm_errors.append(f"warm-up {op.name}: {rc}")
    shutil.rmtree(args.workdir / "warmup-out", ignore_errors=True)
    t_setup = monotonic()
    result = {"setup": {"import_s": t_import - args.t0, "inputs_s": t_inputs - t_import,
                        "warmup_s": t_setup - t_inputs, "end": t_setup},
              "errors": warm_errors}
    if args.setup_only:
        args.result.write_text(json.dumps(result))
        return 0

    import checks
    tracer = None
    main_fn = cli.main
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
        main_fn = tracer.span("cli", cli.main)

    op_times, round_walls, problems = [], [], []
    by_op = {op.name: [] for op in ops}
    attempted = failed = written_bytes = rows_written = 0
    start = monotonic()
    while True:
        r = len(round_walls)
        wall = 0.0
        round_start = monotonic()
        for i, op in enumerate(ops):
            outdir = args.workdir / "out" / f"{r}-{i}"
            rc, printed, elapsed = _call_cli(main_fn, op, outdir)
            attempted += 1
            wall += elapsed
            op_times.append(elapsed)
            by_op[op.name].append(elapsed)
            if rc != 0:
                bad = [f"exit {rc}"]
            else:
                try:
                    bad = checks.CHECKERS[op.check](op.config, outdir, printed, op.exact)
                except Exception:
                    bad = [traceback.format_exc(limit=3)]
            if bad:
                failed += 1
                problems.append(f"{op.name}: {'; '.join(bad)}")
            if tracer is not None and outdir.is_dir():
                size, rows = _written(outdir)
                written_bytes += size
                rows_written += rows
            shutil.rmtree(outdir, ignore_errors=True)
        round_walls.append(wall)
        if len(round_walls) == MIN_ROUNDS:
            # peak memory still grows in the second round of some workloads,
            # so it is read after a fixed number of rounds: how many rounds
            # fit in the run must not move it
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB
        # stop where another whole round would overrun the run length by
        # more than half a round, so runs last about --seconds
        now = monotonic()
        if len(round_walls) >= MIN_ROUNDS and now - start + (now - round_start) / 2 >= args.seconds:
            break

    rounds = len(round_walls)
    result.update({
        "rounds": rounds,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "wall_s": statistics.median(round_walls),
        "op_p50_s": statistics.median(op_times),
        "op_median_s": {name: statistics.median(v) for name, v in by_op.items()},
        "node_steps": sum(op.node_steps for op in ops),
        "peak_rss_mb": peak_rss_mb,
    })
    if tracer is not None:
        result["trace"] = tracer.metrics(rounds, written_bytes, rows_written,
                                         statistics.median(round_walls))
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
