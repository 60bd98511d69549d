"""pdesup benchmark: one workload per invocation, one process at a time.

    python3 perfbench/run.py --workload suite-1d --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout.  Every operation is one in-process
call of ``pdesup.cli.main`` on a generated (or shipped) scenario file, and
every output is checked apart from the program.  Set-up is taken in
several fresh interpreters and reported as their median.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``).  A summary goes to standard error.
See README.md for the workloads, metrics and reference figures.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli-configs", "suite-1d", "cascade-1d", "rect-2d")
SETUP_SAMPLES = 3           # fresh interpreters per run; the last one measures
DEADLINE_S = 170.0          # the whole run ends within this


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(args, workdir: Path, deadline: float, extra) -> dict:
    result = workdir / "result.json"
    t0 = monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--size", args.size, "--workdir", str(workdir), "--configs", str(ROOT / "configs"),
           "--t0", repr(t0), "--result", str(result), *extra]
    proc = subprocess.run(cmd, env=_env(), cwd=ROOT, timeout=max(1.0, deadline - monotonic()),
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0 or not result.is_file():
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    data = json.loads(result.read_text())
    data["setup"]["total_s"] = data["setup"].pop("end") - t0
    return data


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "small"), default="full",
                   help="'small' is the self-check size")
    args = p.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        p.error("--seconds must lie in 1..60")
    if not (ROOT / "src" / "pdesup" / "cli.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"no pdesup source tree (src/pdesup, configs/) under {ROOT}", file=sys.stderr)
        return 2

    deadline = monotonic() + DEADLINE_S
    workdir = ROOT / ".perfbench-out" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        setups = []
        for i in range(SETUP_SAMPLES - 1):
            setups.append(_worker(args, workdir / f"probe{i}", deadline, ["--setup-only"])["setup"])
        run = _worker(args, workdir / "run", deadline, ["--trace"] if args.trace else [])
        setups.append(run["setup"])
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (ROOT / ".perfbench-out").rmdir()
        except OSError:
            pass

    errors = run["errors"] + run["problems"]
    for line in errors:
        print(f"problem: {line}", file=sys.stderr)

    def med(key):
        return statistics.median(s[key] for s in setups)

    if args.trace:
        metrics = {f"setup.{k}": {"value": med(k), "unit": "s"}
                   for k in ("import_s", "inputs_s", "warmup_s")}
        metrics.update(run["trace"])
    else:
        metrics = {
            "setup_s": {"value": med("total_s"), "unit": "s"},
            "wall_s": {"value": run["wall_s"], "unit": "s"},
            "op_p50_s": {"value": run["op_p50_s"], "unit": "s"},
            "node_steps_per_s": {"value": run["node_steps"] / run["wall_s"], "unit": "1/s"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MiB"},
        }
    print(f"{args.workload} seed={args.seed}: {run['rounds']} rounds, "
          f"{run['attempted']} operations, {run['failed']} failed", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    for name, t in run["op_median_s"].items():
        print(f"  median time of {name:50s} {t:.4f} s", file=sys.stderr)
    print(json.dumps({"correct": not errors, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
