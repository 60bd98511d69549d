"""Fast self-check of the benchmark.

    python3 perfbench/selfcheck/check.py

Runs every workload at its smallest size, in process, and shows that each
output check accepts the program's output and rejects a perturbed copy of
it (a sup_space column shifted by 1e-3, a sup-norm above its envelope, an
order of 1.5, a wrong kernel or gain constant, a wrong small-gain
constant, a failed verdict).  Then runs ``run.py`` once per workload at the
smallest size, untraced and traced, and checks that the printed metrics
are exactly those named in BENCHMARK.json.  Exits 1 on the first surprise.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402


def _edit_csv(path: Path, column: str, fn, rows=None):
    """Replace ``column`` (all rows, or the given row indices) by fn(value, row)."""
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    j = header.index(column)
    for i in range(1, len(lines)):
        if rows is None or i - 1 in rows:
            cells = lines[i].split(",")
            cells[j] = fn(cells[j], dict(zip(header, cells)))
            lines[i] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _edit_named(path: Path, name: str, factor: float):
    """Scale the value of one named row of a name,value,... CSV."""
    def fn(value, row):
        return repr(float(value) * factor) if row["name"] == name else value
    _edit_csv(path, "value", fn)


def _perturbations(op, outdir: Path):
    """(description, edit of a copy of the output directory) for this output.

    An edit of None stands for changing the printed small-gain constant."""
    out = []
    if (outdir / "report.csv").is_file():
        out.append(("verdict 'fail'", lambda d: _edit_csv(
            d / "report.csv", "verdict", lambda v, r: "fail", rows={0})))
    if op.check == "iss_exact":
        out.append(("sup_space shifted by 1e-3", lambda d: _edit_csv(
            d / "supnorms.csv", "sup_space", lambda v, r: repr(float(v) + 1e-3))))
    if (outdir / "supnorms.csv").is_file():
        out.append(("sup_space above the bound", lambda d: _edit_csv(
            d / "supnorms.csv", "sup_space", lambda v, r: repr(float(r["bound"]) + 1e-3),
            rows={1})))
        out.append(("bound column scaled by 1.001", lambda d: _edit_csv(
            d / "supnorms.csv", "bound", lambda v, r: repr(float(v) * 1.001))))
    if op.check == "simulate":
        out.append(("trajectory value moved by 1e-6", lambda d: _edit_csv(
            d / "trajectory.csv", "u", lambda v, r: repr(float(v) + 1e-6), rows={3})))
    if op.check == "convergence":
        out.append(("space order 1.5", lambda d: _edit_csv(
            d / "orders.csv", "order", lambda v, r: "1.5", rows={0})))
        out.append(("time order 1.5", lambda d: _edit_csv(
            d / "orders.csv", "order", lambda v, r: "1.5", rows={1})))
    if op.check == "backstep":
        out.append(("kernel constant M off by 1e-6", lambda d: _edit_named(
            d / "gains.csv", "M", 1 + 1e-6)))
        out.append(("kernel maximum off by 1e-6", lambda d: _edit_named(
            d / "gains.csv", "max_kernel", 1 + 1e-6)))
    if op.check == "gains":
        for name in ("l_f", "l_d", "geometry_factor", "c_s_1d"):
            out.append((f"{name} off by 1e-6", lambda d, n=name: _edit_named(
                d / "gains.csv", n, 1 + 1e-6)))
    if op.check == "cascade":
        out.append(("small-gain constant off by 1e-6", None))
        out.append(("subsystem sup above the chain bound", lambda d: _edit_csv(
            d / "supnorms_1.csv", "sup_space", lambda v, r: "1000.0", rows={2})))
    return out


def _run_op(main, op, outdir):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        rc = main([op.command, "--config", str(op.config), "--out", str(outdir)])
    return rc, buf.getvalue()


def _small_gain_off(printed: str) -> str:
    head, _, tail = printed.partition("small-gain ")
    value, sep, rest = tail.partition(";")
    return f"{head}small-gain {float(value) * (1 + 1e-6)!r}{sep}{rest}"


def check_outputs(scratch: Path) -> int:
    import pdesup.cli as cli
    n_rejected = 0
    for workload in workloads.WORKLOADS:
        ops = workloads.build(workload, 7, "small", scratch / workload / "in", ROOT / "configs")
        for op in ops:
            outdir = scratch / workload / "out" / op.name.replace(":", "_")
            rc, printed = _run_op(cli.main, op, outdir)
            if rc != 0:
                raise SystemExit(f"{workload} {op.name}: exit {rc}")
            bad = checks.CHECKERS[op.check](op.config, outdir, printed, op.exact)
            if bad:
                raise SystemExit(f"{workload} {op.name}: correct output rejected: {bad}")
            for what, edit in _perturbations(op, outdir):
                copy = outdir.with_name(outdir.name + "-perturbed")
                shutil.rmtree(copy, ignore_errors=True)
                shutil.copytree(outdir, copy)
                text = printed
                if edit is None:
                    text = _small_gain_off(printed)
                else:
                    edit(copy)
                bad = checks.CHECKERS[op.check](op.config, copy, text, op.exact)
                if not bad:
                    raise SystemExit(f"{workload} {op.name}: {what} was accepted")
                n_rejected += 1
                print(f"ok  {workload:12s} {op.name:45s} rejects {what}")
    return n_rejected


def check_runs() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(workloads.WORKLOADS):
        raise SystemExit(f"BENCHMARK.json workloads {names} != {workloads.WORKLOADS}")
    for workload in names:
        for trace in (0, 1):
            cmd = [*spec["command"], "--workload", workload, "--seed", "3", "--seconds", "1",
                   "--trace", str(trace), "--size", "small"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            if proc.returncode != 0:
                raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr}")
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want[trace]:
                raise SystemExit(f"{workload} trace={trace}: metrics {sorted(got)} "
                                 f"differ from BENCHMARK.json {sorted(want[trace])}")
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                raise SystemExit(f"{workload} trace={trace}: {res} ({proc.stderr})")
            print(f"ok  run.py {workload:12s} trace={trace}: {res['attempted']} operations, 0 failed")


def main() -> int:
    scratch = ROOT / ".perfbench-out" / "selfcheck"
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        n = check_outputs(scratch)
        print(f"{n} perturbed outputs rejected")
        check_runs()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass
    print("self-check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
