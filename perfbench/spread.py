"""Run-to-run spread of the end-to-end metrics, for setting and checking bounds.

    python3 perfbench/spread.py --sets 1-10 11-20
    python3 perfbench/spread.py --sets 1-1 --trace

Runs ``run.py`` once per (workload, seed), one run at a time: every
workload on the first set of seeds, then every workload on the next.  It
prints per workload and metric each set's median, its quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and its spread
(q3 - q1) / median, next to the metric's bound from BENCHMARK.json.  With
two sets it also prints by how much the second set's median is worse than
the first's, in the metric's worse direction.

With ``--trace`` it makes, per seed, one untraced run and two traced runs.
It reports any per-layer count that differs between the two traced runs,
prints the per-layer metrics of the first seed's first traced run, and the
tracing overhead: traced ``wall_s`` (mean of the two) minus the untraced
``wall_s`` of the same seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# per-layer metrics that must repeat exactly between two traced runs
COUNTS = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "MB")]


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int, trace: int) -> dict:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{workload} seed {seed} trace {trace}: attempted={res['attempted']} "
          f"failed={res['failed']} correct={res['correct']} " + " ".join(
              f"{k}={v['value']:.5g}" for k, v in res["metrics"].items()
              if trace == 0 or k not in COUNTS), file=sys.stderr)
    return res


def _stats(results: list, name: str):
    vals = [r["metrics"][name]["value"] for r in results]
    q1, _, q3 = statistics.quantiles(vals, n=4)
    med = statistics.median(vals)
    return med, q1, q3, (q3 - q1) / med


def spread(sets: list) -> None:
    runs = [{w: [_run(w, s, 0) for s in seeds] for w in WORKLOADS} for seeds in sets]
    head = "| workload | metric | " + " | ".join(
        f"set {i + 1} median [q1, q3] | spread {i + 1}" for i in range(len(sets)))
    rule = "| --- | --- | " + " | ".join("--- | ---" for _ in sets)
    if len(sets) == 2:
        head += " | set 2 worse than set 1 by"
        rule += " | ---"
    print(head + " | bound |")
    print(rule + " | --- |")
    for w in WORKLOADS:
        for m in SPEC["end_to_end"]:
            cells = []
            for r in runs:
                med, q1, q3, sp = _stats(r[w], m["name"])
                cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}] | {sp:.3f}")
            if len(sets) == 2:
                a, b = _stats(runs[0][w], m["name"])[0], _stats(runs[1][w], m["name"])[0]
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                cells.append(f"{worse:+.3f}")
            print(f"| {w} | {m['name']} ({m['unit']}) | {' | '.join(cells)} | {m['bound']} |")
        shares = " | ".join(
            f"{sorted({x['failed'] / x['attempted'] for x in r[w]})} | "
            f"attempted {min(x['attempted'] for x in r[w])}-{max(x['attempted'] for x in r[w])}"
            for r in runs)
        print(f"| {w} | failed share | {shares}{' | ' if len(sets) == 2 else ''} | |")


def traced(seeds: list) -> None:
    first, overhead = {}, []
    for w in WORKLOADS:
        for seed in seeds:
            plain = _run(w, seed, 0)
            a, b = _run(w, seed, 1), _run(w, seed, 1)
            first.setdefault(w, a)
            diff = [k for k in COUNTS if a["metrics"][k]["value"] != b["metrics"][k]["value"]]
            print(f"{w} seed {seed}: counts {'repeat' if not diff else f'differ: {diff}'}")
            t = [x["metrics"]["trace.wall_s"]["value"] for x in (a, b)]
            u = plain["metrics"]["wall_s"]["value"]
            overhead.append(f"| {w} | {seed} | {u:.3f} s | {t[0]:.3f} s, {t[1]:.3f} s | "
                            f"{(t[0] + t[1]) / 2 - u:+.3f} s ({((t[0] + t[1]) / 2 - u) / u:+.0%}) |")
    print("\n| metric | unit | " + " | ".join(WORKLOADS) + " |")
    print("| --- | --- | " + " | ".join("---" for _ in WORKLOADS) + " |")
    for m in SPEC["per_layer"]:
        vals = " | ".join(f"{first[w]['metrics'][m['name']]['value']:.4g}" for w in WORKLOADS)
        print(f"| `{m['name']}` | {m['unit']} | {vals} |")
    print("\n| workload | seed | untraced wall_s | traced wall_s (two runs) | overhead |")
    print("| --- | --- | --- | --- | --- |")
    print("\n".join(overhead))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--sets", nargs="+", default=["1-10"],
                   help="seed ranges such as 1-10; with two, the second is compared with the first")
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)
    sets = [_seeds(s) for s in args.sets]
    if args.trace:
        traced([s for seeds in sets for s in seeds])
    else:
        spread(sets)
    return 0


if __name__ == "__main__":
    sys.exit(main())
