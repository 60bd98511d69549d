"""Golden outputs of the CLI: capture them, write them, compare against them.

Each case is one command on one scenario: the README's command pairs on
the shipped configs, plus scenarios that only their own text describes
(a Robin cycle, a nonlinear rectangle, gains that are not asserted), stored inside the golden file.
A golden file holds the exit code, stdout and stderr, every CSV that is
not a trajectory in full, and of each trajectory CSV every 100th row plus
the sup norm of every sample.  The files are gzip-compressed JSON, so that
the full sup-norm tables fit the size budget of the test directory.

Regenerate (only when a change is meant to move numbers, justified in
CHANGES.md), every case or the ones named:

    PYTHONPATH=src python tests/make_golden.py [CASE ...]

The files come out byte for byte the same for the same outputs.
"""

from __future__ import annotations

import contextlib
import csv
import gzip
import io
import json
import math
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"
TRAJECTORY_STRIDE = 100
REL_TOL = 1e-12

ROBIN_CYCLE = """\
[domain]
kind = interval

[grid]
n_x = 41
dt = 2e-3
T = 0.4

[cascade]
k = 3
topology = robin-cycle
a = 1
c = 1
m = 2.5
a_2 = 1.3+0.2*x
c_3 = 1.5
phi_1 = sin(pi*x)
phi_2 = 0.5*sin(2*pi*x)+0.2
phi_3 = 0.8*cos(pi*x)
reaction_2 = log_poly
"""

NONLINEAR_RECTANGLE = """\
[domain]
kind = rectangle
x_lo = 0
x_hi = 1.5
y_lo = 0
y_hi = 1

[grid]
n_x = 16
n_y = 11
dt = 1e-2
T = 0.3

[coefficients]
a = 1+0.2*x*y
c = 1
m = 1+x

[initial]
u0 = 2*sin(pi*x/1.5)*sin(pi*y)

[reaction]
kind = custom
expr = u*abs(u)
lambda = 2
c0 = 1
monotone = true

[disturbances]
f = 0.5*sin(3*t)*x*y
d = 0.1*cos(t)*y

[boundary]
kind = robin

[check]
c_s = 1
c_p = 1
"""

# not-asserted linear gains (c_min = 0 on Robin data) and the flat-boundary gain
ROBIN_C0_GAINS = """\
[domain]
kind = interval

[grid]
n_x = 11
dt = 1e-2
T = 0.1

[coefficients]
a = 1
c = 0
m = 1

[initial]
u0 = sin(pi*x)

[disturbances]
f = 0
d = 0

[boundary]
kind = robin

[check]
n = 3
"""

# (command, shipped config name or None, inline config text or None)
CASES = {
    "verify-decay-heat_decay": ("verify-decay", "heat_decay.ini", None),
    "verify-iss-iss_robin": ("verify-iss", "iss_robin.ini", None),
    "verify-rkes-rkes_explicit_pair": ("verify-rkes", "rkes_explicit_pair.ini", None),
    "backstep-backstep": ("backstep", "backstep.ini", None),
    "cascade-cascade_robin_open": ("cascade", "cascade_robin_open.ini", None),
    "convergence-convergence": ("convergence", "convergence.ini", None),
    "gains-iss_robin": ("gains", "iss_robin.ini", None),
    "cascade-robin_cycle": ("cascade", None, ROBIN_CYCLE),
    "simulate-nonlinear_rectangle": ("simulate", None, NONLINEAR_RECTANGLE),
    "gains-robin_c0_superlinear": ("gains", None, ROBIN_C0_GAINS),
}


def _trajectory_part(path: Path) -> dict:
    """Every ``TRAJECTORY_STRIDE``-th row of a trajectory CSV, and the sup
    norm over the nodes of every sample (rows sharing one t)."""
    lines = path.read_text(encoding="utf-8").splitlines()  # numbers only: no quoting
    values = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    per_sample = int(np.count_nonzero(values[:, 0] == values[0, 0]))
    sups = np.abs(values[:, -1]).reshape(-1, per_sample).max(axis=1)
    return {"header": lines[0].split(","), "n_rows": len(lines) - 1,
            "rows": [line.split(",") for line in lines[1::TRAJECTORY_STRIDE]],
            "sup_norms": sups.tolist()}


def capture(name: str) -> dict:
    """Run one case in-process and collect what it wrote."""
    from pdesup.cli import main

    command, shipped, text = CASES[name]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if shipped is not None:
            config = ROOT / "configs" / shipped
        else:
            config = tmp / "scenario.ini"
            config.write_text(text, encoding="utf-8")
        out = tmp / "out"
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([command, "--config", str(config), "--out", str(out)])
        record = {"command": command, "config": shipped, "config_text": text,
                  "exit_code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue(),
                  "csv": {}, "trajectories": {}}
        for path in sorted(out.glob("*.csv")):
            if path.name.startswith("trajectory"):
                record["trajectories"][path.name] = _trajectory_part(path)
            else:
                with path.open(newline="") as fh:
                    record["csv"][path.name] = list(csv.reader(fh))
    return record


def encode(record: dict) -> bytes:
    text = json.dumps(record, indent=1, sort_keys=True) + "\n"
    return gzip.compress(text.encode("utf-8"), compresslevel=9, mtime=0)


def golden_path(name: str) -> Path:
    return GOLDEN / f"{name}.json.gz"


def load(name: str) -> dict:
    return json.loads(gzip.decompress(golden_path(name).read_bytes()))


# ---------------------------------------------------------------------------
# comparison: text exactly, numbers within REL_TOL * max(1, |ref|)

# a decimal number, or nan/inf standing alone (the group keeps it in re.split)
_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
                     r"|(?<![A-Za-z_])-?(?:nan|inf)(?![A-Za-z_]))")


def _as_float(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def _close(got: float, ref: float) -> bool:
    if math.isnan(ref) or math.isinf(ref):
        return got == ref or (math.isnan(got) and math.isnan(ref))
    return abs(got - ref) <= REL_TOL * max(1.0, abs(ref))


def _compare_cell(got: str, ref: str, where: str, problems: list):
    ref_v = _as_float(ref)
    if ref_v is None:
        if got != ref:
            problems.append(f"{where}: {got!r} != {ref!r}")
        return
    got_v = _as_float(got)
    if got_v is None or not _close(got_v, ref_v):
        problems.append(f"{where}: {got!r} is not within tolerance of {ref!r}")
    elif format(got_v, ".17g") != got:  # CSV numbers are repr-faithful, 17 digits
        problems.append(f"{where}: {got!r} is not printed with 17 significant digits")


def _compare_text(got: str, ref: str, where: str, problems: list):
    """Text outside numbers exactly, numbers within tolerance (any format)."""
    got_parts, ref_parts = _NUMBER.split(got), _NUMBER.split(ref)
    if len(got_parts) != len(ref_parts):
        problems.append(f"{where}: {got!r} != {ref!r}")
        return
    for i, (g, r) in enumerate(zip(got_parts, ref_parts)):
        ok = g == r if i % 2 == 0 else _close(float(g), float(r))
        if not ok:
            problems.append(f"{where}: {got!r} != {ref!r}")
            return


def _compare_table(got, ref, where: str, problems: list):
    if len(got) != len(ref):
        problems.append(f"{where}: {len(got)} rows, expected {len(ref)}")
        return
    for i, (grow, rrow) in enumerate(zip(got, ref)):
        if len(grow) != len(rrow):
            problems.append(f"{where} row {i}: {len(grow)} cells, expected {len(rrow)}")
            continue
        for j, (g, r) in enumerate(zip(grow, rrow)):
            _compare_cell(g, r, f"{where} row {i} col {j}", problems)


def compare(got: dict, ref: dict) -> list[str]:
    """Every difference between two captured records, as messages."""
    problems = []
    for key in ("command", "config", "config_text", "exit_code", "stderr"):
        if got[key] != ref[key]:
            problems.append(f"{key}: {got[key]!r} != {ref[key]!r}")
    _compare_text(got["stdout"], ref["stdout"], "stdout", problems)
    for kind in ("csv", "trajectories"):
        if sorted(got[kind]) != sorted(ref[kind]):
            problems.append(f"{kind} files: {sorted(got[kind])} != {sorted(ref[kind])}")
    for name in set(got["csv"]) & set(ref["csv"]):
        _compare_table(got["csv"][name], ref["csv"][name], name, problems)
    for name in set(got["trajectories"]) & set(ref["trajectories"]):
        g, r = got["trajectories"][name], ref["trajectories"][name]
        if g["n_rows"] != r["n_rows"]:
            problems.append(f"{name}: {g['n_rows']} rows, expected {r['n_rows']}")
        _compare_table([g["header"]] + g["rows"], [r["header"]] + r["rows"], name, problems)
        if len(g["sup_norms"]) != len(r["sup_norms"]):
            problems.append(f"{name}: {len(g['sup_norms'])} sup norms, "
                            f"expected {len(r['sup_norms'])}")
        for i, (gs, rs) in enumerate(zip(g["sup_norms"], r["sup_norms"])):
            if not _close(gs, rs):
                problems.append(f"{name} sup norm of sample {i}: {gs!r} != {rs!r}")
    return problems


def main(names):
    GOLDEN.mkdir(exist_ok=True)
    for name in names or CASES:
        golden_path(name).write_bytes(encode(capture(name)))


if __name__ == "__main__":
    main(sys.argv[1:])
