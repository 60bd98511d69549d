import csv
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from pdesup.cli import _write_report, _write_trajectory, main
from pdesup.config import cascade_from_config, load_config, scenario_from_config
from pdesup.core import ROBIN, Trajectory, grid_1d, grid_2d
from pdesup.harness import Report
from pdesup.solver import ConfigError

HEAT_DECAY = """
[domain]
kind = interval
x_lo = 0
x_hi = 1

[grid]
n_x = 81
dt = 2e-3
T = 1.0

[coefficients]
a = 1
c = 1
m = 1

[initial]
u0 = sin(pi*x)

[reaction]
kind = log_poly

[disturbances]
f = 0
d = 0

[boundary]
kind = robin
"""

ISS_ROBIN = """
[domain]
kind = interval

[grid]
n_x = 81
dt = 2e-3
T = 1.5

[coefficients]
a = 1
c = 1
m = 1

[initial]
u0 = sin(pi*x)

[disturbances]
f = 0.1*sin(2*pi*x)*sin(t)
d = 0.05

[boundary]
kind = robin
"""

RKES_PAIR = """
[domain]
kind = interval
x_hi = 1.5707963267948966

[grid]
n_x = 201
dt = 1e-3
T = 2.0

[coefficients]
a = 1
c = 0
m = 1

[initial]
u0 = 0

[disturbances]
f = sqrt(2)*sin(x)*cos(t-pi/4)
d = sin(t)*sin(x)
f2 = 3*sqrt(2)*sin(x)*cos(t-pi/4)
d2 = 3*sin(t)*sin(x)

[boundary]
kind = dirichlet
"""

GAINS = """
[domain]
kind = interval

[grid]
n_x = 11
dt = 1e-2
T = 0.1

[coefficients]
a = 1
c = 1
m = 1

[initial]
u0 = 0

[boundary]
kind = dirichlet

[check]
q = inf
c = 1
sigma = 1
n = 3
"""

CASCADE = """
[domain]
kind = interval

[grid]
n_x = 41
dt = 2e-3
T = 0.4

[cascade]
k = 3
topology = robin-open
a = 1
c = 1
m = 2
phi_1 = sin(pi*x)
phi_2 = 0.5*sin(pi*x)
phi_3 = sin(2*pi*x)
d = 0.3*sin(t)
"""

CONVERGENCE = """
[domain]
kind = interval
x_hi = 1.5707963267948966

[grid]
n_x = 26
dt = 4e-3
T = 2.0

[coefficients]
a = 1
c = 0
m = 1

[initial]
u0 = 0

[disturbances]
f = sqrt(2)*sin(x)*cos(t-pi/4)
d = sin(t)*sin(x)

[boundary]
kind = dirichlet

[check]
exact = sin(t)*sin(x)
refinements = 3
"""


def _write(tmp_path, text, name="scenario.ini"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def test_scenario_from_config(tmp_path):
    cp = load_config(_write(tmp_path, HEAT_DECAY))
    sc = scenario_from_config(cp)
    assert sc.boundary.kind == ROBIN
    assert sc.grid.n_x == 81
    assert sc.reaction.kind == "log_poly"
    assert sc.bounds.c_min == 1.0


def test_missing_config_exit_code(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "nope.ini")]) == 2


def test_bad_expression_exit_code(tmp_path):
    p = _write(tmp_path, HEAT_DECAY.replace("u0 = sin(pi*x)", "u0 = sin(pi*x"))
    assert main(["simulate", "--config", str(p), "--out", str(tmp_path / "o")]) == 2


def test_simulate_writes_artifacts(tmp_path):
    p = _write(tmp_path, HEAT_DECAY)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(p), "--out", str(out)]) == 0
    assert (out / "trajectory.csv").is_file()
    sup = (out / "supnorms.csv").read_text().splitlines()
    assert sup[0] == "t,sup_space,running_sup_f,running_sup_d,bound,margin"
    assert len(sup) == 502


def test_verify_decay_cli(tmp_path):
    p = _write(tmp_path, HEAT_DECAY)
    out = tmp_path / "out"
    assert main(["verify-decay", "--config", str(p), "--out", str(out)]) == 0
    rep = (out / "report.csv").read_text().splitlines()
    assert rep[1].startswith("decay,pass,")


def test_verify_iss_cli(tmp_path):
    p = _write(tmp_path, ISS_ROBIN)
    out = tmp_path / "out"
    assert main(["verify-iss", "--config", str(p), "--out", str(out)]) == 0


def test_verify_iss_fail_exit_code(tmp_path):
    # corrupted-gain fixtures live in the harness tests; exit-code plumbing is
    # exercised by declaring c_min = 50 where c = 1: the envelope then decays
    # faster than the solution, and the bound fails (a tolerance must be
    # non-negative, so it cannot be demanded below exact)
    p = _write(tmp_path, HEAT_DECAY.replace("c = 1\n", "c = 1\nc_min = 50\n"))
    out = tmp_path / "out"
    code = main(["verify-iss", "--config", str(p), "--out", str(out), "--tol=0"])
    assert code == 1
    assert (out / "report.csv").read_text().splitlines()[1].startswith("iss,fail,")


def test_verify_rkes_cli_explicit_pair(tmp_path):
    p = _write(tmp_path, RKES_PAIR)
    out = tmp_path / "out"
    assert main(["verify-rkes", "--config", str(p), "--out", str(out)]) == 0
    rep = (out / "report.csv").read_text().splitlines()
    assert rep[1].startswith("rkes,pass,")


def test_gains_cli_values(tmp_path):
    p = _write(tmp_path, GAINS)
    out = tmp_path / "out"
    assert main(["gains", "--config", str(p), "--out", str(out)]) == 0
    rows = {}
    for line in (out / "gains.csv").read_text().splitlines()[1:]:
        name, value, _ = line.split(",", 2)
        rows[name] = float(value)
    assert rows["c_p_1d"] == pytest.approx(2 / math.sqrt(math.pi), rel=1e-15)
    assert rows["c_s_1d"] == pytest.approx(1 / math.sqrt(2), rel=1e-15)
    assert rows["geometry_factor"] == pytest.approx(2 ** 1.5, rel=1e-15)
    assert rows["C"] == pytest.approx(2 * math.sqrt(2), rel=1e-15)
    assert rows["M"] == pytest.approx(98.41710844615102, rel=1e-12)
    assert rows["superlinear_gain"] == pytest.approx(36 * 2 ** 8.75, rel=1e-15)


def test_gains_csv_deterministic(tmp_path):
    p = _write(tmp_path, GAINS)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    main(["gains", "--config", str(p), "--out", str(out1)])
    main(["gains", "--config", str(p), "--out", str(out2)])
    assert (out1 / "gains.csv").read_bytes() == (out2 / "gains.csv").read_bytes()


def test_cascade_cli(tmp_path):
    p = _write(tmp_path, CASCADE)
    out = tmp_path / "out"
    assert main(["cascade", "--config", str(p), "--out", str(out)]) == 0
    assert (out / "supnorms_3.csv").is_file()
    rep = (out / "report.csv").read_text().splitlines()
    assert rep[1].startswith("cascade,pass,")


def test_cascade_config_roundtrip(tmp_path):
    cp = load_config(_write(tmp_path, CASCADE))
    spec = cascade_from_config(cp)
    assert spec.k == 3
    assert spec.small_gain == 2.0


def test_convergence_cli(tmp_path):
    p = _write(tmp_path, CONVERGENCE)
    out = tmp_path / "out"
    assert main(["convergence", "--config", str(p), "--out", str(out)]) == 0
    orders = dict(line.split(",") for line in (out / "orders.csv").read_text().splitlines()[1:])
    assert float(orders["space"]) >= 1.9
    assert float(orders["time"]) >= 1.9


BACKSTEP = """
[domain]
kind = interval

[grid]
n_x = 101
dt = 1e-3
T = 1.0

[coefficients]
a = 1
c = 0

[initial]
u0 = sin(pi*x)

[disturbances]
f = 0
d0 = 0.1*sin(t)
d1 = 0.1*sin(t)

[boundary]
kind = dirichlet

[check]
c = 15
sigma = 1
"""


def test_backstep_cli(tmp_path):
    p = _write(tmp_path, BACKSTEP)
    out = tmp_path / "out"
    assert main(["backstep", "--config", str(p), "--out", str(out)]) == 0
    rep = (out / "report.csv").read_text().splitlines()
    assert rep[1].startswith("closed-loop,pass,")
    assert (out / "trajectory_target.csv").is_file()


def test_cli_module_entrypoint(tmp_path):
    p = _write(tmp_path, GAINS)
    out = tmp_path / "out"
    # the subprocess does not inherit pytest's pythonpath; give it the package's src
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "pdesup", "gains",
                           "--config", str(p), "--out", str(out)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "c_p_1d" in proc.stdout


def test_exit_code_numerical_failure(tmp_path):
    # blow-up reaction (finite-time divergence): Newton/step failure -> exit 3
    text = """
[domain]
kind = interval

[grid]
n_x = 41
dt = 1e-2
T = 2.0

[coefficients]
a = 1
c = 0

[initial]
u0 = 3*sin(pi*x)

[reaction]
kind = custom
expr = -8*u^3
lambda = 3
c0 = 8
monotone = false

[boundary]
kind = dirichlet
"""
    p = _write(tmp_path, text)
    assert main(["simulate", "--config", str(p), "--out", str(tmp_path / "o")]) == 3


ISS_ROBIN_CONFIG = (Path(__file__).resolve().parents[1] / "configs" / "iss_robin.ini").read_text()


@pytest.mark.parametrize("text", [
    ISS_ROBIN_CONFIG.replace("d = 0.05", "d = ln(t-1)"),
    ISS_ROBIN.replace("n_x = 81", "n_x = 21").replace("d = 0.05", "d = ln(t-1)"),
    ISS_ROBIN_CONFIG.replace("u0 = sin(pi*x)", "u0 = 1e308*sin(pi*x)"),
    ISS_ROBIN.replace("u0 = sin(pi*x)", "u0 = 1e308*sin(pi*x)"),
    ISS_ROBIN_CONFIG.replace("d = 0.05", "d = 1/(t-0.002)"),
], ids=["log_poly-101", "linear-21", "overflow-log_poly-101", "overflow-linear-81",
        "infinite-d-log_poly-101"])
def test_non_finite_data_is_a_numerical_failure(tmp_path, text):
    # ln(t-1) is NaN on the whole run, 1/(t-0.002) infinite at the first
    # step's end, and 1e308 sin(pi x) finite but overflowing in A u: the
    # first step refuses its residual (there is no scan of the state)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "pdesup", "verify-iss", "--config",
                           str(_write(tmp_path, text)), "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert "numerical failure: non-finite residual at t=0.002" in proc.stderr
    # numpy's floating-point warnings stay quiet: the failure line is all
    assert proc.stderr == "numerical failure: non-finite residual at t=0.002\n"


@pytest.mark.parametrize("config, command", [("iss_robin.ini", "verify-iss"),
                                             ("cascade_robin_open.ini", "cascade")])
def test_too_large_a_grid_is_a_numerical_failure(tmp_path, capsys, config, command):
    # 1e15 nodes: the first node array numpy is asked for cannot be allocated
    text = (Path(__file__).resolve().parents[1] / "configs" / config).read_text()
    text = text.replace("n_x = 61", "n_x = 1e15").replace("n_x = 101", "n_x = 1e15")
    assert "n_x = 1e15" in text
    code = main([command, "--config", str(_write(tmp_path, text)), "--out", str(tmp_path / "o")])
    assert code == 3
    assert capsys.readouterr().err.startswith("numerical failure: out of memory: ")


def test_robin_split_endpoint_data(tmp_path):
    text = HEAT_DECAY.replace("f = 0\nd = 0", "f = 0\nd_left = 0.2\nd_right = 0.1*sin(t)")
    p = _write(tmp_path, text)
    cp = load_config(p)
    sc = scenario_from_config(cp)
    assert float(sc.boundary.data(x=0.0, t=1.0)) == pytest.approx(0.2)
    assert float(sc.boundary.data(x=1.0, t=1.0)) == pytest.approx(0.1 * math.sin(1.0))


def test_2d_verify_iss_with_supplied_constants(tmp_path):
    text = """
[domain]
kind = rectangle
x_lo = 0
x_hi = 1
y_lo = 0
y_hi = 1

[grid]
n_x = 13
n_y = 13
dt = 2e-3
T = 0.3

[coefficients]
a = 1
c = 1
m = 1

[initial]
u0 = sin(pi*x)*sin(pi*y)

[disturbances]
f = 0.1*sin(pi*x)*sin(pi*y)*sin(t)
d = 0.05*sin(t)

[boundary]
kind = robin

[check]
q = 4
c_s = 2.0
c_p = 2.5
"""
    p = _write(tmp_path, text)
    out = tmp_path / "out"
    # conditional on the supplied constants; the generous values make the
    # check meaningful as plumbing validation
    assert main(["verify-iss", "--config", str(p), "--out", str(out)]) == 0
    # without constants the config is rejected
    p2 = _write(tmp_path, text.replace("c_s = 2.0\n", "").replace("c_p = 2.5\n", ""),
                name="bad.ini")
    assert main(["verify-iss", "--config", str(p2), "--out", str(out)]) == 2


RECT_DIRICHLET = """
[domain]
kind = rectangle

[grid]
n_x = 31
n_y = 31
dt = 1e-2
T = 0.5

[coefficients]
a = 1
c = 1
m = 1

[initial]
u0 = sin(pi*x)*sin(pi*y)

[boundary]
kind = dirichlet
"""


def test_simulate_rectangle_without_constants_fails_before_solving(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(_write(tmp_path, RECT_DIRICHLET)), "--out", str(out)])
    assert code == 2
    assert "c_s and c_p" in capsys.readouterr().err
    assert not (out / "trajectory.csv").exists()


def test_constant_division_by_zero_is_a_config_error(tmp_path, capsys):
    p = _write(tmp_path, ISS_ROBIN.replace("f = 0.1*sin(2*pi*x)*sin(t)", "f = x + 1/0"))
    assert main(["simulate", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "[disturbances] f:" in err and "1.0/0.0" in err


@pytest.mark.parametrize("command, text, key", [
    ("verify-decay", HEAT_DECAY.replace("c = 1", "c = 0"), "[coefficients] c"),
    ("verify-decay", HEAT_DECAY.replace("dt = 2e-3", "dt = nan"), "[grid] dt"),
    ("verify-decay", HEAT_DECAY.replace("n_x = 81", "n_x = 2"), "[grid] n_x"),
    ("verify-decay", HEAT_DECAY.replace("n_x = 81", "n_x = nan"), "[grid] n_x"),
    ("verify-decay", HEAT_DECAY.replace("x_hi = 1", "x_hi = 0"), "[domain] x_hi"),
    ("verify-decay", HEAT_DECAY.replace("f = 0", "f = 0.1"), "[disturbances] f"),
    ("verify-iss", ISS_ROBIN.replace("c = 1", "c = -1"), None),
    # each key is parsed over exactly the variables its evaluation supplies
    ("verify-iss", ISS_ROBIN.replace("d = 0.05", "d = y"), "[disturbances] d"),
    ("verify-decay", HEAT_DECAY.replace("u0 = sin(pi*x)", "u0 = t"), "[initial] u0"),
    ("verify-decay", HEAT_DECAY.replace("a = 1", "a = 1+t"), "[coefficients] a"),
    ("verify-decay", HEAT_DECAY.replace("c = 1", "c = 1+y"), "[coefficients] c"),
    ("backstep", BACKSTEP.replace("d0 = 0.1*sin(t)", "d0 = x*sin(t)"), "[disturbances] d0"),
    ("cascade", CASCADE.replace("a = 1", "a = 1+t"), "[cascade] a"),
    ("cascade", CASCADE.replace("d = 0.3*sin(t)", "d = 0.3*sin(t)*y"), "[cascade] d"),
    ("backstep", BACKSTEP.replace("c = 15", "c = -1"), "[check] c"),
    ("backstep", BACKSTEP.replace("sigma = 1", "sigma = 0"), "[check] sigma"),
    ("convergence", CONVERGENCE.replace("refinements = 3", "refinements = 2"),
     "[check] refinements"),
    ("cascade", CASCADE.replace("k = 3", "k = 2.5"), "[cascade] k"),
    ("verify-decay", HEAT_DECAY.replace("n_x = 81", "n_x = 61.5"), "[grid] n_x"),
    ("verify-iss", ISS_ROBIN + "\n[check]\nc_s = 0\n", "[check] c_s"),
    ("verify-iss", ISS_ROBIN + "\n[check]\nc_s = nan\n", "[check] c_s"),
    ("verify-iss", ISS_ROBIN + "\n[check]\nc_s = -1\n", "[check] c_s"),
    ("verify-iss", ISS_ROBIN + "\n[check]\nc_p = inf\n", "[check] c_p"),
    ("verify-iss", ISS_ROBIN + "\n[check]\nq = 1\n", "[check] q"),
    ("verify-iss", ISS_ROBIN + "\n[check]\nq = nan\n", "[check] q"),
    ("cascade", CASCADE.replace("robin-open", "dirichlet-open").replace("d = ", "f = ")
     + "\n[check]\nq = 1\n", "[check] q"),
    ("gains", ISS_ROBIN + "\n[check]\nn = 2\n", "[check] n"),
    ("gains", ISS_ROBIN + "\n[check]\nn = 0\n", "[check] n"),
    ("verify-iss", ISS_ROBIN + "\n[check]\ntol = nan\n", "[check] tol"),
    ("verify-iss", ISS_ROBIN + "\n[check]\ntol = -1\n", "[check] tol"),
], ids=["decay-c-zero", "decay-dt-nan", "decay-n_x-2", "decay-n_x-nan", "decay-empty-domain",
        "decay-nonzero-f", "iss-c-negative", "interval-d-y", "u0-t", "a-t", "interval-c-y",
        "backstep-d0-x", "cascade-shared-a-t", "interval-cascade-d-y", "backstep-c-negative",
        "backstep-sigma-zero", "convergence-refinements-2", "cascade-k-2.5", "decay-n_x-61.5",
        "iss-c_s-zero", "iss-c_s-nan", "iss-c_s-negative", "iss-c_p-inf", "iss-q-1", "iss-q-nan",
        "dirichlet-open-cascade-q-1", "gains-n-2", "gains-n-0", "iss-tol-nan", "iss-tol-negative"])
def test_invalid_inputs_exit_cleanly(tmp_path, capsys, command, text, key):
    out = tmp_path / "out"
    # an exception escaping main() would be a traceback for the user
    code = main([command, "--config", str(_write(tmp_path, text)), "--out", str(out)])
    err = capsys.readouterr().err
    if key is not None:
        assert code == 2
        assert f"config error: {key}:" in err
    else:
        # destabilizing c: simulated, nothing asserted, and the report says so
        assert code == 0
        assert (out / "report.csv").read_text().splitlines()[1].startswith("iss,not-asserted,")


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_invalid_tol_flag_exits_cleanly(tmp_path, capsys, tol):
    out = tmp_path / "out"
    code = main(["verify-iss", "--config", str(_write(tmp_path, ISS_ROBIN)), "--out", str(out),
                 "--tol", tol])
    assert code == 2
    assert f"config error: --tol: must be finite and non-negative, got {float(tol)!r}" \
        in capsys.readouterr().err
    assert not (out / "report.csv").exists()


def test_zero_tol_is_accepted(tmp_path):
    p = _write(tmp_path, ISS_ROBIN + "\n[check]\ntol = 0\n")
    assert main(["verify-iss", "--config", str(p), "--out", str(tmp_path / "a")]) == 0
    assert main(["verify-iss", "--config", str(p), "--out", str(tmp_path / "b"), "--tol", "0"]) == 0


def _row_wise_trajectory(path, traj):
    """One formatted cell at a time (reference for the column writer)."""
    def fmt(v):
        v = float(v)
        if math.isnan(v):
            return "nan"
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return format(v, ".17g")

    g = traj.grid
    if g.dim == 1:
        lines = ["t,x,u"] + [",".join(map(fmt, (t, x, traj.values[i, j])))
                             for i, t in enumerate(traj.times) for j, x in enumerate(g.x)]
    else:
        lines = ["t,x,y,u"] + [",".join(map(fmt, (t, x, y, traj.values[i, iy, ix])))
                               for i, t in enumerate(traj.times)
                               for iy, y in enumerate(g.y) for ix, x in enumerate(g.x)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


_SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.2e-310, 1 / 3, -1e300, 7.0]


@pytest.mark.parametrize("grid", [grid_1d(7, -0.5, 1.0), grid_2d(4, 3, 0.0, 1.0, -1.0, 0.1)],
                         ids=["1d", "2d"])
def test_trajectory_csv_matches_row_wise_writer(tmp_path, grid):
    rng = np.random.default_rng(grid.dim)
    times = np.array([0.0, 2.5e-7, 0.1, 1 / 3])
    values = rng.normal(size=(times.size, *grid.shape)) * 10.0 ** rng.integers(-20, 20, size=(times.size, *grid.shape))
    Trajectory(grid, times, values)  # a valid trajectory of that shape...
    values.reshape(-1)[:len(_SPECIAL)] = _SPECIAL
    # ...but Trajectory rejects non-finite values, so the writer gets a stand-in
    traj = SimpleNamespace(grid=grid, times=times, values=values)
    _write_trajectory(tmp_path / "new.csv", traj)
    _row_wise_trajectory(tmp_path / "ref.csv", traj)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def _report_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_report_notes_why_iss_is_not_asserted(tmp_path):
    out = tmp_path / "out"
    p = _write(tmp_path, ISS_ROBIN.replace("c = 1", "c = -1"))
    assert main(["verify-iss", "--config", str(p), "--out", str(out)]) == 0
    (row,) = _report_rows(out / "report.csv")
    assert row["verdict"] == "not-asserted"
    assert row["notes"].startswith("hypotheses not met: ")


def test_report_notes_cascade_raw_norms(tmp_path):
    out = tmp_path / "out"
    # a Robin cycle with m = 1 has small-gain constant 1: nothing is asserted
    text = CASCADE.replace("robin-open", "robin-cycle").replace("m = 2", "m = 1")
    p = _write(tmp_path, text.replace("d = 0.3*sin(t)\n", ""))
    assert main(["cascade", "--config", str(p), "--out", str(out)]) == 0
    (row,) = _report_rows(out / "report.csv")
    assert row["verdict"] == "not-asserted"
    assert row["notes"].endswith("; raw norms recorded")


def test_report_quotes_notes_and_keeps_witness_y(tmp_path):
    reports = [Report("a", "pass", 0.5, (0.25, 0.75, 1.0), 3, notes='x, "y"'),
               Report("b", "pass", 0.5, (0.25, 1.0), 3, notes="plain"),
               Report("c", "not-asserted", math.nan, None, 0)]
    _write_report(tmp_path / "report.csv", reports)
    text = (tmp_path / "report.csv").read_text()
    assert text.splitlines()[1] == 'a,pass,0.5,0.25,0.75,1,"x, ""y"""'
    rows = _report_rows(tmp_path / "report.csv")
    assert [r["notes"] for r in rows] == ['x, "y"', "plain", ""]
    assert [r["witness_y"] for r in rows] == ["0.75", "nan", "nan"]
    assert [r["witness_t"] for r in rows] == ["1", "1", "nan"]
