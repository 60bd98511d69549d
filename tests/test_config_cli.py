import configparser
import csv
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from pdesup.cli import _write_report, _write_trajectory, main
from pdesup.config import (backstep_data_from_config, cascade_from_config, load_config,
                            scenario_from_config)
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

_RECT_ISS_ROBIN = ISS_ROBIN.replace("kind = interval", "kind = rectangle")

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


def _pair_by_two_parses(cp):
    """The RKES pair as two separately parsed scenarios: the second from a
    copy of the config with f2 and d2 (or d2_left/d2_right) as f and d."""
    copy = configparser.ConfigParser(interpolation=None)
    copy.optionxform = str
    copy.read_dict(cp)
    dist = copy["disturbances"]
    for key in ("f", "d", "d_left", "d_right"):
        dist.pop(key, None)
    for key in [k for k in dist if k.startswith(("f2", "d2"))]:
        dist[key[0] + key[2:]] = dist[key]
    return scenario_from_config(cp), scenario_from_config(copy)


@pytest.mark.parametrize("text", [
    RKES_PAIR,
    RKES_PAIR.replace("d2 = 3*sin(t)*sin(x)", "d2_left = 0\nd2_right = 3*sin(t)")
    .replace("T = 2.0", "T = 0.2"),
], ids=["d2", "d2-left-right"])
def test_verify_rkes_makes_one_scenario_and_writes_what_two_parses_wrote(
        tmp_path, capsys, monkeypatch, text):
    import pdesup.cli as cli
    import pdesup.config as config
    p = _write(tmp_path, text)
    made = []
    real = config.make_scenario
    monkeypatch.setattr(config, "make_scenario", lambda *a: made.append(a) or real(*a))
    assert main(["verify-rkes", "--config", str(p), "--out", str(tmp_path / "once")]) == 0
    once = capsys.readouterr().out
    assert len(made) == 1
    monkeypatch.setattr(cli, "rkes_pair_from_config", _pair_by_two_parses)
    assert main(["verify-rkes", "--config", str(p), "--out", str(tmp_path / "twice")]) == 0
    assert capsys.readouterr().out == once
    assert len(made) == 3
    written = sorted(f.name for f in (tmp_path / "once").iterdir())
    assert written == sorted(f.name for f in (tmp_path / "twice").iterdir())
    for name in written:
        assert (tmp_path / "once" / name).read_bytes() == (tmp_path / "twice" / name).read_bytes()


@pytest.mark.parametrize("text, need", [
    (RKES_PAIR.replace("c = 0", "c = -1"), "need c_min >= 0 (c_min -1)"),
    (RKES_PAIR.replace("kind = dirichlet", "kind = robin"),
     "need c_min > 0 for Robin data (c_min 0)"),
], ids=["c-negative", "robin-c-zero"])
def test_verify_rkes_without_gains_is_not_asserted(tmp_path, capsys, text, need):
    out = tmp_path / "out"
    # an exception escaping main() would be a traceback for the user
    code = main(["verify-rkes", "--config",
                 str(_write(tmp_path, text.replace("T = 2.0", "T = 0.2"))), "--out", str(out)])
    assert code == 0
    rows = (out / "report.csv").read_text().splitlines()[1:]
    assert len(rows) == 1 and rows[0].startswith("rkes,not-asserted,")
    assert need in rows[0] and need in capsys.readouterr().out


RKES_PAIR_CONFIG = (Path(__file__).resolve().parents[1] / "configs"
                    / "rkes_explicit_pair.ini").read_text()


def test_verify_rkes_without_a_monotone_reaction_is_not_asserted(tmp_path, capsys):
    # -5u is not monotone: the difference grows past the linear bound, which
    # is not a failed bound but a hypothesis the reaction does not meet
    text = RKES_PAIR_CONFIG + ("\n[reaction]\nkind = custom\nexpr = -5*u\nlambda = 1\n"
                               "monotone = false\n")
    p, out = _write(tmp_path, text), tmp_path / "out"
    assert main(["verify-rkes", "--config", str(p), "--out", str(out)]) == 0
    need = "hypotheses not met: need a monotone reaction"
    assert capsys.readouterr().out == f"rkes: not-asserted (worst margin nan; {need})\n"
    (row,) = _report_rows(out / "report.csv")
    assert row["verdict"] == "not-asserted" and row["notes"] == need
    # the gains themselves need c_min alone, so `gains` still writes them
    assert main(["gains", "--config", str(p), "--out", str(tmp_path / "g")]) == 0
    names = [r["name"] for r in _report_rows(tmp_path / "g" / "gains.csv")]
    assert "l_f" in names and "l_d" in names


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


def test_gains_refuses_a_rectangle_without_embedding_constants(tmp_path, capsys):
    p = _write(tmp_path, GAINS.replace("kind = interval", "kind = rectangle")
               .replace("kind = dirichlet", "kind = robin"))
    message = ("config error: 2-D bound checks need c_s and c_p in [check] "
               "(conditional on supplied constants)\n")
    for command in ("gains", "verify-iss"):
        assert main([command, "--config", str(p), "--out", str(tmp_path / command)]) == 2
        assert capsys.readouterr().err == message
    assert not (tmp_path / "gains" / "gains.csv").exists()


def test_gains_without_linear_gains_says_why(tmp_path, capsys):
    p = _write(tmp_path, GAINS.replace("a = 1\nc = 1", "a = 1\nc = 0")
               .replace("kind = dirichlet", "kind = robin"))
    out = tmp_path / "out"
    assert main(["gains", "--config", str(p), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines()[-1] == ("no l_f, l_d, decay_rate: gains undefined: "
                                             "need c_min > 0 for Robin data (c_min 0)")
    names = [line.split(",")[0] for line in (out / "gains.csv").read_text().splitlines()[1:]]
    assert names == ["c_s_1d", "c_p_1d", "geometry_factor", "M", "C", "superlinear_gain"]


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


def test_convergence_reports_non_monotone_ladders_on_stdout(tmp_path, capsys):
    # the exact expression does not solve the scenario: neither ladder's errors decrease
    p = _write(tmp_path, CONVERGENCE.replace("exact = sin(t)*sin(x)", "exact = 0.5*sin(3*t)"))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["convergence", "--config", str(p), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    rows = [line.split(",") for line in (out / "convergence.csv").read_text().splitlines()[1:]]
    assert captured.out.splitlines()[1:] == [
        f"{ladder} errors do not decrease monotonically: "
        + ", ".join(error for name, _, error in rows if name == ladder)
        for ladder in ("space", "time")]


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


def test_backstep_data_from_config(tmp_path):
    d0, d1 = backstep_data_from_config(load_config(_write(tmp_path, BACKSTEP)))
    assert d0(t=1.0) == d1(t=1.0) == 0.1 * math.sin(1.0)
    # both default to zero, and each is an expression over t alone
    text = BACKSTEP.replace("d0 = 0.1*sin(t)\nd1 = 0.1*sin(t)\n", "")
    d0, d1 = backstep_data_from_config(load_config(_write(tmp_path, text)))
    assert d0(t=1.0) == d1(t=1.0) == 0.0
    with pytest.raises(ConfigError, match=r"^\[disturbances\] d1: "):
        backstep_data_from_config(load_config(_write(tmp_path, BACKSTEP.replace(
            "d1 = 0.1*sin(t)", "d1 = x*sin(t)"))))


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
def test_non_finite_data_is_a_numerical_failure(tmp_path, capsys, text):
    # ln(t-1) is NaN on the whole run, 1/(t-0.002) infinite at the first
    # step's end, and 1e308 sin(pi x) finite but overflowing in A u: the
    # first step refuses its residual (there is no scan of the state)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        # an exception escaping main() would be a traceback for the user
        code = main(["verify-iss", "--config", str(_write(tmp_path, text)),
                     "--out", str(tmp_path / "out")])
    assert code == 3
    # numpy's floating-point warnings stay quiet: the failure line is all
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert capsys.readouterr().err == "numerical failure: non-finite residual at t=0.002\n"


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


def _declare(key_value):
    return ISS_ROBIN_CONFIG.replace("m = 1\n", f"m = 1\n{key_value}\n")


@pytest.mark.parametrize("command, text, message", [
    ("verify-iss", _declare("a_min = nan"), "[coefficients] a_min: must be positive and finite, got nan"),
    ("verify-iss", _declare("m_min = nan"), "[coefficients] m_min: must be positive and finite, got nan"),
    ("verify-iss", _declare("a_min = 0"), "[coefficients] a_min: must be positive and finite, got 0.0"),
    ("verify-iss", _declare("c_min = inf"), "[coefficients] c_min: not a finite number: inf"),
    ("verify-iss", _declare("c_min = nan"), "[coefficients] c_min: not a finite number: nan"),
    ("verify-iss", ISS_ROBIN_CONFIG.replace("a = 1", "a = sqrt(x-0.5)"),
     "coefficient a is not finite at x=0 (value nan)"),
    ("verify-iss", ISS_ROBIN_CONFIG.replace("m = 1", "m = sqrt(x-0.5)"),
     "coefficient m is not finite at x=0 (value nan)"),
    ("verify-iss", ISS_ROBIN_CONFIG.replace("a = 1", "a = 1+0*ln(x)"),
     "coefficient a is not finite at x=0 (value nan)"),
    ("gains", ISS_ROBIN_CONFIG.replace("a = 1", "a = sqrt(x-0.5)"),
     "coefficient a is not finite at x=0 (value nan)"),
    ("verify-iss", ISS_ROBIN_CONFIG.replace("a = 1", "a = 1/x"),
     "coefficient a is not finite at x=0 (value inf)"),
    ("verify-iss", ISS_ROBIN_CONFIG.replace("c = 1", "c = ln(x)"),
     "coefficient c is not finite at x=0 (value -inf)"),
    ("verify-iss", ISS_ROBIN_CONFIG.replace("a = 1", "a = 1-x"),
     "coefficient a is nonpositive at x=1 (value 0)"),
    ("simulate", RECT_DIRICHLET.replace("a = 1", "a = x-0.5"),
     "coefficient a is nonpositive at x=0, y=0 (value -0.5)"),
], ids=["a_min-nan", "m_min-nan", "a_min-zero", "c_min-inf", "c_min-nan", "a-sqrt", "m-sqrt",
        "a-nan-at-0", "gains-a-sqrt", "a-inf-at-0", "c-ln", "a-zero-at-1", "2d-a-negative"])
def test_coefficient_errors_name_the_key_or_a_witness(tmp_path, capsys, command, text, message):
    # one stderr line, with the coefficient, its witness node and value
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        # an exception escaping main() would be a traceback for the user
        code = main([command, "--config", str(_write(tmp_path, text)),
                     "--out", str(tmp_path / "out")])
    assert code == 2
    # sqrt, ln and 1/x of the node arrays stay quiet: the error line is all
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert capsys.readouterr().err == f"config error: {message}\n"


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
    ("verify-iss", ISS_ROBIN + "\n[reaction]\nkind = log_poly\nscale = nan\n", "[reaction] scale"),
    ("verify-iss", ISS_ROBIN + "\n[reaction]\nkind = log_poly\nscale = inf\n", "[reaction] scale"),
    ("verify-iss", ISS_ROBIN + "\n[reaction]\nkind = custom\nexpr = u\nc0 = nan\n",
     "[reaction] c0"),
    ("verify-iss", ISS_ROBIN + "\n[reaction]\nkind = custom\nexpr = u\nmonotone = maybe\n",
     "[reaction] monotone"),
    ("verify-iss", ISS_ROBIN + "\n[reaction]\nkind = custom\nexpr = u\nlambda = nan\n",
     "[reaction] lambda"),
    ("verify-iss", ISS_ROBIN + "\n[reaction]\nkind = custom\nexpr = u\nlambda = inf\n",
     "[reaction] lambda"),
    # a catalog kind implies growth exponent 3, above the cap 2 on a rectangle
    ("verify-iss", _RECT_ISS_ROBIN + "\n[reaction]\nkind = log_poly\n", "[reaction] kind"),
    ("verify-iss", _RECT_ISS_ROBIN + "\n[reaction]\nkind = odd_cubic\n", "[reaction] kind"),
    ("cascade", CASCADE.replace("kind = interval", "kind = rectangle") + "reaction_2 = log_poly\n",
     "[cascade] reaction_2"),
    # the kernel and its transforms live on the unit interval, and the loop is Dirichlet
    ("backstep", BACKSTEP.replace("kind = interval", "kind = interval\nx_hi = 2"), "[domain] x_hi"),
    ("backstep", BACKSTEP.replace("kind = interval", "kind = interval\nx_lo = -1"),
     "[domain] x_lo"),
    ("backstep", BACKSTEP.replace("kind = interval", "kind = rectangle"), "[domain] kind"),
    ("backstep", BACKSTEP.replace("kind = dirichlet", "kind = robin"), "[boundary] kind"),
], ids=["decay-c-zero", "decay-dt-nan", "decay-n_x-2", "decay-n_x-nan", "decay-empty-domain",
        "decay-nonzero-f", "iss-c-negative", "interval-d-y", "u0-t", "a-t", "interval-c-y",
        "backstep-d0-x", "cascade-shared-a-t", "interval-cascade-d-y", "backstep-c-negative",
        "backstep-sigma-zero", "convergence-refinements-2", "cascade-k-2.5", "decay-n_x-61.5",
        "iss-c_s-zero", "iss-c_s-nan", "iss-c_s-negative", "iss-c_p-inf", "iss-q-1", "iss-q-nan",
        "dirichlet-open-cascade-q-1", "gains-n-2", "gains-n-0", "iss-tol-nan", "iss-tol-negative",
        "reaction-scale-nan", "reaction-scale-inf", "reaction-c0-nan", "reaction-monotone-maybe",
        "reaction-lambda-nan", "reaction-lambda-inf", "rect-reaction-log_poly",
        "rect-reaction-odd_cubic", "rect-cascade-reaction-log_poly",
        "backstep-x_hi-2", "backstep-x_lo-negative", "backstep-rectangle", "backstep-robin"])
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


@pytest.mark.parametrize("command, sigma, message", [
    ("backstep", "300", "numerical failure: kernel bottom edge not zero (max "),
    ("backstep", "1e6", "numerical failure: kernel series did not converge within 200 terms"),
    ("backstep", "1e300", "numerical failure: kernel series did not converge within 200 terms"),
    ("gains", "1e300", "numerical failure: kernel bound series overflowed"),
], ids=["backstep-sigma-300", "backstep-sigma-1e6", "backstep-sigma-1e300", "gains-sigma-1e300"])
def test_kernel_failures_exit_cleanly(tmp_path, capsys, command, sigma, message):
    # a kernel the series cannot serve is a numerical failure, told in one line
    text = BACKSTEP.replace("sigma = 1", f"sigma = {sigma}")
    code = main([command, "--config", str(_write(tmp_path, text)), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith(message) and err.count("\n") == 1


@pytest.mark.parametrize("command", ["verify-iss", "gains"])
@pytest.mark.parametrize("kind", ["log_poly", "odd_cubic"])
def test_catalog_reaction_on_a_rectangle_names_its_kind(tmp_path, capsys, command, kind):
    text = _RECT_ISS_ROBIN + f"\n[reaction]\nkind = {kind}\n"
    assert main([command, "--config", str(_write(tmp_path, text)),
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (f"config error: [reaction] kind: {kind} implies growth "
                                       "exponent 3.0, outside [1, 2.0] for dimension 2\n")


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


@pytest.mark.parametrize("grid, n_samples", [
    (grid_1d(5, 0.0, 2.0), 1),
    (grid_2d(4, 3, 0.0, 1.0, 0.0, 1.0), 1),
    (grid_2d(5, 7, -1.0, 0.5, 0.25, 3.0), 6),
], ids=["1d-one-sample", "2d-one-sample", "2d-5x7-six-samples"])
def test_trajectory_csv_matches_row_wise_writer_on_more_shapes(tmp_path, grid, n_samples):
    rng = np.random.default_rng(n_samples)
    traj = Trajectory(grid, np.linspace(0.0, 0.3, n_samples),
                      rng.normal(size=(n_samples, *grid.shape)))
    _write_trajectory(tmp_path / "new.csv", traj)
    _row_wise_trajectory(tmp_path / "ref.csv", traj)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("grid, n_samples", [(grid_1d(101), 2001), (grid_2d(61, 41), 101)],
                         ids=["1d-2001x101", "2d-101x61x41"])
def test_trajectory_csv_is_written_one_sample_at_a_time(tmp_path, grid, n_samples):
    # the whole file is 10.6 MB (1-D) or 17.7 MB (2-D) of text; writing it
    # holds one sample's rows, not columns of the whole trajectory
    traj = Trajectory(grid, np.linspace(0.0, 2.0, n_samples),
                      np.random.default_rng(0).normal(size=(n_samples, *grid.shape)))
    tracemalloc.start()
    try:
        _write_trajectory(tmp_path / "trajectory.csv", traj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert len(lines) == 1 + n_samples * grid.n_nodes


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
