"""The traced benchmark wraps pdesup names in place; they must all exist."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TRACED_SOLVES = textwrap.dedent("""
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()

    from pdesup.core import DIRICHLET, grid_2d
    from pdesup.expressions import parse_expression as E
    from helpers import superlinear_preset
    from pdesup.solver import BoundarySpec, Coefficients, make_scenario, reaction_zero, solve

    sl = superlinear_preset(n_x=11, dt=1e-2, horizon=0.05)
    traj = solve(sl)
    solve(make_scenario(grid_2d(7, 7), 0.05, 1e-2, Coefficients(E("1"), E("1"), E("1")),
                        reaction_zero(), E("0"), BoundarySpec(DIRICHLET, E("0")),
                        E("sin(pi*x)*sin(pi*y)")))
    assert tracer.calls["solver.solve"] == 2, dict(tracer.calls)
    # only the nonlinear interval's 5 steps go through step_values: the
    # linear rectangle's 5 are taken as one block and checked in one product
    assert tracer.calls["solver.step"] == 5, dict(tracer.calls)
    assert tracer.calls["solver.banded"] == tracer.calls["solver.newton"] >= 5, dict(tracer.calls)
    assert tracer.calls["solver.lu"] == 1, dict(tracer.calls)

    # the checks are wrapped where their callers look them up, and the
    # sample count is read off the reports they return
    from pdesup.cascade import SubsystemSpec, build_cascade, simulate_cascade, verify_cascade
    from pdesup.gains import rkes_gains_robin, sobolev_constants_1d
    from pdesup.harness import check_iss
    from helpers import chain_sups, data_sups

    check_iss(traj.sample_sups(), sl, rkes_gains_robin(sl.bounds, 1.0, sobolev_constants_1d()[0]),
              *data_sups(sl, traj.times))
    assert tracer.counts["harness.samples"] == traj.n_samples, dict(tracer.counts)
    sub = SubsystemSpec(Coefficients(E("1"), E("1"), E("2")), reaction_zero(), E("sin(pi*x)"))
    spec = build_cascade([sub, sub], "robin-open", sl.grid, 1e-2, 0.05, external_d=E("0.1"))
    verify_cascade(spec, chain_sups(simulate_cascade(spec)))
    assert tracer.calls["cascade.verify"] == 1, dict(tracer.calls)

    # the closed loop steps through the stepper's linear block: its one
    # stepper call is the unit response at x = 1
    from pdesup.backstepping import simulate_closed_loop
    from pdesup.core import grid_1d

    simulate_closed_loop(5.0, 1.0, E("sin(pi*x)"), E("0"), E("0"), E("0.1*sin(t)"),
                         grid_1d(21), 1e-2, 0.1)
    c = tracer.counts
    assert c["backstepping.loop_steps"] == 10, dict(c)
    assert c["backstepping.loop_step_calls"] == 1, dict(c)
""")


def test_tracer_installs_and_traces_a_1d_and_a_2d_solve():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / p) for p in ("src", "perfbench", "tests")])
    proc = subprocess.run([sys.executable, "-c", TRACED_SOLVES], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
