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
    from pdesup.solver import (BoundarySpec, Coefficients, make_scenario, reaction_zero,
                               solve, superlinear_preset)

    solve(superlinear_preset(n_x=11, dt=1e-2, horizon=0.05))
    solve(make_scenario(grid_2d(7, 7), 0.05, 1e-2, Coefficients(E("1"), E("1"), E("1")),
                        reaction_zero(), E("0"), BoundarySpec(DIRICHLET, E("0")),
                        E("sin(pi*x)*sin(pi*y)")))
    assert tracer.calls["solver.solve"] == 2, dict(tracer.calls)
    assert tracer.calls["solver.step"] == 10, dict(tracer.calls)
    assert tracer.calls["solver.lu"] == 1, dict(tracer.calls)
""")


def test_tracer_installs_and_traces_a_1d_and_a_2d_solve():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    proc = subprocess.run([sys.executable, "-c", TRACED_SOLVES], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
