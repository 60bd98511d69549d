"""Checks read per-sample sups, which the streamed commands record as they step.

``verify-iss``, ``verify-decay``, ``verify-rkes`` and ``cascade`` hand
``TimeStepper.march`` a sink (``pdesup.core.sup_sink``) that keeps each
sample's sup-norm and the first node attaining it, and ``convergence``
reduces its sup errors the same way; ``simulate`` and ``backstep`` write
their trajectory CSVs from the same sink, so none of them holds a
(samples x nodes) array (an open Robin chain keeps each subsystem's
boundary trace for the next).  These tests pin the
traced heap of those commands, at two horizons where a trajectory would
show, and that a streamed run gives the states, residuals and reports of
the stored trajectory, bit for bit.
"""

import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import pdesup.solver as solver_mod
from pdesup.cli import main
from pdesup.core import (
    DIRICHLET,
    ROBIN,
    SampleSups,
    Trajectory,
    grid_1d,
    grid_2d,
    row_sups,
    sup_sink,
    time_blocks,
)
from pdesup.expressions import parse_expression
from pdesup.gains import rkes_gains_dirichlet, rkes_gains_robin
from pdesup.harness import build_report, check_decay, check_iss, check_rkes
from pdesup.solver import (
    BoundarySpec,
    Coefficients,
    ReactionTerm,
    TimeStepper,
    convergence_order,
    data_rows,
    make_scenario,
    node_coords,
    reaction_log_poly,
    reaction_zero,
)

from helpers import data_sups, difference_sups, pair_data_sups, solve, trajectories

E = parse_expression
CONFIGS = Path(__file__).resolve().parents[1] / "configs"
MIB = 2 ** 20


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("command, config, horizon, limit_mib", [
    ("verify-rkes", "rkes_explicit_pair.ini", None, 4.0),
    ("convergence", "convergence.ini", None, 4.0),
    ("verify-rkes", "rkes_explicit_pair.ini", 8, 4.5),
    ("backstep", "backstep.ini", 2, 4.0),
    ("backstep", "backstep.ini", 8, 4.5),
    ("simulate", "iss_robin.ini", 2, 3.0),
    ("simulate", "iss_robin.ini", 8, 3.5),
    ("cascade", "cascade_robin_open.ini", 2, 1.75),
    ("cascade", "cascade_robin_open.ini", 8, 5.5),
], ids=["verify-rkes", "convergence", "verify-rkes-T8", "backstep-T2", "backstep-T8",
        "simulate-T2", "simulate-T8", "cascade-T2", "cascade-T8"])
def test_streamed_commands_hold_one_time_block(tmp_path, capsys, command, config, horizon,
                                               limit_mib):
    # a (samples x nodes) array of the T = 2 pair is 2001 x 402 doubles, 6.1 MiB;
    # backstep's u, its transform w and the transform's temporary are 2001 x
    # 101 each at T = 2 (1.5 MiB) and 8001 x 101 at T = 8 (6.2 MiB); simulate's
    # u is 4001 x 101 at T = 8 (3.1 MiB); the cascade's three fields are 1001 x
    # 61 each at T = 2 (0.47 MiB) and 4001 x 61 at T = 8 (1.9 MiB).  Per-sample
    # records (sups, controls, the report's rows) are what grows with T
    text = (CONFIGS / config).read_text()
    if horizon is not None:
        text, count = re.subn(r"(?m)^T = .*$", f"T = {horizon}", text)
        assert count == 1
    path = tmp_path / "scenario.ini"
    path.write_text(text)
    argv = [command, "--config", str(path), "--out", str(tmp_path / "out")]
    assert main(argv) == 0  # first: lazy imports and caches are not the command's
    codes = []
    peak = _traced_peak(lambda: codes.append(main(argv)))
    assert codes == [0]
    assert peak <= limit_mib * MIB, f"{peak / MIB:.2f} MiB"


# ---------------------------------------------------------------------------
# per-sample sups and their nodes


def test_row_sups_are_the_abs_maxima_and_their_first_nodes():
    rows = np.array([[0.0, -2.0, 1.0, 2.0, 0.5],    # -2 before +2
                     [0.5, 2.0, -2.0, 0.0, 2.0],    # +2 before -2, and again after
                     [1.0, 3.0, 0.0, 3.0, -1.0],    # a tied maximum
                     [-3.0, 1.0, -3.0, 0.0, 2.5],   # a tied minimum
                     [0.0, -0.0, 0.0, -0.0, 0.0],   # zeros of both signs
                     [-1.0, -4.0, -2.0, -4.0, -1.0],  # all negative
                     [1e-300, 5e-324, 7.0, 7.0, -7.0]])
    sups, nodes = row_sups(rows)
    assert sups.tobytes() == np.abs(rows).max(axis=1).tobytes()
    assert nodes.tolist() == np.argmax(np.abs(rows), axis=1).tolist() == [1, 1, 1, 0, 0, 1, 2]


def _reference_witness(traj, i):
    """The witness the report builder took from a field: its first sup-norm node."""
    node = int(np.argmax(np.abs(traj.values[i].ravel())))
    return (*traj.grid.node_location(node), float(traj.times[i]))


def test_the_witness_on_a_row_two_blocks_share_is_its_first_sup_node():
    # sample 2 is the last row of one block and the first of the next, and
    # its sup 2 is attained at x = 0.25 (as -2) and at x = 0.75 (as +2)
    values = np.array([[0.0, 0.5, 1.0, 0.5, 0.0],
                       [0.0, 1.0, -1.5, 1.0, 0.0],
                       [0.0, -2.0, 1.0, 2.0, 0.0],
                       [0.0, 1.0, 1.0, 1.0, 0.0],
                       [0.0, 0.1, 0.2, 0.1, 0.0]])
    traj = Trajectory(grid_1d(5), np.arange(5.0), values)
    sink, streamed = sup_sink(traj.grid, traj.times)
    for sl in (slice(0, 3), slice(2, 5)):
        sink(sl, values[sl].copy())
    bounds = np.array([3.0, 3.0, 1.0, 3.0, 3.0])  # the worst margin, -1, is sample 2's
    reports = [build_report("shared", [(samples, samples.sups, bounds)], 0.0, traj.grid, 1.0)
               for samples in (streamed(), traj.sample_sups())]
    for rep in reports:
        assert rep.worst_margin == -1.0
        assert rep.worst_location == _reference_witness(traj, 2) == (0.25, 2.0)
    assert reports[0].details.tobytes() == reports[1].details.tobytes()


# ---------------------------------------------------------------------------
# a streamed solve against the stored trajectory


def _scenario(dim, kind, reaction=None, f="0.4*sin(3*t)*x", d="0.1*cos(2*t)", T=None):
    """A run more than one time block long: 81 nodes and 1001 samples on an
    interval, 21 x 17 nodes and 401 samples on a rectangle."""
    if dim == 1:
        grid, T, dt, u0 = grid_1d(81, 0.0, 1.2), T or 1.0, 1e-3, "sin(pi*x/1.2)+0.2*x"
    else:
        grid, T, dt, u0 = grid_2d(21, 17, 0.0, 1.5), T or 1.0, 2.5e-3, "sin(pi*x/1.5)*sin(pi*y)"
    return make_scenario(grid, T, dt, Coefficients(E("1+0.2*x"), E("1"), E("1+x")),
                         reaction or reaction_zero(), E(f), BoundarySpec(kind, E(d)), E(u0))


def _gains(sc, scale=1.0):
    vol, c_s, c_p = sc.grid.domain.volume, 0.8, 0.6
    if sc.boundary.kind == ROBIN:
        g = rkes_gains_robin(sc.bounds, vol, c_s)
    else:
        g = rkes_gains_dirichlet(sc.bounds, vol, c_s, c_p)
    # a Dirichlet boundary gain is exactly 1
    return replace(g, l_f=scale * g.l_f, l_d=g.l_d if g.boundary_kind == DIRICHLET else scale * g.l_d)


def _streamed(stepper, rows_of=None) -> SampleSups:
    sink, samples = sup_sink(stepper.grid, stepper.scenario.times(), rows_of)
    stepper.march(None, None, sink)
    return samples()


def _assert_same_report(got, expect):
    assert (got.check, got.verdict, got.samples_checked, got.notes) == \
        (expect.check, expect.verdict, expect.samples_checked, expect.notes)
    assert np.float64(got.worst_margin).tobytes() == np.float64(expect.worst_margin).tobytes()
    assert got.worst_location == expect.worst_location
    assert got.details.dtype == expect.details.dtype
    assert got.details.tobytes() == expect.details.tobytes()


STEP_CASES = {
    "1d-robin-log_poly": (1, ROBIN, reaction_log_poly(1.0)),
    "1d-dirichlet-linear": (1, DIRICHLET, None),
    "2d-robin-linear": (2, ROBIN, None),
    "2d-dirichlet-custom": (2, DIRICHLET, ReactionTerm(
        "custom", expr=E("u*abs(u)", ("x", "y", "t", "u")), growth_exponent=2.0,
        growth_constant=1.0)),
}


@pytest.mark.parametrize("name", sorted(STEP_CASES))
def test_a_sink_sees_the_trajectory_rows_and_residuals(name):
    dim, kind, reaction = STEP_CASES[name]
    sc = _scenario(dim, kind, reaction, T=0.5 if dim == 2 else None)
    whole = TimeStepper(sc)
    traj = trajectories(whole)[0]
    values = traj.values.reshape(traj.n_samples, -1)
    blocks = time_blocks(traj.n_samples, sc.grid.n_nodes)
    assert len(blocks) > 1
    streamed = TimeStepper(sc)
    seen = []
    streamed.solve(None, lambda sl, states: seen.append((sl, states.copy())))
    assert [sl for sl, _ in seen] == blocks
    for sl, states in seen:
        assert states.tobytes() == values[sl].tobytes()
    assert streamed.residual_log == whole.residual_log


@pytest.mark.parametrize("name", sorted(STEP_CASES))
def test_streamed_iss_and_decay_reports_are_the_trajectory_ones(name):
    dim, kind, reaction = STEP_CASES[name]
    sc = _scenario(dim, kind, reaction)
    traj = solve(sc)
    samples = _streamed(TimeStepper(sc))
    stored = traj.sample_sups()
    flat = traj.values.reshape(traj.n_samples, -1)
    assert samples.sups.tobytes() == np.abs(flat).max(axis=1).tobytes() == stored.sups.tobytes()
    assert samples.nodes.tolist() == stored.nodes.tolist() == \
        np.argmax(np.abs(flat), axis=1).tolist()
    sups = data_sups(sc, traj.times)
    reports = [(check_iss(samples, sc, g, *sups), check_iss(stored, sc, g, *sups))
               for g in (_gains(sc), _gains(sc, 0.05))]
    # the envelope's u0 part is too small from t = 0: a fail
    reports += [(check_decay(samples, c_min, u0_sup), check_decay(stored, c_min, u0_sup))
                for c_min, u0_sup in ((1.0, samples.sups[0]), (3.0, 0.5 * samples.sups[0]))]
    assert reports[-1][0].verdict == "fail"
    for got, expect in reports:
        _assert_same_report(got, expect)
        i = int(np.argmin(got.details.margin))
        assert got.worst_location == _reference_witness(traj, i)


def _pair(dim, kind):
    first = _scenario(dim, kind)
    second = make_scenario(first.grid, first.horizon, first.dt, first.coefficients,
                           first.reaction, E("-0.3*cos(2*pi*x)*t"),
                           BoundarySpec(kind, E("0.1*cos(2*t)+0.05*x*t")), first.u0)
    return first, second


@pytest.mark.parametrize("kind", [ROBIN, DIRICHLET])
@pytest.mark.parametrize("dim", [1, 2])
def test_streamed_rkes_reports_are_the_trajectory_ones(dim, kind):
    pair = _pair(dim, kind)
    n = pair[0].grid.n_nodes
    t1, t2 = trajectories(TimeStepper(list(pair)))
    difference = _streamed(TimeStepper(list(pair)), lambda sl, states: states[:, :n] - states[:, n:])
    diff = (t1.values - t2.values).reshape(t1.n_samples, -1)
    assert difference.sups.tobytes() == np.abs(diff).max(axis=1).tobytes()
    assert difference.nodes.tolist() == np.argmax(np.abs(diff), axis=1).tolist()
    stored = difference_sups(t1, t2)
    sups = pair_data_sups(*pair, t1.times)
    for scale in (1.0, 0.01):
        g = _gains(pair[0], scale)
        got = check_rkes(difference, pair, g, *sups)
        _assert_same_report(got, check_rkes(stored, pair, g, *sups))
        i = int(np.argmin(got.details.margin))
        node = int(np.argmax(np.abs(diff[i])))
        assert got.worst_location == (*t1.grid.node_location(node), float(t1.times[i]))


def test_a_worst_sample_on_a_shared_row_of_a_streamed_solve():
    sc = _scenario(1, ROBIN, reaction_log_poly(1.0))
    traj = solve(sc)
    samples = _streamed(TimeStepper(sc))
    shared = time_blocks(traj.n_samples, sc.grid.n_nodes)[0].stop - 1
    bounds = samples.sups + 1.0
    bounds[shared] -= 2.0
    reports = [build_report("shared", [(s, s.sups, bounds)], None, sc.grid, sc.dt)
               for s in (samples, traj.sample_sups())]
    _assert_same_report(*reports)
    assert reports[0].worst_location == _reference_witness(traj, shared)
    assert reports[0].worst_location[-1] == traj.times[shared] > 0


def test_convergence_errors_are_the_trajectory_sup_errors():
    # the errors of the ladders, reduced block by block as they step, against
    # the sup over each stored trajectory (the formula they replaced)
    sc = make_scenario(grid_1d(21, 0.0, np.pi / 2), 1.0, 5e-3,
                       Coefficients(E("1"), E("0"), E("1")), reaction_zero(),
                       E("sqrt(2)*sin(x)*cos(t-pi/4)"),
                       BoundarySpec(DIRICHLET, E("sin(t)*sin(x)")), E("0"))
    exact = E("sin(t)*sin(x)")
    res = convergence_order(sc, exact, refinements=3)
    for (step, error), case in zip(res.space_errors + res.time_errors, _ladders(sc, 3)):
        traj = solve(case)
        vals = traj.values.reshape(traj.n_samples, -1)
        rows = data_rows(exact, node_coords(traj.grid))
        expect = max(np.max(np.abs(vals[sl] - rows(traj.times[sl])))
                     for sl in time_blocks(*vals.shape))
        assert np.float64(error).tobytes() == np.float64(expect).tobytes()
        assert step in (case.grid.h_max, case.dt)


def _ladders(sc, levels):
    """The scenarios of :func:`convergence_order`'s space and time ladders."""
    space = [replace(sc, grid=solver_mod._refined(sc.grid, 2 ** lev), dt=sc.dt / 2 ** lev)
             for lev in range(levels)]
    return space + [replace(sc, grid=space[-1].grid, dt=sc.horizon / 16.0 / 2 ** lev)
                    for lev in range(levels)]
