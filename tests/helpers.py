"""Scenarios, solves collected into whole trajectories, the records a check
takes, a one-step helper, and the closed loop's streamed rows and the
trajectory writer on whole trajectories, that the tests share."""

import math
from types import SimpleNamespace

import numpy as np

from pdesup.backstepping import simulate_closed_loop, transform_trajectory
from pdesup.cli import _trajectory_csv
from pdesup.core import DIRICHLET, ROBIN, SampleSups, Trajectory, grid_1d
from pdesup.expressions import parse_expression
from pdesup.harness import running_sup_boundary, running_sup_forcing
from pdesup.solver import (
    BoundarySpec,
    Coefficients,
    Scenario,
    TimeStepper,
    data_rows,
    make_scenario,
    node_coords,
    reaction_log_poly,
    reaction_zero,
)


def heat_preset(n_x: int = 101, dt: float = 1e-3, horizon: float = 1.0) -> Scenario:
    """Pure heat equation with unit absorption on (0,1), Dirichlet zero."""
    return make_scenario(
        grid_1d(n_x), horizon, dt,
        Coefficients(parse_expression("1"), parse_expression("1"), parse_expression("1")),
        reaction_zero(), parse_expression("0"),
        BoundarySpec(DIRICHLET, parse_expression("0")),
        parse_expression("sin(pi*x)"))


def explicit_solution_preset(k: float = 1.0, n_x: int = 201, dt: float = 1e-3,
                             horizon: float = 2.0) -> Scenario:
    """Heat equation on (0, pi/2) whose exact solution is k sin(t) sin(x)."""
    k_r = repr(float(k))
    return make_scenario(
        grid_1d(n_x, 0.0, math.pi / 2), horizon, dt,
        Coefficients(parse_expression("1"), parse_expression("0"), parse_expression("1")),
        reaction_zero(),
        parse_expression(f"sqrt(2)*{k_r}*sin(x)*cos(t-pi/4)"),
        BoundarySpec(DIRICHLET, parse_expression(f"{k_r}*sin(t)*sin(x)")),
        parse_expression("0"))


def superlinear_preset(n_x: int = 101, dt: float = 2e-3, horizon: float = 2.0,
                       f: str = "0.1*sin(2*pi*x)*sin(t)", d: str = "0.05") -> Scenario:
    """1-D analogue of the super-linear example: log-poly reaction, Robin data."""
    return make_scenario(
        grid_1d(n_x), horizon, dt,
        Coefficients(parse_expression("1"), parse_expression("1"), parse_expression("1")),
        reaction_log_poly(1.0), parse_expression(f),
        BoundarySpec(ROBIN, parse_expression(d)),
        parse_expression("sin(pi*x)"))


def open_loop_preset(c: float, u0: str, n_x: int = 101, dt: float = 1e-3,
                     horizon: float = 1.0) -> Scenario:
    """The backstepping plant u_t = u_xx + c u without feedback, as
    ``simulate_closed_loop`` sets it up: zero forcing, zero Dirichlet data."""
    zero = parse_expression("0")
    return make_scenario(
        grid_1d(n_x), horizon, dt,
        Coefficients(parse_expression("1"), parse_expression(repr(-float(c)))),
        reaction_zero(), zero, BoundarySpec(DIRICHLET, zero), parse_expression(u0))


def _collector(stepper: TimeStepper):
    """A sink for ``stepper`` that keeps every block it is handed, and a function
    that returns them, once every block is in, as one trajectory per scenario
    of the stack."""
    grid, times = stepper.grid, stepper.scenario.times()
    out = np.empty((times.size, stepper.k * grid.n_nodes))

    def sink(sl, states):
        out[sl] = states

    def collected() -> list[Trajectory]:
        out.setflags(write=False)
        return [Trajectory(grid, times, cols.reshape(times.size, *grid.shape))
                for cols in np.hsplit(out, stepper.k)]

    return sink, collected


def solve(scenario: Scenario) -> Trajectory:
    """The scenario's trajectory over its horizon, samples at 0, dt, ..., T,
    collected through ``TimeStepper.solve``."""
    stepper = TimeStepper(scenario)
    sink, collected = _collector(stepper)
    stepper.solve(None, sink)
    return collected()[0]


def trajectories(stepper: TimeStepper, on_block=None, on_step=None) -> list[Trajectory]:
    """One trajectory per scenario of ``stepper``'s stack, collected from the
    blocks that ``march`` hands its sink."""
    sink, collected = _collector(stepper)
    stepper.march(on_block, on_step, sink)
    return collected()


def cascade_fields(spec) -> list[Trajectory]:
    """Each subsystem's field of the cascade ``spec``, stepped as
    ``simulate_cascade`` steps the chain: a cycle as one stack, an open chain
    in order, each subsystem reading the previous one's boundary trace
    (Robin) or field (Dirichlet)."""
    if spec.topology.endswith("cycle"):
        return trajectories(TimeStepper(spec.scenarios, cycle=True))
    robin, fields = spec.boundary_kind == ROBIN, []
    for sc in spec.scenarios:
        upstream = fields[-1].values.reshape(fields[-1].n_samples, -1) if fields else None
        if robin and fields:
            upstream = upstream[:, spec.grid.boundary_indices()]
        fields += trajectories(TimeStepper(sc, **{"boundary" if robin else "forcing": upstream}))
    return fields


def step(state: np.ndarray, t: float, scenario: Scenario) -> np.ndarray:
    """One Crank-Nicolson step of ``scenario`` (its own dt) from the nodal
    values ``state`` on its grid."""
    if np.shape(state) != scenario.grid.shape:
        raise ValueError("state does not have the shape of the scenario's grid")
    stepper = TimeStepper(scenario)
    times = [t, t + scenario.dt]
    f_pair = data_rows(scenario.forcing, node_coords(scenario.grid))(times)
    b_pair = data_rows(scenario.boundary.data, node_coords(scenario.grid, boundary=True))(times)
    vals = stepper.step_values(np.ravel(state).astype(float), t,
                               *step_terms(stepper, f_pair, b_pair))
    return vals.reshape(scenario.grid.shape)


def step_terms(stepper: TimeStepper, f_pair, b_pair):
    """The data terms ``(s, d)`` of one step of ``stepper`` from its (value at t,
    value at t+dt) pairs of forcing and boundary data."""
    s, d = stepper.data_terms(np.asarray(f_pair), np.asarray(b_pair))
    return s[0], d[0]


def data_sups(scenario: Scenario, times):
    """The running sups of |f| and |d| that a solve of ``scenario`` records
    (``harness.block_data_sups``), from their oracles."""
    return running_sup_forcing(scenario, times), running_sup_boundary(scenario, times)


def pair_data_sups(sc1: Scenario, sc2: Scenario, times):
    """The running sups of |f1 - f2| and |d1 - d2| that a solve of the pair
    as one stack records, from whole (times × nodes) rows."""
    grid, out = sc1.grid, []
    for coords, e1, e2 in ((node_coords(grid), sc1.forcing, sc2.forcing),
                           (node_coords(grid, boundary=True), sc1.boundary.data,
                            sc2.boundary.data)):
        rows = data_rows(e1, coords)(times) - data_rows(e2, coords)(times)
        out.append(np.maximum.accumulate(np.abs(rows).max(axis=1)))
    return tuple(out)


def chain_sups(trajs) -> list[SampleSups]:
    """One record per subsystem of a cascade's trajectories, as ``cascade`` builds them."""
    return [tr.sample_sups() for tr in trajs]


def difference_sups(traj1: Trajectory, traj2: Trajectory) -> SampleSups:
    """The per-sample sups of ``traj1 - traj2``, as ``verify-rkes`` records them."""
    return Trajectory(traj1.grid, traj1.times, traj1.values - traj2.values).sample_sups()


def closed_loop(c, sigma, u0, f, d0, d1, grid, dt, horizon, **kwargs):
    """``simulate_closed_loop``'s result, with the trajectories ``u`` and ``w``
    collected from the rows its sink is handed (which must come once each, in
    order) and its per-sample sups as ``sups``."""
    u_rows, w_rows = [], []

    def sink(start, u, w):
        assert start == sum(map(len, u_rows)) and len(u) == len(w) >= 1
        u_rows.append(u.copy())
        w_rows.append(w)

    res = simulate_closed_loop(c, sigma, u0, f, d0, d1, grid, dt, horizon, sink, **kwargs)
    times = res.u.times
    return SimpleNamespace(u=Trajectory(grid, times, np.concatenate(u_rows)),
                           w=Trajectory(grid, times, np.concatenate(w_rows)), sups=res.u,
                           report=res.report, kernel=res.kernel, controls=res.controls)


def transform(traj: Trajectory, kernel) -> Trajectory:
    """``transform_trajectory`` of every sample of ``traj``, as a trajectory."""
    return Trajectory(traj.grid, traj.times, transform_trajectory(traj.grid, traj.values, kernel))


def write_trajectory(path, traj):
    """A whole trajectory's ``t,x[,y],u`` file through the commands' writer, in one call."""
    with _trajectory_csv(path, traj.grid, np.asarray(traj.times)) as write:
        write(0, np.asarray(traj.values, dtype=float).reshape(len(traj.times), -1))
