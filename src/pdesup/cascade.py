"""Chains of parabolic subsystems coupled on the boundary or over the domain.

Four topologies: ``robin-open`` feeds an external boundary input d into
subsystem 1 and each later subsystem reads the previous one's boundary
trace; ``robin-cycle`` closes that loop (subsystem 1 reads the last
trace).  ``dirichlet-open`` feeds an external in-domain input f into
subsystem 1 and each later subsystem consumes the previous FULL field as
its forcing, with per-subsystem external boundary data; ``dirichlet-
cycle`` closes the forcing loop.

Open chains are solved in order.  Cycles contain a same-instant
algebraic loop, resolved per time step by Gauss-Seidel sweeps over the
subsystems (latest traces win) until no field moves by more than 1e-10.
The cycle bounds are asserted only when the corresponding small-gain
constant exceeds one; otherwise the verdict is "not-asserted" and raw
norms are still recorded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import DIRICHLET, ROBIN, SpatialGrid, Trajectory, time_blocks
from .expressions import Expression, parse_expression
from .gains import (
    cascade_bound_dirichlet,
    cascade_bound_robin,
    small_gain_boundary,
    small_gain_domain,
    sobolev_constants_1d,
)
from .harness import (
    FAIL,
    NOT_ASSERTED,
    PASS,
    Report,
    data_running_sup,
    default_tolerance,
)
from .solver import (
    BoundarySpec,
    Coefficients,
    ConfigError,
    ReactionTerm,
    Scenario,
    SolverError,
    TimeStepper,
    data_rows,
    make_scenario,
    node_coords,
    _boundary_indices,
)

ROBIN_OPEN = "robin-open"
ROBIN_CYCLE = "robin-cycle"
DIRICHLET_OPEN = "dirichlet-open"
DIRICHLET_CYCLE = "dirichlet-cycle"
TOPOLOGIES = (ROBIN_OPEN, ROBIN_CYCLE, DIRICHLET_OPEN, DIRICHLET_CYCLE)

GS_TOL = 1e-10
GS_MAX_SWEEPS = 30

_ZERO = parse_expression("0")


@dataclass(frozen=True)
class SubsystemSpec:
    coefficients: Coefficients
    reaction: ReactionTerm
    u0: Expression


@dataclass
class CascadeSpec:
    """A fully wired cascade: scenarios, initial sups and small-gain status."""

    k: int
    topology: str
    grid: SpatialGrid
    dt: float
    horizon: float
    scenarios: list[Scenario]
    phis: list[float]
    small_gain: float
    small_gain_ok: bool
    bounds_asserted: bool
    external_d: Expression | None = None
    external_f: Expression | None = None
    boundary_exprs: list[Expression] | None = None
    warnings: list[str] = field(default_factory=list)

    @property
    def boundary_kind(self) -> str:
        return ROBIN if self.topology.startswith("robin") else DIRICHLET


@dataclass(frozen=True)
class CascadeSampleCheck:
    subsystem: int
    form: str  # "spacetime" or "spatial"
    t: float
    observed: float
    bound: float
    margin: float
    tol: float


class CascadeError(SolverError):
    """Gauss-Seidel sweep divergence; carries the sweep history."""


def build_cascade(subsystems, topology: str, grid: SpatialGrid, dt: float,
                  horizon: float, external_d: Expression | None = None,
                  external_f: Expression | None = None,
                  boundary_exprs=None, q: float = math.inf,
                  c_s: float | None = None, c_p: float | None = None) -> CascadeSpec:
    """Wire subsystem specs into a cascade and precompute its constants.

    ``subsystems`` is a sequence of :class:`SubsystemSpec`.  Robin-open
    chains need ``external_d``; dirichlet-open chains need
    ``external_f``; both dirichlet topologies need ``boundary_exprs``
    (one per subsystem).  For cyclic topologies a failed small-gain
    constant is recorded as a warning and bound checks are disabled,
    but simulation remains permitted.
    """
    subsystems = list(subsystems)
    k = len(subsystems)
    if k < 2:
        raise ConfigError("a cascade needs at least two subsystems")
    if topology not in TOPOLOGIES:
        raise ConfigError(f"unknown topology {topology!r}")
    kind = ROBIN if topology.startswith("robin") else DIRICHLET
    if topology == ROBIN_OPEN and external_d is None:
        raise ConfigError("robin-open needs the external boundary input d")
    if topology == DIRICHLET_OPEN and external_f is None:
        raise ConfigError("dirichlet-open needs the external in-domain input f")
    if kind == DIRICHLET:
        if boundary_exprs is None:
            boundary_exprs = [_ZERO] * k
        boundary_exprs = list(boundary_exprs)
        if len(boundary_exprs) != k:
            raise ConfigError("need one boundary expression per subsystem")

    scenarios = []
    warnings = []
    for j, sub in enumerate(subsystems):
        if kind == ROBIN:
            bexpr = external_d if (topology == ROBIN_OPEN and j == 0) else _ZERO
            boundary = BoundarySpec(ROBIN, bexpr)
            fexpr = _ZERO
        else:
            boundary = BoundarySpec(DIRICHLET, boundary_exprs[j])
            fexpr = external_f if (topology == DIRICHLET_OPEN and j == 0) else _ZERO
        sc = make_scenario(grid, horizon, dt, sub.coefficients, sub.reaction,
                           fexpr, boundary, sub.u0)
        if sc.c_min_raw < 0:
            raise ConfigError(f"subsystem {j + 1} has negative absorption minimum")
        if not sub.reaction.monotone:
            warnings.append(f"subsystem {j + 1} reaction not declared monotone; bounds not asserted")
        scenarios.append(sc)

    sups = [float(np.max(np.abs(sc.initial_values()))) for sc in scenarios]
    phis = list(np.maximum.accumulate(sups))

    if kind == ROBIN:
        gain = small_gain_boundary([sc.bounds.m_min for sc in scenarios])
    else:
        cs1, cp1 = sobolev_constants_1d()
        if grid.dim != 1 and (c_s is None or c_p is None):
            raise ConfigError("2-D cascades need user-supplied embedding constants")
        gain = small_gain_domain([(sc.bounds.a_min, sc.bounds.c_min) for sc in scenarios],
                                 grid.domain.volume,
                                 c_s if c_s is not None else cs1,
                                 c_p if c_p is not None else cp1, q)
    hyp_ok = not warnings
    small_gain_ok = True
    if topology in (ROBIN_CYCLE, DIRICHLET_CYCLE) and gain <= 1.0:
        small_gain_ok = False
        warnings.append(f"small-gain constant {gain:.6g} <= 1; cycle bounds not asserted")
    return CascadeSpec(k=k, topology=topology, grid=grid, dt=dt, horizon=horizon,
                       scenarios=scenarios, phis=phis, small_gain=gain,
                       small_gain_ok=small_gain_ok,
                       bounds_asserted=small_gain_ok and hyp_ok,
                       external_d=external_d, external_f=external_f,
                       boundary_exprs=boundary_exprs if kind == DIRICHLET else None,
                       warnings=warnings)


def simulate_cascade(spec: CascadeSpec) -> list[Trajectory]:
    """Solve all subsystems respecting the coupling topology."""
    if spec.topology in (ROBIN_OPEN, DIRICHLET_OPEN):
        return _simulate_open(spec)
    return _simulate_cycle(spec)


def _simulate_open(spec: CascadeSpec) -> list[Trajectory]:
    bindex = _boundary_indices(spec.grid)
    trajs: list[Trajectory] = []
    for j, sc in enumerate(spec.scenarios):
        forcing = None
        boundary = None
        if j > 0:  # the upstream (times × nodes) rows: its boundary trace or its field
            prev = trajs[-1].values.reshape(trajs[-1].n_samples, -1)
            if spec.boundary_kind == ROBIN:
                boundary = prev[:, bindex]
            else:
                forcing = prev
        trajs.append(TimeStepper(sc, forcing=forcing, boundary=boundary).solve())
    return trajs


def _simulate_cycle(spec: CascadeSpec) -> list[Trajectory]:
    bindex = _boundary_indices(spec.grid)
    steppers = [TimeStepper(sc) for sc in spec.scenarios]
    n_nodes = spec.grid.n_nodes
    nodes, bnodes = node_coords(spec.grid), node_coords(spec.grid, boundary=True)
    times = spec.scenarios[0].times()
    k = spec.k
    state = np.stack([sc.initial_values().ravel() for sc in spec.scenarios])
    out = np.empty((k, times.size, n_nodes))
    out[:, 0] = state
    robin = spec.boundary_kind == ROBIN
    # each subsystem's own data: the forcing on a Robin cycle, the
    # boundary values on a Dirichlet one; the other side is coupled
    own_rows = [data_rows(sc.forcing, nodes) if robin else data_rows(sc.boundary.data, bnodes)
                for sc in spec.scenarios]
    for sl in time_blocks(times.size, n_nodes):
        own = [rows(times[sl]) for rows in own_rows]
        for i in range(sl.start, sl.stop - 1):
            t0, t1 = times[i], times[i + 1]
            r = i - sl.start  # the row of t0 in this block
            cand = state.copy()  # lagged initial guess for the t1 fields
            history = []
            for sweep in range(GS_MAX_SWEEPS):
                prev_cand = cand.copy()
                for j in range(k):
                    src_old = state[j - 1] if j > 0 else state[k - 1]
                    src_new = cand[j - 1] if j > 0 else cand[k - 1]
                    pair = (own[j][r], own[j][r + 1])
                    if robin:
                        f_pair, b_pair = pair, (src_old[bindex], src_new[bindex])
                    else:
                        f_pair, b_pair = (src_old, src_new), pair
                    cand[j] = steppers[j].step_values(state[j], t0, spec.dt,
                                                      f_pair=f_pair, b_pair=b_pair)
                change = float(np.max(np.abs(cand - prev_cand)))
                history.append(change)
                if change < GS_TOL:
                    break
            else:
                raise CascadeError(
                    f"cycle sweeps did not converge at t={t1:.6g}", history)
            state = cand
            out[:, i + 1] = state
    out.setflags(write=False)  # handed over: each Trajectory keeps its slice without a copy
    return [Trajectory(spec.grid, times, out[j].reshape(times.size, *spec.grid.shape))
            for j in range(k)]


def verify_cascade(spec: CascadeSpec, trajectories, tol: float | None = None) -> Report:
    """Check every subsystem at every sample against its chain bound.

    Space-time sups are checked on growing windows against the
    no-decay forms; when a subsystem's absorption minimum is positive
    its spatial sup at each T is additionally checked against the decay
    form.  Returns one aggregated report; cycle topologies with a failed
    small-gain constant yield "not-asserted" with raw norms recorded.
    """
    trajectories = list(trajectories)
    if len(trajectories) != spec.k:
        raise ValueError("one trajectory per subsystem required")
    times = trajectories[0].times
    for tr in trajectories:
        if tr.grid != spec.grid or not np.array_equal(tr.times, times):
            raise ValueError("trajectories do not match the cascade spec")

    cycle = spec.topology in (ROBIN_CYCLE, DIRICHLET_CYCLE)
    mode = "cycle" if cycle else "open"
    details: list[CascadeSampleCheck] = []

    if not spec.bounds_asserted:
        for j, tr in enumerate(trajectories, start=1):
            sups = tr.sup_space_per_sample()
            for i, t in enumerate(times):
                details.append(CascadeSampleCheck(j, "raw", float(t), float(sups[i]),
                                                  math.nan, math.nan, math.nan))
        why = "; ".join(spec.warnings) or "hypotheses not met"
        return Report("cascade", NOT_ASSERTED, math.nan, None,
                      len(details), details,
                      notes=f"{why}; raw norms recorded")

    robin = spec.boundary_kind == ROBIN
    nodes, bnodes = node_coords(spec.grid), node_coords(spec.grid, boundary=True)
    if spec.topology == ROBIN_OPEN:
        d_run = data_running_sup(spec.external_d, bnodes, times)
    elif spec.topology == DIRICHLET_OPEN:
        f_run = data_running_sup(spec.external_f, nodes, times)
    if not robin:
        d_runs = [data_running_sup(e, bnodes, times) for e in spec.boundary_exprs]

    worst = math.inf
    worst_where = None
    ok = True
    for j, tr in enumerate(trajectories, start=1):
        sc = spec.scenarios[j - 1]
        c_min_j = sc.bounds.c_min
        sups = tr.sup_space_per_sample()
        running = np.maximum.accumulate(sups)
        phi_j = spec.phis[j - 1] if not cycle else spec.phis[-1]
        for i, t in enumerate(times):
            t = float(t)
            checks = []
            if robin:
                dv = d_run[i] if spec.topology == ROBIN_OPEN else 0.0
                b_st = cascade_bound_robin(j, phi_j, dv, spec.small_gain, 0.0, t, mode)
                checks.append(("spacetime", running[i], b_st))
                if c_min_j > 0:
                    b_sp = cascade_bound_robin(j, phi_j, dv, spec.small_gain, c_min_j, t, mode)
                    checks.append(("spatial", sups[i], b_sp))
            else:
                if spec.topology == DIRICHLET_OPEN:
                    fv = f_run[i]
                    dvs = [d_runs[idx][i] for idx in range(j)]
                else:
                    fv = 0.0
                    dvs = [d_runs[idx][i] for idx in range(spec.k)]
                b_st = cascade_bound_dirichlet(j, phi_j, fv, dvs, spec.small_gain, 0.0, t, mode)
                checks.append(("spacetime", running[i], b_st))
                if c_min_j > 0:
                    b_sp = cascade_bound_dirichlet(j, phi_j, fv, dvs, spec.small_gain,
                                                   c_min_j, t, mode)
                    checks.append(("spatial", sups[i], b_sp))
            for form, obs, bnd in checks:
                tl = tol if tol is not None else default_tolerance(bnd, spec.grid, spec.dt)
                margin = bnd - obs
                details.append(CascadeSampleCheck(j, form, t, float(obs), float(bnd),
                                                  float(margin), float(tl)))
                if margin < -tl:
                    ok = False
                if margin < worst:
                    worst = margin
                    flat = np.abs(tr.values[i].ravel())
                    node = int(np.argmax(flat))
                    worst_where = (*spec.grid.node_location(node), t)
    return Report("cascade", PASS if ok else FAIL, float(worst), worst_where,
                  len(details), details,
                  notes="; ".join(spec.warnings))
