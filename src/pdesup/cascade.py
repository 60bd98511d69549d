"""Chains of parabolic subsystems coupled on the boundary or over the domain.

Four topologies: ``robin-open`` feeds an external boundary input d into
subsystem 1 and each later subsystem reads the previous one's boundary
trace; ``robin-cycle`` closes that loop (subsystem 1 reads the last
trace).  ``dirichlet-open`` feeds an external in-domain input f into
subsystem 1 and each later subsystem consumes the previous FULL field as
its forcing, with per-subsystem external boundary data; ``dirichlet-
cycle`` closes the forcing loop.

Open chains are solved in order.  Cycles contain a same-instant
algebraic loop.  The coupling is linear, so a cycle is Crank-Nicolson for
one coupled operator ``blockdiag(A_j) + K``, whose block ``K[j, j-1]``
feeds subsystem j-1 into subsystem j: one stacked step advances every
subsystem, each within its own Newton tolerance (see
:class:`pdesup.solver.TimeStepper`).  The cycle bounds are asserted only
when the corresponding small-gain constant exceeds one; otherwise the
verdict is "not-asserted" and raw norms are still recorded.
:func:`verify_cascade` hands one ``(samples, observed, bounds)`` part
per subsystem and form (``samples`` the subsystem's
:class:`pdesup.core.SampleSups`), its bounds from one call of the chain bound
:func:`pdesup.gains.cascade_bound`, to :func:`pdesup.harness.build_report`,
labelled by the ``subsystem`` and ``form`` columns of the report's details.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import DIRICHLET, ROBIN, SampleSups, SpatialGrid, Trajectory
from .expressions import ZERO, Expression
from .gains import cascade_bound, embedding_constants, small_gain_boundary, small_gain_domain
from .harness import NOT_ASSERTED, Report, build_report, data_running_sup, sample_details
from .solver import (
    BoundarySpec,
    Coefficients,
    ConfigError,
    ReactionTerm,
    Scenario,
    TimeStepper,
    make_scenario,
    node_coords,
)

ROBIN_OPEN = "robin-open"
ROBIN_CYCLE = "robin-cycle"
DIRICHLET_OPEN = "dirichlet-open"
DIRICHLET_CYCLE = "dirichlet-cycle"
TOPOLOGIES = (ROBIN_OPEN, ROBIN_CYCLE, DIRICHLET_OPEN, DIRICHLET_CYCLE)


@dataclass(frozen=True)
class SubsystemSpec:
    coefficients: Coefficients
    reaction: ReactionTerm
    u0: Expression


@dataclass
class CascadeSpec:
    """A fully wired cascade: scenarios, initial sups and small-gain status.

    The external inputs (``d``, ``f``, ``d_j``) are the scenarios' own data.
    """

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
    warnings: list[str] = field(default_factory=list)

    @property
    def boundary_kind(self) -> str:
        return ROBIN if self.topology.startswith("robin") else DIRICHLET


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
            boundary_exprs = [ZERO] * k
        boundary_exprs = list(boundary_exprs)
        if len(boundary_exprs) != k:
            raise ConfigError("need one boundary expression per subsystem")

    scenarios = []
    warnings = []
    for j, sub in enumerate(subsystems):
        if kind == ROBIN:
            bexpr = external_d if (topology == ROBIN_OPEN and j == 0) else ZERO
            boundary = BoundarySpec(ROBIN, bexpr)
            fexpr = ZERO
        else:
            boundary = BoundarySpec(DIRICHLET, boundary_exprs[j])
            fexpr = external_f if (topology == DIRICHLET_OPEN and j == 0) else ZERO
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
        gain = small_gain_domain([(sc.bounds.a_min, sc.bounds.c_min) for sc in scenarios],
                                 grid.domain.volume, *embedding_constants(grid.dim, c_s, c_p), q)
    hyp_ok = not warnings
    small_gain_ok = True
    if topology in (ROBIN_CYCLE, DIRICHLET_CYCLE) and gain <= 1.0:
        small_gain_ok = False
        warnings.append(f"small-gain constant {gain:.6g} <= 1; cycle bounds not asserted")
    return CascadeSpec(k=k, topology=topology, grid=grid, dt=dt, horizon=horizon,
                       scenarios=scenarios, phis=phis, small_gain=gain,
                       small_gain_ok=small_gain_ok,
                       bounds_asserted=small_gain_ok and hyp_ok, warnings=warnings)


def simulate_cascade(spec: CascadeSpec) -> list[Trajectory]:
    """Solve all subsystems respecting the coupling topology (a cycle as one stack)."""
    if spec.topology in (ROBIN_OPEN, DIRICHLET_OPEN):
        return _simulate_open(spec)
    return TimeStepper(spec.scenarios, cycle=True).march(None, None, None)


def _simulate_open(spec: CascadeSpec) -> list[Trajectory]:
    bindex = spec.grid.boundary_indices()
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


def verify_cascade(spec: CascadeSpec, samples: list[SampleSups],
                   tol: float | None = None) -> Report:
    """Check every subsystem's sups at every sample against its chain bound.

    Space-time sups are checked on growing windows against the
    no-decay forms; when a subsystem's absorption minimum is positive
    its spatial sup at each T is additionally checked against the decay
    form.  Returns one aggregated report, whose details list each
    subsystem's space-time samples and then its spatial ones; cycle
    topologies with a failed small-gain constant yield "not-asserted"
    with raw norms recorded (form ``raw``, NaN bound, margin and tol).
    """
    if len(samples) != spec.k:
        raise ValueError("one record of sups per subsystem required")
    times = samples[0].times
    for s in samples:
        if s.grid != spec.grid or not np.array_equal(s.times, times):
            raise ValueError("sups do not match the cascade spec")

    cycle = spec.topology in (ROBIN_CYCLE, DIRICHLET_CYCLE)
    mode = "cycle" if cycle else "open"
    k = range(1, spec.k + 1)

    if not spec.bounds_asserted:
        nan = np.full(times.size, math.nan)
        details = sample_details([(s, s.sups, nan) for s in samples],
                                 math.nan, spec.grid, spec.dt, subsystem=k, form=["raw"] * spec.k)
        why = "; ".join(spec.warnings) or "hypotheses not met"
        return Report("cascade", NOT_ASSERTED, math.nan, None, len(details), details,
                      notes=f"{why}; raw norms recorded")

    # subsystem 1's external input and the per-subsystem boundary tails,
    # read off the scenarios (zero data in a cycle; a Robin chain has no tails)
    first = spec.scenarios[0]
    bnodes = node_coords(spec.grid, boundary=True)
    if spec.boundary_kind == ROBIN:
        ext = data_running_sup(first.boundary.data, bnodes, times)
        d_runs = [np.zeros(times.size)] * spec.k
    else:
        ext = data_running_sup(first.forcing, node_coords(spec.grid), times)
        d_runs = [data_running_sup(sc.boundary.data, bnodes, times) for sc in spec.scenarios]

    parts, subsystems, forms = [], [], []
    for j, sub in zip(k, samples):
        c_min_j = spec.scenarios[j - 1].bounds.c_min
        phi_j = spec.phis[-1] if cycle else spec.phis[j - 1]
        tails = d_runs if cycle else d_runs[:j]
        checks = [("spacetime", np.maximum.accumulate(sub.sups), 0.0)]
        if c_min_j > 0:
            checks.append(("spatial", sub.sups, c_min_j))
        for form, observed, c in checks:
            bounds = cascade_bound(j, phi_j, ext, tails, spec.small_gain, c, times, mode)
            parts.append((sub, observed, bounds))
            subsystems.append(j)
            forms.append(form)
    return build_report("cascade", parts, tol, spec.grid, spec.dt, "; ".join(spec.warnings),
                        subsystem=subsystems, form=forms)
