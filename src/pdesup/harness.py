"""Bound-verification engine.

Each checker evaluates its explicit envelope at every stored sample in
one array call (the :mod:`pdesup.gains` evaluators take the sample
arrays) and hands ``(samples, observed, bounds)`` parts to
:func:`build_report`, the one place where margins, tolerances, the
verdict and the witness are computed.  ``samples`` is a
:class:`pdesup.core.SampleSups`, each sample's sup-norm and its first
node (the witness of the worst sample), so no field goes in: a solve
records it as it steps (:func:`pdesup.core.sup_sink`, which the CLI
reaches through this module), or a :class:`Trajectory` gives it.
Margins are ``bound - observed``;
a check passes when every margin clears ``-tol`` where the default
tolerance combines a relative term with an estimated discretization
slack:

    tol = 1e-6 * (1 + bound) + 10 * (h^2 + dt^2)

The envelopes themselves are deliberately conservative, so a violation
beyond this slack indicates a bug (in the solver, in a gain, or in the
hypotheses), not bound sharpness; a NaN margin fails.  A
:class:`Report`'s ``details`` is one record array with a row per
checked sample and the columns ``t, observed, bound, margin, tol``
(after any label columns such as a cascade's ``subsystem`` and
``form``).  Hypothesis probes (monotone reaction, growth envelope) live
here as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import ROBIN, SampleSups, SpatialGrid, Trajectory, sup_sink, time_blocks
from .gains import GainSet, iss_bound
from .solver import ReactionTerm, Scenario, data_rows, node_coords

PASS = "pass"
FAIL = "fail"
NOT_ASSERTED = "not-asserted"


@dataclass
class Report:
    """Outcome of one bound check."""

    check: str
    verdict: str
    worst_margin: float
    worst_location: tuple | None
    samples_checked: int
    details: np.recarray | tuple = ()
    notes: str = ""


def default_tolerance(bound, grid: SpatialGrid, dt: float):
    """The tolerance for one bound or, elementwise, for an array of them."""
    return 1e-6 * (1.0 + bound) + 10.0 * (grid.h_max ** 2 + dt ** 2)


def sample_details(parts, tol, grid: SpatialGrid, dt: float, **labels) -> np.recarray:
    """One record per sample of every ``(samples, observed, bounds)`` part.

    The columns are ``labels`` (one value per part, repeated over its
    samples) and then ``t, observed, bound, margin, tol``; ``tol=None``
    takes :func:`default_tolerance` of each bound.
    """
    sizes = [len(observed) for _, observed, _ in parts]
    t = np.concatenate([samples.times for samples, _, _ in parts])
    observed = np.concatenate([observed for _, observed, _ in parts], dtype=float)
    bound = np.concatenate([bounds for _, _, bounds in parts], dtype=float)
    tols = default_tolerance(bound, grid, dt) if tol is None else np.full(bound.size, float(tol))
    columns = {name: np.repeat(values, sizes) for name, values in labels.items()}
    columns.update(t=t, observed=observed, bound=bound, margin=bound - observed, tol=tols)
    return np.rec.fromarrays(list(columns.values()), names=list(columns))


def build_report(name: str, parts, tol, grid: SpatialGrid, dt: float, notes: str = "",
                 **labels) -> Report:
    """Check every sample of ``parts``, each ``(samples, observed, bounds)``
    with ``samples`` a :class:`SampleSups` (see :func:`sample_details`).

    The verdict is a pass when every margin clears ``-tol`` (a NaN margin
    does not); the worst sample is the first smallest margin, and its
    witness is that sample's sup-norm node.
    """
    details = sample_details(parts, tol, grid, dt, **labels)
    worst = int(np.argmin(details.margin))
    i = worst
    for samples, observed, _ in parts:  # the part and sample that row belongs to
        if i < len(observed):
            break
        i -= len(observed)
    ok = bool(np.all(details.margin >= -details.tol))
    return Report(check=name, verdict=PASS if ok else FAIL,
                  worst_margin=float(details.margin[worst]),
                  worst_location=(*samples.grid.node_location(int(samples.nodes[i])),
                                  float(samples.times[i])),
                  samples_checked=len(details), details=details, notes=notes)


def data_running_sup(expr, coords, times, minus=None) -> np.ndarray:
    """Running sup of |expr| (or of |expr - minus|) over the nodes ``coords``
    and the samples up to each of ``times``, evaluated block by block."""
    times = np.asarray(times, dtype=float)
    rows, rows2 = data_rows(expr, coords), None if minus is None else data_rows(minus, coords)
    sups = np.empty(times.size)
    for sl in time_blocks(times.size, coords[0].size):
        block = rows(times[sl])
        sups[sl] = np.abs(block if rows2 is None else block - rows2(times[sl])).max(axis=1)
    return np.maximum.accumulate(sups)


def running_sup_forcing(scenario: Scenario, times) -> np.ndarray:
    """Running sup over nodes and samples of |f| up to each sample time."""
    return data_running_sup(scenario.forcing, node_coords(scenario.grid), times)


def running_sup_boundary(scenario: Scenario, times) -> np.ndarray:
    """Running sup over boundary nodes and samples of |d|."""
    return data_running_sup(scenario.boundary.data, node_coords(scenario.grid, boundary=True),
                            times)


def block_data_sups(n_times: int, pair: bool):
    """An ``on_block`` for :meth:`pdesup.solver.TimeStepper.solve_stack` that
    records the sup over the nodes of |f| and of |d| at each of ``n_times``
    samples, and a function that returns their running sups ``(f, d)``.

    With ``pair`` the rows are those of a stack of two scenarios, and the
    sups are of |f1 - f2| and |d1 - d2|.  Each value is the one
    :func:`running_sup_forcing`/:func:`running_sup_boundary` (or
    :func:`data_running_sup` with ``minus``) computes, from the rows the
    stepper has evaluated anyway.
    """
    sups = np.empty((2, n_times))

    def on_block(sl, f, b):
        for row, rows in zip(sups, (f, b)):
            if pair:
                half = rows.shape[1] // 2
                rows = rows[:, :half] - rows[:, half:]
            row[sl] = np.abs(rows).max(axis=1)

    return on_block, lambda: tuple(np.maximum.accumulate(sups, axis=1))


def iss_hypotheses_met(scenario: Scenario) -> bool:
    """Whether :func:`check_iss` asserts its envelope: c_min > 0, monotone h."""
    return scenario.c_min_raw > 0 and scenario.reaction.monotone


def check_iss(samples: SampleSups | Trajectory, scenario: Scenario, g: GainSet | None,
              tol: float | None = None, f_sups=None, d_sups=None) -> Report:
    """Spatial sup-norm at every sample against the exponential ISS envelope.

    ``samples`` are the solution's per-sample sups, or its trajectory.
    ``g`` may be None when the hypotheses are not met (the verdict is then
    "not-asserted").  ``f_sups``/``d_sups`` pass in running sups the
    caller has already computed over the sample times.
    """
    if not iss_hypotheses_met(scenario):
        return Report("iss", NOT_ASSERTED, math.nan, None, 0,
                      notes="hypotheses not met: need c_min > 0 and a monotone reaction")
    if g.boundary_kind != scenario.boundary.kind:
        raise ValueError("gain set boundary kind does not match the scenario")
    samples = samples.sample_sups()
    observed, times = samples.sups, samples.times
    if f_sups is None:
        f_sups = running_sup_forcing(scenario, times)
    if d_sups is None:
        d_sups = running_sup_boundary(scenario, times)
    bounds = iss_bound(times, observed[0], f_sups, d_sups, g)
    return build_report("iss", [(samples, observed, bounds)], tol, scenario.grid, scenario.dt)


def rkes_gains_defined(scenario: Scenario) -> bool:
    """Whether the linear RKES gains exist: c_min > 0, or c_min = 0 on Dirichlet data."""
    c_min = scenario.c_min_raw
    return c_min > 0 or (c_min == 0 and scenario.boundary.kind != ROBIN)


def gains_undefined_note(scenario: Scenario) -> str:
    """Why :func:`rkes_gains_defined` is false for ``scenario``."""
    need = "c_min > 0 for Robin data" if scenario.boundary.kind == ROBIN else "c_min >= 0"
    return f"gains undefined: need {need} (c_min {scenario.c_min_raw:.6g})"


def check_rkes(difference, scenario_pair, g: GainSet | None, tol: float | None = None,
               f_sups=None, d_sups=None) -> Report:
    """Space-time sup of the solution difference against the linear RKES bound.

    ``difference`` is the :class:`SampleSups` of v1 - v2, or the pair of
    trajectories, whose difference is then taken a block of samples at a
    time.  Both scenarios must share everything except (f, d); the bound is
    checked on every growing window [0, T_i].  The verdict is
    "not-asserted" when the reaction is not monotone, or when ``g`` is
    None because :func:`rkes_gains_defined` says the gains do not exist.
    ``f_sups``/``d_sups`` pass in the running sups of |f1 - f2| and
    |d1 - d2| the caller has already computed over the sample times.
    """
    sc1, sc2 = scenario_pair
    same_data = replace(sc2.boundary, data=sc1.boundary.data)
    if replace(sc2, forcing=sc1.forcing, boundary=same_data) != sc1:
        raise ValueError("scenarios differ beyond the disturbance pair (f, d)")
    why = [gains_undefined_note(sc1)] if g is None else []
    if not sc1.reaction.monotone:
        why.append("hypotheses not met: need a monotone reaction")
    if why:
        return Report("rkes", NOT_ASSERTED, math.nan, None, 0, notes="; ".join(why))
    if not isinstance(difference, SampleSups):
        traj1, traj2 = difference
        if traj1.grid != traj2.grid or not np.array_equal(traj1.times, traj2.times):
            raise ValueError("trajectories differ in grid or time samples")
        v1, v2 = (tr.values.reshape(tr.n_samples, -1) for tr in (traj1, traj2))
        sink, sups_of = sup_sink(traj1.grid, traj1.times, lambda sl, _: v1[sl] - v2[sl])
        for sl in time_blocks(*v1.shape):
            sink(sl, None)
        difference = sups_of()
    times = difference.times
    if f_sups is None:
        f_sups = data_running_sup(sc1.forcing, node_coords(sc1.grid), times, minus=sc2.forcing)
    if d_sups is None:
        d_sups = data_running_sup(sc1.boundary.data, node_coords(sc1.grid, boundary=True), times,
                                  minus=sc2.boundary.data)
    bounds = g.l_f * f_sups + g.l_d * d_sups
    observed = np.maximum.accumulate(difference.sups)
    return build_report("rkes", [(difference, observed, bounds)], tol, sc1.grid, sc1.dt)


def check_decay(samples: SampleSups | Trajectory, c_min: float, u0_sup: float,
                tol: float | None = None) -> Report:
    """Zero-input decay: spatial sup at T bounded by u0_sup * exp(-c_min T),
    which ``verify-decay`` asserts for c_min > 0 and zero disturbances only.
    ``samples`` are the solution's per-sample sups, or its trajectory."""
    samples = samples.sample_sups()
    times = samples.times
    bounds = u0_sup * np.exp(-c_min * times)
    dt = float(times[1] - times[0]) if times.size > 1 else 0.0
    return build_report("decay", [(samples, samples.sups, bounds)], tol, samples.grid, dt)


def monotonicity_probe(reaction: ReactionTerm, n_samples: int = 256, rng=None) -> bool:
    """Sampled check that (h(.,xi1)-h(.,xi2))(xi1-xi2) >= 0."""
    rng = np.random.default_rng(0) if rng is None else rng
    xs = rng.uniform(0.0, 1.0, n_samples)
    ys = rng.uniform(0.0, 1.0, n_samples)
    ts = rng.uniform(0.0, 10.0, n_samples)
    scale = 10.0 ** rng.uniform(-2, 3, (2, n_samples))
    xi1 = rng.choice([-1, 1], n_samples) * scale[0]
    xi2 = rng.choice([-1, 1], n_samples) * scale[1]
    h = reaction.at_nodes(xs, ys)
    h1, h2 = h(ts, xi1), h(ts, xi2)
    return bool(np.all((h1 - h2) * (xi1 - xi2) >= -1e-12))


def growth_probe(reaction: ReactionTerm, growth_exponent: float,
                 growth_constant: float, n_samples: int = 256, rng=None) -> bool:
    """Sampled check of |h| <= c0 (1 + |xi|^lambda) on |xi| <= 1e3."""
    rng = np.random.default_rng(1) if rng is None else rng
    xs = rng.uniform(0.0, 1.0, n_samples)
    ys = rng.uniform(0.0, 1.0, n_samples)
    ts = rng.uniform(0.0, 10.0, n_samples)
    xi = rng.choice([-1, 1], n_samples) * 10.0 ** rng.uniform(-3, 3, n_samples)
    h = reaction.at_nodes(xs, ys)(ts, xi)
    env = growth_constant * (1.0 + np.abs(xi) ** growth_exponent)
    return bool(np.all(np.abs(h) <= env + 1e-12))

