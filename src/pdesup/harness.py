"""Bound-verification engine.

Each checker evaluates its explicit envelope at every stored sample in
one array call (the :mod:`pdesup.gains` evaluators take the sample
arrays) and hands ``(trajectory, observed, bounds)`` arrays to
:func:`build_report`, the one place where margins, tolerances, the
verdict and the witness are computed.  Margins are ``bound - observed``;
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
``form``).  Hypothesis probes (monotone reaction, growth envelope) and
the level-set diagnostic for sup-norm conclusions live here as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import ROBIN, SpatialGrid, Trajectory, diff_trajectory, running_sup
from .expressions import is_zero
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

    @property
    def passed(self) -> bool:
        return self.verdict == PASS


def default_tolerance(bound, grid: SpatialGrid, dt: float):
    """The tolerance for one bound or, elementwise, for an array of them."""
    return 1e-6 * (1.0 + bound) + 10.0 * (grid.h_max ** 2 + dt ** 2)


def sample_details(parts, tol, grid: SpatialGrid, dt: float, **labels) -> np.recarray:
    """One record per sample of every ``(trajectory, observed, bounds)`` part.

    The columns are ``labels`` (one value per part, repeated over its
    samples) and then ``t, observed, bound, margin, tol``; ``tol=None``
    takes :func:`default_tolerance` of each bound.
    """
    sizes = [len(observed) for _, observed, _ in parts]
    t = np.concatenate([traj.times for traj, _, _ in parts])
    observed = np.concatenate([observed for _, observed, _ in parts], dtype=float)
    bound = np.concatenate([bounds for _, _, bounds in parts], dtype=float)
    tols = default_tolerance(bound, grid, dt) if tol is None else np.full(bound.size, float(tol))
    columns = {name: np.repeat(values, sizes) for name, values in labels.items()}
    columns.update(t=t, observed=observed, bound=bound, margin=bound - observed, tol=tols)
    return np.rec.fromarrays(list(columns.values()), names=list(columns))


def build_report(name: str, parts, tol, grid: SpatialGrid, dt: float, notes: str = "",
                 **labels) -> Report:
    """Check every sample of ``parts`` (see :func:`sample_details`).

    The verdict is a pass when every margin clears ``-tol`` (a NaN margin
    does not); the worst sample is the first smallest margin, and its
    witness is the sup-norm node of that sample's field.
    """
    details = sample_details(parts, tol, grid, dt, **labels)
    ok = bool(np.all(details.margin >= -details.tol))
    worst = int(np.argmin(details.margin))
    i = worst
    for traj, observed, _ in parts:  # the part and sample that row belongs to
        if i < len(observed):
            break
        i -= len(observed)
    node = int(np.argmax(np.abs(traj.values[i].ravel())))
    return Report(check=name, verdict=PASS if ok else FAIL,
                  worst_margin=float(details.margin[worst]),
                  worst_location=(*traj.grid.node_location(node), float(traj.times[i])),
                  samples_checked=len(details), details=details, notes=notes)


def data_running_sup(expr, coords, times, minus=None) -> np.ndarray:
    """Running sup of |expr| (or of |expr - minus|) over the nodes ``coords``
    and the samples up to each of ``times``, evaluated block by block."""
    times = np.asarray(times, dtype=float)
    rows = data_rows(expr, coords)
    if minus is None:
        return running_sup(lambda sl: rows(times[sl]), times.size, coords[0].size)
    rows2 = data_rows(minus, coords)
    return running_sup(lambda sl: rows(times[sl]) - rows2(times[sl]), times.size, coords[0].size)


def running_sup_forcing(scenario: Scenario, times) -> np.ndarray:
    """Running sup over nodes and samples of |f| up to each sample time."""
    return data_running_sup(scenario.forcing, node_coords(scenario.grid), times)


def running_sup_boundary(scenario: Scenario, times) -> np.ndarray:
    """Running sup over boundary nodes and samples of |d|."""
    return data_running_sup(scenario.boundary.data, node_coords(scenario.grid, boundary=True),
                            times)


def iss_hypotheses_met(scenario: Scenario) -> bool:
    """Whether :func:`check_iss` asserts its envelope: c_min > 0, monotone h."""
    return scenario.c_min_raw > 0 and scenario.reaction.monotone


def check_iss(traj: Trajectory, scenario: Scenario, g: GainSet | None,
              tol: float | None = None, f_sups=None, d_sups=None) -> Report:
    """Spatial sup-norm at every sample against the exponential ISS envelope.

    ``g`` may be None when the hypotheses are not met (the verdict is then
    "not-asserted").  ``f_sups``/``d_sups`` pass in running sups the
    caller has already computed over ``traj.times``.
    """
    if not iss_hypotheses_met(scenario):
        return Report("iss", NOT_ASSERTED, math.nan, None, 0,
                      notes="hypotheses not met: need c_min > 0 and a monotone reaction")
    if g.boundary_kind != scenario.boundary.kind:
        raise ValueError("gain set boundary kind does not match the scenario")
    observed = traj.sup_space_per_sample()
    u0_sup = observed[0]
    if f_sups is None:
        f_sups = running_sup_forcing(scenario, traj.times)
    if d_sups is None:
        d_sups = running_sup_boundary(scenario, traj.times)
    bounds = iss_bound(traj.times, u0_sup, f_sups, d_sups, g)
    return build_report("iss", [(traj, observed, bounds)], tol, scenario.grid, scenario.dt)


def rkes_gains_defined(scenario: Scenario) -> bool:
    """Whether the linear RKES gains exist: c_min > 0, or c_min = 0 on Dirichlet data."""
    c_min = scenario.c_min_raw
    return c_min > 0 or (c_min == 0 and scenario.boundary.kind != ROBIN)


def gains_undefined_note(scenario: Scenario) -> str:
    """Why :func:`rkes_gains_defined` is false for ``scenario``."""
    need = "c_min > 0 for Robin data" if scenario.boundary.kind == ROBIN else "c_min >= 0"
    return f"gains undefined: need {need} (c_min {scenario.c_min_raw:.6g})"


def check_rkes(traj_pair, scenario_pair, g: GainSet | None, tol: float | None = None) -> Report:
    """Space-time sup of the solution difference against the linear RKES bound.

    Both scenarios must share everything except (f, d); the bound is
    checked on every growing window [0, T_i].  The verdict is
    "not-asserted" when the reaction is not monotone, or when ``g`` is
    None because :func:`rkes_gains_defined` says the gains do not exist.
    """
    traj1, traj2 = traj_pair
    sc1, sc2 = scenario_pair
    same_data = replace(sc2.boundary, data=sc1.boundary.data)
    if replace(sc2, forcing=sc1.forcing, boundary=same_data) != sc1:
        raise ValueError("scenarios differ beyond the disturbance pair (f, d)")
    why = [gains_undefined_note(sc1)] if g is None else []
    if not sc1.reaction.monotone:
        why.append("hypotheses not met: need a monotone reaction")
    if why:
        return Report("rkes", NOT_ASSERTED, math.nan, None, 0, notes="; ".join(why))
    d = diff_trajectory(traj1, traj2)
    observed = np.maximum.accumulate(d.sup_space_per_sample())
    f_run = data_running_sup(sc1.forcing, node_coords(sc1.grid), d.times, minus=sc2.forcing)
    d_run = data_running_sup(sc1.boundary.data, node_coords(sc1.grid, boundary=True), d.times,
                             minus=sc2.boundary.data)
    bounds = g.l_f * f_run + g.l_d * d_run
    return build_report("rkes", [(d, observed, bounds)], tol, sc1.grid, sc1.dt)


def check_decay(traj: Trajectory, c_min: float, u0_sup: float,
                tol: float | None = None, scenario: Scenario | None = None) -> Report:
    """Zero-input decay: spatial sup at T bounded by u0_sup * exp(-c_min T)."""
    if c_min <= 0:
        raise ValueError("decay check needs c_min > 0")
    if scenario is not None:
        if not (is_zero(scenario.forcing) and is_zero(scenario.boundary.data)):
            raise ValueError("decay check requires zero disturbances in the scenario")
    observed = traj.sup_space_per_sample()
    bounds = u0_sup * np.exp(-c_min * traj.times)
    dt = float(traj.times[1] - traj.times[0]) if traj.n_samples > 1 else 0.0
    return build_report("decay", [(traj, observed, bounds)], tol, traj.grid, dt)


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


def level_set_diagnostic(traj: Trajectory, k0: float, forcing_term: float,
                         tol: float | None = None, k0_mirror: float | None = None) -> Report:
    """Level-set conclusion check for a difference (or zero-input) trajectory.

    (a) pointwise: max w over all samples <= k0 + forcing_term + tol,
    mirrored for -w with ``k0_mirror`` (defaults to k0); (b) for a
    ladder of 13 levels k above k0 the discrete measure of {w > k}
    (node-count fraction times domain volume) is non-increasing in k and
    vanishes at the top level k0 + forcing_term + tol.
    """
    if k0_mirror is None:
        k0_mirror = k0
    dt = float(traj.times[1] - traj.times[0]) if traj.n_samples > 1 else 0.0
    cap_plus = k0 + forcing_term
    cap_minus = k0_mirror + forcing_term
    tol_eff = default_tolerance(max(cap_plus, cap_minus), traj.grid, dt) if tol is None else tol

    w = traj.values
    max_w = float(np.max(w))
    max_neg = float(np.max(-w))
    margins = [cap_plus - max_w, cap_minus - max_neg]
    ok = margins[0] >= -tol_eff and margins[1] >= -tol_eff

    volume = traj.grid.domain.volume
    n_nodes = traj.grid.n_nodes
    levels = np.linspace(k0, cap_plus + tol_eff, 13)
    flat = w.reshape(traj.n_samples, -1)
    measures = np.array([np.max(np.sum(flat > k, axis=1)) for k in levels]) / n_nodes * volume
    mono = bool(np.all(measures[:-1] >= measures[1:]))
    vanish = measures[-1] == 0.0
    ok = ok and mono and vanish

    worst = min(margins)
    i_side = int(np.argmin(margins))
    arr = w if i_side == 0 else -w
    i_t, i_node = np.unravel_index(int(np.argmax(arr.reshape(traj.n_samples, -1))),
                                   (traj.n_samples, n_nodes))
    notes = []
    if not mono:
        notes.append("level-set measures not monotone")
    if not vanish:
        notes.append("top level-set measure nonzero")
    return Report(check="level-set", verdict=PASS if ok else FAIL,
                  worst_margin=float(worst),
                  worst_location=(*traj.grid.node_location(int(i_node)), float(traj.times[i_t])),
                  samples_checked=traj.n_samples,
                  details=np.rec.fromarrays([levels, measures], names="level,measure"),
                  notes="; ".join(notes))
