import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from pdesup.cascade import SubsystemSpec, build_cascade, simulate_cascade, verify_cascade
from pdesup.core import DIRICHLET, ROBIN, grid_1d, grid_2d, time_blocks
from pdesup.expressions import parse_expression
from pdesup.gains import (
    GainSet,
    cascade_bound,
    iss_bound,
    rkes_gains_dirichlet,
    rkes_gains_robin,
    sobolev_constants_1d,
)
from pdesup.harness import (
    FAIL,
    NOT_ASSERTED,
    PASS,
    block_data_sups,
    build_report,
    check_decay,
    check_iss,
    check_rkes,
    data_running_sup,
    default_tolerance,
    growth_probe,
    monotonicity_probe,
    running_sup_boundary,
    running_sup_forcing,
)
from pdesup.solver import (
    BoundarySpec,
    Coefficients,
    ReactionTerm,
    TimeStepper,
    make_scenario,
    node_coords,
    reaction_log_poly,
    reaction_zero,
    solve,
)

from helpers import superlinear_preset

E = parse_expression
C_S, C_P = sobolev_constants_1d()


def _robin_scenario(f="0", d="0", u0="sin(pi*x)", c="1", m="1", T=1.0,
                    n_x=81, dt=2e-3, reaction=None):
    return make_scenario(
        grid_1d(n_x), T, dt,
        Coefficients(E("1"), E(c), E(m)),
        reaction or reaction_zero(), E(f),
        BoundarySpec(ROBIN, E(d)), E(u0))


def _dirichlet_scenario(f="0", d="0", u0="sin(pi*x)", c="1", T=1.0,
                        n_x=81, dt=2e-3, reaction=None):
    return make_scenario(
        grid_1d(n_x), T, dt,
        Coefficients(E("1"), E(c), E("1")),
        reaction or reaction_zero(), E(f),
        BoundarySpec(DIRICHLET, E(d)), E(u0))


def _gains_for(sc):
    if sc.boundary.kind == ROBIN:
        return rkes_gains_robin(sc.bounds, sc.grid.domain.volume, C_S)
    return rkes_gains_dirichlet(sc.bounds, sc.grid.domain.volume, C_S, C_P)


def test_check_decay_zero_initial():
    sc = _robin_scenario(u0="0", T=0.2)
    traj = solve(sc)
    rep = check_decay(traj, 1.0, 0.0)
    assert rep.verdict == PASS


def test_check_decay_heat_with_reaction():
    sc = _robin_scenario(reaction=reaction_log_poly(), T=1.0)
    traj = solve(sc)
    rep = check_decay(traj, 1.0, 1.0)
    assert rep.verdict == PASS
    # true decay rate exceeds c_min, so margins grow with t except at t=0
    assert rep.details[0].margin == pytest.approx(0.0, abs=1e-9)
    assert rep.details[-1].margin > 0.1


def test_check_iss_zero_disturbances_is_decay():
    sc = _dirichlet_scenario(T=0.5)
    traj = solve(sc)
    rep = check_iss(traj, sc, _gains_for(sc))
    assert rep.verdict == PASS


def test_check_iss_superlinear_preset():
    sc = superlinear_preset(n_x=81, dt=2e-3, horizon=2.0)
    traj = solve(sc)
    rep = check_iss(traj, sc, _gains_for(sc))
    assert rep.verdict == PASS
    assert rep.worst_margin > 0


def test_check_iss_not_asserted_without_hypotheses():
    sc = _dirichlet_scenario(c="0", T=0.2)
    g = GainSet(l_f=1.0, l_d=1.0, decay_rate=0.0, boundary_kind=DIRICHLET)
    traj = solve(sc)
    rep = check_iss(traj, sc, g)
    assert rep.verdict == NOT_ASSERTED


def test_check_iss_falsification_fixture():
    # halved in-domain gain with a strong forcing must fail with a witness
    sc = _robin_scenario(f="2+0*x", u0="0", T=2.0)
    traj = solve(sc)
    g = _gains_for(sc)
    bad = GainSet(l_f=0.05 * g.l_f, l_d=g.l_d, decay_rate=g.decay_rate,
                  boundary_kind=g.boundary_kind)
    rep = check_iss(traj, sc, bad)
    assert rep.verdict == FAIL
    assert rep.worst_location is not None


def test_check_rkes_identical_pair():
    sc = _robin_scenario(f="sin(t)*sin(pi*x)", d="0.2")
    traj = solve(sc)
    rep = check_rkes((traj, traj), (sc, sc), _gains_for(sc))
    assert rep.verdict == PASS
    assert rep.worst_margin >= 0


def test_check_rkes_randomized_pairs():
    rng = np.random.default_rng(11)
    for _ in range(6):
        a1, a2 = rng.uniform(-0.5, 0.5, 2)
        w1, w2 = rng.uniform(0.5, 4.0, 2)
        sc1 = _robin_scenario(f=f"{a1:.3f}*sin({w1:.3f}*t)*sin(pi*x)", d=f"{a2:.3f}")
        sc2 = _robin_scenario(f=f"{a2:.3f}*cos({w2:.3f}*t)*sin(2*pi*x)",
                              d=f"{a1:.3f}*sin(t)")
        t1, t2 = solve(sc1), solve(sc2)
        rep = check_rkes((t1, t2), (sc1, sc2), _gains_for(sc1))
        assert rep.verdict == PASS, rep.worst_margin


@pytest.mark.parametrize("change", [
    lambda sc: replace(sc, grid=grid_1d(41)),
    lambda sc: replace(sc, dt=1e-3),
    lambda sc: replace(sc, horizon=0.5),
    lambda sc: replace(sc, coefficients=replace(sc.coefficients, a=E("2"))),
    lambda sc: replace(sc, coefficients=replace(sc.coefficients, c=E("2"))),
    lambda sc: replace(sc, coefficients=replace(sc.coefficients, m=E("2"))),
    lambda sc: replace(sc, reaction=reaction_log_poly()),
    lambda sc: replace(sc, boundary=BoundarySpec(DIRICHLET, sc.boundary.data)),
    lambda sc: replace(sc, u0=E("0")),
], ids=["grid", "dt", "horizon", "a", "c", "m", "reaction", "boundary-kind", "u0"])
def test_check_rkes_rejects_mismatched_scenarios(change):
    sc1 = _robin_scenario(f="0.1*sin(t)", d="0.2")
    sc2 = _robin_scenario(f="0", d="0")
    # the disturbance pair alone may differ; the scenario check comes before any
    # use of the trajectories, so none are needed to see it refuse
    with pytest.raises(ValueError, match="beyond the disturbance pair"):
        check_rkes((None, None), (sc1, change(sc2)), _gains_for(sc1))


def _rkes_pair(dim):
    """A Dirichlet pair on an interval or a rectangle, several time blocks long;
    their boundary data differ in 2-D only."""
    if dim == 1:
        return (_dirichlet_scenario(f="0.5*sin(pi*x)*sin(3*t)", d="0.2*sin(t)", T=2.0),
                _dirichlet_scenario(f="-0.3*cos(2*pi*x)*t", d="0.2*sin(t)", T=2.0))
    grid = grid_2d(21, 17, x_hi=1.5)
    make = partial(make_scenario, grid, 2.0, 5e-3, Coefficients(E("1+0.2*x"), E("1"), E("1")),
                   reaction_zero())
    return (make(E("0.5*sin(pi*x)*sin(y+3*t)"), BoundarySpec(DIRICHLET, E("0.2*sin(t)*y")),
                 E("sin(pi*x)*sin(pi*y)")),
            make(E("-0.3*cos(2*pi*x*y)*t"), BoundarySpec(DIRICHLET, E("0.2*sin(t)*y+1e-4*x*t")),
                 E("sin(pi*x)*sin(pi*y)")))


@pytest.mark.parametrize("dim", [1, 2])
def test_block_data_sups_are_the_running_sups_bitwise(dim):
    pair = _rkes_pair(dim)
    for sc in pair:
        record, running = block_data_sups(sc.n_steps + 1, pair=False)
        traj = TimeStepper(sc).solve(record)
        assert len(time_blocks(traj.n_samples, sc.grid.n_nodes)) > 1
        expect = (running_sup_forcing(sc, traj.times), running_sup_boundary(sc, traj.times))
        assert [a.tobytes() for a in running()] == [a.tobytes() for a in expect]
    sc1, sc2 = pair
    record, running = block_data_sups(sc1.n_steps + 1, pair=True)
    t1, t2 = TimeStepper(list(pair)).solve_stack(record)
    f_sups, d_sups = running()
    expect = (data_running_sup(sc1.forcing, node_coords(sc1.grid), t1.times, minus=sc2.forcing),
              data_running_sup(sc1.boundary.data, node_coords(sc1.grid, boundary=True),
                               t1.times, minus=sc2.boundary.data))
    assert [f_sups.tobytes(), d_sups.tobytes()] == [a.tobytes() for a in expect]
    g = _gains_for(sc1)
    given = check_rkes((t1, t2), pair, g, f_sups=f_sups, d_sups=d_sups)
    assert given.details.tobytes() == check_rkes((t1, t2), pair, g).details.tobytes()


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("scale", [1.0, 0.01], ids=["pass", "fail"])
def test_check_rkes_matches_the_difference_trajectory_formula(dim, scale):
    # blockwise sups of v1 - v2 against the full difference trajectory they replaced
    pair = _rkes_pair(dim)
    sc1, sc2 = pair
    t1, t2 = map(solve, pair)
    assert len(time_blocks(t1.n_samples, sc1.grid.n_nodes)) > 1
    g0 = _gains_for(sc1)
    g = replace(g0, l_f=g0.l_f * scale)  # a Dirichlet l_d is exactly 1
    rep = check_rkes((t1, t2), pair, g, tol=1e-6)
    times = t1.times
    flat = np.abs((t1.values - t2.values).reshape(t1.n_samples, -1))
    observed = np.maximum.accumulate(flat.max(axis=1))
    f_run = data_running_sup(sc1.forcing, node_coords(sc1.grid), times, minus=sc2.forcing)
    d_run = data_running_sup(sc1.boundary.data, node_coords(sc1.grid, boundary=True), times,
                             minus=sc2.boundary.data)
    bound = g.l_f * f_run + g.l_d * d_run
    margin = bound - observed
    assert np.array_equal(rep.details.observed, observed)
    assert np.array_equal(rep.details.bound, bound)
    assert np.array_equal(rep.details.margin, margin)
    assert np.array_equal(rep.details.t, times)
    worst = int(np.argmin(margin))
    node = int(np.argmax(flat[worst]))
    assert rep.worst_margin == margin[worst]
    assert rep.worst_location == (*sc1.grid.node_location(node), float(times[worst]))
    assert rep.verdict == (PASS if scale == 1.0 else FAIL)


NON_MONOTONE = "hypotheses not met: need a monotone reaction"


@pytest.mark.parametrize("c, reaction, notes", [
    ("1", ReactionTerm("odd_cubic", scale=-1.0, monotone=False), NON_MONOTONE),
    ("-1", None, "gains undefined: need c_min > 0 for Robin data (c_min -1)"),
    ("-1", ReactionTerm("odd_cubic", scale=-1.0, monotone=False),
     f"gains undefined: need c_min > 0 for Robin data (c_min -1); {NON_MONOTONE}"),
], ids=["non-monotone", "no-gains", "both"])
def test_check_rkes_names_every_unmet_hypothesis(c, reaction, notes):
    sc1 = _robin_scenario(f="0.1*sin(t)", d="0.2", c=c, reaction=reaction)
    sc2 = _robin_scenario(f="0", d="0", c=c, reaction=reaction)
    g = _gains_for(sc1) if sc1.c_min_raw > 0 else None
    # nothing is asserted, so the trajectories are never read
    rep = check_rkes((None, None), (sc1, sc2), g)
    assert rep.verdict == NOT_ASSERTED and math.isnan(rep.worst_margin)
    assert rep.notes == notes


def test_composition_rkes_decay_implies_iss():
    # RKES(u vs zero-input twin) + decay of the twin => the ISS envelope holds
    sc = _robin_scenario(f="0.3*sin(2*t)*sin(pi*x)", d="0.1*cos(t)")
    twin = _robin_scenario(f="0", d="0")
    tr = solve(sc)
    tw = solve(twin)
    g = _gains_for(sc)
    assert check_rkes((tr, tw), (sc, twin), g).verdict == PASS
    assert check_decay(tw, sc.bounds.c_min, 1.0).verdict == PASS
    assert check_iss(tr, sc, g).verdict == PASS


def test_monotonicity_probe():
    assert monotonicity_probe(reaction_log_poly())
    assert monotonicity_probe(reaction_zero())
    assert not monotonicity_probe(ReactionTerm("odd_cubic", scale=-1.0, monotone=False))


def test_growth_probe():
    assert growth_probe(reaction_zero(), 1.0, 1.0)
    assert growth_probe(reaction_log_poly(), 3.0, 10.0)
    quintic = ReactionTerm("custom", expr=E("u^5", ("x", "y", "t", "u")),
                           growth_exponent=3.0, growth_constant=1.0)
    assert not growth_probe(quintic, 3.0, 1.0)


def test_custom_reaction_matches_catalog():
    cust = ReactionTerm("custom", expr=E("u*ln(1+u^2)", ("x", "y", "t", "u")),
                        growth_exponent=3.0, growth_constant=2.0)
    ref = reaction_log_poly()
    u = np.linspace(-5, 5, 41)
    np.testing.assert_allclose(cust.at_nodes(u * 0, None)(0.0, u),
                               ref.at_nodes(u * 0, None)(0.0, u), rtol=1e-12)
    np.testing.assert_allclose(cust.derivative(u * 0, None, 0.0, u),
                               ref.derivative(u * 0, None, 0.0, u), rtol=1e-5, atol=1e-7)


def test_reports_are_reproducible():
    sc = _robin_scenario(f="0.2*sin(t)*sin(pi*x)", d="0.1")
    traj = solve(sc)
    g = _gains_for(sc)
    r1 = check_iss(traj, sc, g)
    r2 = check_iss(traj, sc, g)
    assert r1.worst_margin == r2.worst_margin
    assert [d.margin for d in r1.details] == [d.margin for d in r2.details]


def test_default_tolerance_rule():
    g = grid_1d(101)
    tol = default_tolerance(2.0, g, 1e-3)
    assert tol == pytest.approx(1e-6 * 3.0 + 10 * (0.01 ** 2 + 1e-6), rel=1e-12)


# ---------------------------------------------------------------------------
# the report builder against the per-sample loops it replaced


def _reference_report(traj, observed, bounds, tols):
    """The deleted per-sample report loop: (verdict, worst margin, witness,
    samples, detail rows (t, observed, bound, margin, tol))."""
    details = []
    worst_i = 0
    worst = math.inf
    ok = True
    for i in range(len(observed)):
        margin = bounds[i] - observed[i]
        details.append((float(traj.times[i]), float(observed[i]),
                        float(bounds[i]), float(margin), float(tols[i])))
        if margin < -tols[i]:
            ok = False
        if margin < worst:
            worst = margin
            worst_i = i
    node = int(np.argmax(np.abs(traj.values[worst_i].ravel())))
    where = (*traj.grid.node_location(node), float(traj.times[worst_i]))
    return PASS if ok else FAIL, float(worst), where, len(observed), details


def _reference_cascade(spec, trajectories, tol=None):
    """The deleted margin/witness loop of ``verify_cascade`` (asserted bounds);
    its detail rows are (subsystem, form, t, observed, bound, margin, tol)."""
    times = trajectories[0].times
    mode = "cycle" if spec.topology in ("robin-cycle", "dirichlet-cycle") else "open"
    robin = spec.boundary_kind == ROBIN
    nodes, bnodes = node_coords(spec.grid), node_coords(spec.grid, boundary=True)
    if spec.topology == "robin-open":
        ext = data_running_sup(spec.scenarios[0].boundary.data, bnodes, times)
    elif spec.topology == "dirichlet-open":
        ext = data_running_sup(spec.scenarios[0].forcing, nodes, times)
    else:
        ext = np.zeros(times.size)
    # a Robin chain has no per-subsystem boundary tails
    d_runs = ([np.zeros(times.size)] * spec.k if robin else
              [data_running_sup(sc.boundary.data, bnodes, times) for sc in spec.scenarios])
    details = []
    worst = math.inf
    worst_where = None
    ok = True
    for j, tr in enumerate(trajectories, start=1):
        c_min_j = spec.scenarios[j - 1].bounds.c_min
        sups = tr.sup_space_per_sample()
        running = np.maximum.accumulate(sups)
        phi_j = spec.phis[j - 1] if mode == "open" else spec.phis[-1]
        for i, t in enumerate(times):
            t = float(t)
            dvs = [d[i] for d in (d_runs[:j] if mode == "open" else d_runs)]
            checks = [("spacetime", running[i], cascade_bound(
                j, phi_j, ext[i], dvs, spec.small_gain, 0.0, t, mode))]
            if c_min_j > 0:
                checks.append(("spatial", sups[i], cascade_bound(
                    j, phi_j, ext[i], dvs, spec.small_gain, c_min_j, t, mode)))
            for form, obs, bnd in checks:
                tl = tol if tol is not None else default_tolerance(bnd, spec.grid, spec.dt)
                margin = bnd - obs
                details.append((j, form, t, float(obs), float(bnd), float(margin), float(tl)))
                if margin < -tl:
                    ok = False
                if margin < worst:
                    worst = margin
                    node = int(np.argmax(np.abs(tr.values[i].ravel())))
                    worst_where = (*spec.grid.node_location(node), t)
    return PASS if ok else FAIL, float(worst), worst_where, len(details), details


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


def _assert_same_report(rep, ref, columns):
    verdict, worst, where, n, rows = ref
    assert rep.verdict == verdict
    assert _bits(rep.worst_margin) == _bits(worst)
    assert rep.worst_location == where
    assert rep.samples_checked == n == len(rep.details)
    assert rep.details.dtype.names == columns
    for k, name in enumerate(columns):
        ref_col = [row[k] for row in rows]
        if isinstance(ref_col[0], str):
            assert rep.details[name].tolist() == ref_col
        else:
            assert np.array_equal(_bits(rep.details[name]), _bits(ref_col)), name


def _iss_reference(traj, sc, g):
    observed = traj.sup_space_per_sample()
    f_sups = running_sup_forcing(sc, traj.times)
    d_sups = running_sup_boundary(sc, traj.times)
    bounds = np.array([iss_bound(t, observed[0], f_sups[i], d_sups[i], g)
                       for i, t in enumerate(traj.times)])
    tols = [default_tolerance(b, sc.grid, sc.dt) for b in bounds]
    return _reference_report(traj, observed, bounds, tols)


_COLUMNS = ("t", "observed", "bound", "margin", "tol")


def test_report_builder_matches_the_loop_on_an_iss_pass():
    sc = _robin_scenario(f="0.2*sin(t)*sin(pi*x)", d="0.1", T=0.5)
    traj = solve(sc)
    g = _gains_for(sc)
    rep = check_iss(traj, sc, g)
    assert rep.verdict == PASS
    _assert_same_report(rep, _iss_reference(traj, sc, g), _COLUMNS)


def test_report_builder_matches_the_loop_on_an_iss_fail():
    sc = _robin_scenario(f="2+0*x", u0="0", T=1.0)
    traj = solve(sc)
    g = _gains_for(sc)
    bad = GainSet(l_f=0.05 * g.l_f, l_d=g.l_d, decay_rate=g.decay_rate,
                  boundary_kind=g.boundary_kind)
    rep = check_iss(traj, sc, bad)
    assert rep.verdict == FAIL
    _assert_same_report(rep, _iss_reference(traj, sc, bad), _COLUMNS)


def test_report_builder_matches_the_cascade_loop():
    subs = [SubsystemSpec(Coefficients(E("1"), E("1"), E("2")), reaction_zero(), E(u0))
            for u0 in ("sin(pi*x)", "0.5*sin(pi*x)", "2*sin(pi*x)")]
    spec = build_cascade(subs, "robin-open", grid_1d(41), 2e-3, 0.3,
                         external_d=E("0.2*sin(t)"))
    trajs = simulate_cascade(spec)
    rep = verify_cascade(spec, trajs)
    assert rep.verdict == PASS
    ref = _reference_cascade(spec, trajs)
    # the loop interleaved the forms sample by sample; the builder lists
    # each (subsystem, form) part in turn, so the rows are compared in that order
    order = {"spacetime": 0, "spatial": 1}
    rows = sorted(ref[4], key=lambda row: (row[0], order[row[1]]))
    _assert_same_report(rep, (*ref[:4], rows), ("subsystem", "form", *_COLUMNS))
    # c > 0 everywhere: both forms are checked, and their margins tie at t = 0
    start = rep.details[rep.details.t == 0.0]
    assert start.form.tolist() == ["spacetime", "spatial"] * 3
    assert np.array_equal(start.margin[0::2], start.margin[1::2])


@pytest.mark.parametrize("topology", ["robin-cycle", "dirichlet-open", "dirichlet-cycle"])
def test_report_builder_matches_the_cascade_loop_on_each_topology(topology):
    # one cascade_bound call per part against one scalar call per sample,
    # with Dirichlet boundary tails and a spatial form on every subsystem
    a, m = ("10", "1") if topology.startswith("dirichlet") else ("1", "2")
    subs = [SubsystemSpec(Coefficients(E(a), E("1"), E(m)), reaction_zero(), E(u0))
            for u0 in ("sin(pi*x)", "0.5*sin(pi*x)", "-sin(2*pi*x)")]
    spec = build_cascade(subs, topology, grid_1d(31), 2e-3, 0.2,
                         external_f=E("0.4*sin(pi*x)*cos(t)"),
                         boundary_exprs=[E("0.05*sin(3*t)"), E("0"), E("0.02")])
    assert spec.bounds_asserted
    trajs = simulate_cascade(spec)
    rep = verify_cascade(spec, trajs)
    assert rep.verdict == PASS
    ref = _reference_cascade(spec, trajs)
    order = {"spacetime": 0, "spatial": 1}
    rows = sorted(ref[4], key=lambda row: (row[0], order[row[1]]))
    _assert_same_report(rep, (*ref[:4], rows), ("subsystem", "form", *_COLUMNS))


def test_report_builder_fails_a_nan_bound_the_loop_passed():
    sc = _robin_scenario(T=0.1)
    traj = solve(sc)
    observed = traj.sup_space_per_sample()
    bounds = observed + 1.0
    bounds[3] = math.nan
    tols = [default_tolerance(b, sc.grid, sc.dt) for b in bounds]
    assert _reference_report(traj, observed, bounds, tols)[0] == PASS
    rep = build_report("nan", [(traj.sample_sups(), observed, bounds)], None, sc.grid, sc.dt)
    assert rep.verdict == FAIL
    assert math.isnan(rep.worst_margin) and rep.worst_location[-1] == traj.times[3]
