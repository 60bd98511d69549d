"""Acceptance suite: every criterion at its stated tolerance.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see
them).  Expensive trajectory suites are built once in session fixtures
and shared; the pointwise-cap criterion consumes the trajectories
produced by the decay/ISS/RKES/backstepping/cascade criteria.
"""

import math
import time

import numpy as np
import pytest
from scipy.special import iv

from pdesup.backstepping import (
    inverse_kernel_series,
    kernel_bessel_oracle,
    kernel_series,
    target_forcing,
)
from pdesup.cascade import SubsystemSpec, build_cascade, simulate_cascade, verify_cascade
from pdesup.cli import main as cli_main
from pdesup.core import (
    DIRICHLET,
    ROBIN,
    Trajectory,
    grid_1d,
)
from pdesup.expressions import parse_expression
from pdesup.gains import (
    CoefficientBounds,
    GainSet,
    kernel_bound_constant,
    rkes_gains_dirichlet,
    rkes_gains_robin,
    sobolev_constants_1d,
)
from pdesup.harness import (
    FAIL,
    NOT_ASSERTED,
    PASS,
    check_decay,
    check_iss,
    check_rkes,
    default_tolerance,
)
from pdesup.solver import (
    BoundarySpec,
    Coefficients,
    convergence_order,
    data_rows,
    make_scenario,
    reaction_log_poly,
    reaction_odd_cubic,
    reaction_zero,
)

from helpers import (
    cascade_fields,
    closed_loop,
    data_sups,
    difference_sups,
    explicit_solution_preset,
    open_loop_preset,
    pair_data_sups,
    solve,
    transform,
)

E = parse_expression
C_S, C_P = sobolev_constants_1d()


def _line(num, name, ok, extra=""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num:02d} {name}: {status}" + (f" ({extra})" if extra else ""))
    return ok


def _under_pointwise_cap(traj, k0, rhs, tol=None) -> bool:
    """Both max w and max(-w), over every node and sample, within the cap
    k0 + rhs up to ``tol`` (by default the default tolerance of the cap)."""
    cap = k0 + rhs
    if tol is None:
        dt = float(traj.times[1] - traj.times[0]) if traj.n_samples > 1 else 0.0
        tol = default_tolerance(cap, traj.grid, dt)
    return cap - float(np.max(np.abs(traj.values))) >= -tol


# ---------------------------------------------------------------------------
# criterion 1: manufactured-solution convergence


def test_criterion_1_manufactured_convergence():
    t0 = time.monotonic()
    sc = explicit_solution_preset(k=1.0, n_x=26, dt=4e-3, horizon=2.0)
    res = convergence_order(sc, E("sin(t)*sin(x)"), refinements=4)
    fine = explicit_solution_preset(k=1.0, n_x=201, dt=1e-3, horizon=2.0)
    traj = solve(fine)
    X = fine.grid.x
    err = max(float(np.max(np.abs(traj.values[i] - np.sin(t) * np.sin(X))))
              for i, t in enumerate(traj.times))
    elapsed = time.monotonic() - t0
    ok = res.p_space >= 1.9 and res.p_time >= 1.9 and err <= 1e-4 and elapsed < 10.0
    assert _line(1, "manufactured convergence", ok,
                 f"p_space={res.p_space:.3f} p_time={res.p_time:.3f} "
                 f"sup_err={err:.2e} runtime={elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: constant reproduction through the gains command


GAINS_CONFIG = """
[domain]
kind = interval
x_lo = 0
x_hi = 1

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


def test_criterion_2_constant_reproduction(tmp_path):
    cfg = tmp_path / "gains.ini"
    cfg.write_text(GAINS_CONFIG, encoding="utf-8")
    out = tmp_path / "out"
    assert cli_main(["gains", "--config", str(cfg), "--out", str(out)]) == 0
    rows = {}
    for line in (out / "gains.csv").read_text().splitlines()[1:]:
        name, value, _ = line.split(",", 2)
        rows[name] = float(value)
    expected = {
        "c_p_1d": 2 / math.sqrt(math.pi),
        "c_s_1d": 1 / math.sqrt(2),
        "C": 2 * math.sqrt(2),
        "geometry_factor": 2 ** 1.5,
        "superlinear_gain": 36 * 2 ** 8.75,
    }
    worst = max(abs(rows[k] - v) / abs(v) for k, v in expected.items())
    ok = worst <= 1e-12
    assert _line(2, "constant reproduction", ok, f"worst rel err={worst:.2e}")


# ---------------------------------------------------------------------------
# criterion 3: kernel-bound series vs independent Bessel identity


def test_criterion_3_series_constant_oracle():
    m = kernel_bound_constant(1.0, 1.0)
    lam = 2.0
    oracle = lam * iv(0, 4 * math.sqrt(lam))
    rel = abs(m - oracle) / oracle
    ok = rel <= 1e-9 and abs(m - 98.4171) < 1e-3
    assert _line(3, "series constant oracle", ok, f"M={m:.6f} rel={rel:.2e}")


# ---------------------------------------------------------------------------
# criterion 4: kernel series vs Bessel oracle; transform roundtrip


def test_criterion_4_kernel_oracle_equivalence():
    t0 = time.monotonic()
    worst = 0.0
    for c, sig in [(1.0, 1.0), (10.0, 1.0), (15.0, 1.0)]:
        k = kernel_series(c, sig, grid_1d(101))
        diff = 0.0
        for i, x in enumerate(k.x):
            for j in range(i + 1):
                diff = max(diff, abs(k.values[i, j] - kernel_bessel_oracle(c, sig, x, k.x[j])))
        worst = max(worst, diff)
    g = grid_1d(201)
    kf = kernel_series(1.0, 1.0, g)
    li = inverse_kernel_series(1.0, 1.0, g)
    u = Trajectory(g, [0.0], (np.sin(np.pi * g.x) + 0.3 * g.x ** 2)[None])
    rt = np.max(np.abs(transform(transform(u, kf), li).values - u.values))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-8 and rt <= 1e-8 and elapsed < 30.0
    assert _line(4, "kernel oracle equivalence", ok,
                 f"max_diff={worst:.2e} roundtrip={rt:.2e} runtime={elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 5: randomized zero-input decay suite


def _random_reaction(rng):
    r = rng.random()
    if r < 0.34:
        return reaction_zero()
    if r < 0.67:
        return reaction_log_poly(round(rng.uniform(0.2, 2.0), 3))
    return reaction_odd_cubic(round(rng.uniform(0.2, 1.5), 3))


def _random_u0(rng, amp=1.0):
    terms = []
    for m in range(1, 4):
        b = rng.uniform(-amp, amp) / m
        terms.append(f"({b:.4f})*sin({m}*pi*x)")
    return "+".join(terms)


@pytest.fixture(scope="session")
def decay_suite():
    rng = np.random.default_rng(501)
    runs = []
    t0 = time.monotonic()
    for _ in range(20):
        c_lo = round(rng.uniform(0.5, 4.0), 3)
        c_amp = round(rng.uniform(0.0, 1.0), 3)
        kind = ROBIN if rng.random() < 0.5 else DIRICHLET
        m_val = round(rng.uniform(0.5, 3.0), 3)
        sc = make_scenario(
            grid_1d(81), 2.0, 2e-3,
            Coefficients(E(f"1+{round(rng.uniform(0, 1), 3)}*x*(1-x)"),
                         E(f"{c_lo}+{c_amp}*(1+sin(3*x))"),
                         E(f"{m_val}")),
            _random_reaction(rng), E("0"),
            BoundarySpec(kind, E("0")), E(_random_u0(rng)))
        traj = solve(sc)
        u0_sup = float(np.max(np.abs(sc.initial_values())))
        runs.append((sc, traj, u0_sup))
    return runs, time.monotonic() - t0


def test_criterion_5_decay_suite(decay_suite):
    runs, elapsed = decay_suite
    all_pass = True
    worst = math.inf
    for sc, traj, u0_sup in runs:
        rep = check_decay(traj.sample_sups(), sc.bounds.c_min, u0_sup)
        all_pass = all_pass and rep.verdict == PASS
        worst = min(worst, rep.worst_margin)
    ok = all_pass and elapsed < 120.0
    assert _line(5, "zero-input decay suite", ok,
                 f"20 scenarios, worst margin={worst:.2e}, runtime={elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 6: randomized ISS suites plus falsification fixtures


def _random_boundary_disturbance(rng):
    fam = rng.integers(0, 3)
    a = round(rng.uniform(0.02, 0.3), 4)
    if fam == 0:
        w = round(rng.uniform(0.5, 6.0), 3)
        ph = round(rng.uniform(0, 6.28), 3)
        return f"{a}*sin({w}*t+{ph})"
    if fam == 1:
        t0 = round(rng.uniform(0.1, 1.0), 3)
        return f"{a}*min(max((t-{t0})/0.01,0),1)"
    parts = [f"({round(rng.uniform(-a, a), 4)})*sin({round(rng.uniform(0.5, 9), 3)}*t"
             f"+{round(rng.uniform(0, 6.28), 3)})" for _ in range(4)]
    return "+".join(parts)


def _random_forcing(rng):
    fam = rng.integers(0, 3)
    a = round(rng.uniform(0.05, 0.4), 4)
    sx = f"sin({rng.integers(1, 4)}*pi*x)"
    if fam == 0:
        return f"{a}*{sx}*sin({round(rng.uniform(0.5, 5), 3)}*t)"
    if fam == 1:
        t0 = round(rng.uniform(0.1, 1.0), 3)
        return f"{a}*{sx}*min(max((t-{t0})/0.01,0),1)"
    parts = [f"({round(rng.uniform(-a, a), 4)})*sin({round(rng.uniform(0.5, 8), 3)}*t"
             f"+{round(rng.uniform(0, 6.28), 3)})" for _ in range(3)]
    return f"({'+'.join(parts)})*{sx}"


def _iss_scenario(rng, kind):
    c_lo = round(rng.uniform(0.4, 3.0), 3)
    return make_scenario(
        grid_1d(81), 1.5, 2e-3,
        Coefficients(E(f"1+{round(rng.uniform(0, 0.8), 3)}*sin(2*x)^2"),
                     E(f"{c_lo}+{round(rng.uniform(0, 0.8), 3)}*x"),
                     E(f"{round(rng.uniform(0.5, 3.0), 3)}")),
        _random_reaction(rng), E(_random_forcing(rng)),
        BoundarySpec(kind, E(_random_boundary_disturbance(rng))),
        E(_random_u0(rng)))


@pytest.fixture(scope="session")
def iss_suites():
    rng = np.random.default_rng(601)
    t0 = time.monotonic()
    suites = {ROBIN: [], DIRICHLET: []}
    for kind in (ROBIN, DIRICHLET):
        for _ in range(50):
            sc = _iss_scenario(rng, kind)
            traj = solve(sc)
            vol = sc.grid.domain.volume
            if kind == ROBIN:
                g = rkes_gains_robin(sc.bounds, vol, C_S)
            else:
                g = rkes_gains_dirichlet(sc.bounds, vol, C_S, C_P)
            suites[kind].append((sc, traj, g))
    return suites, time.monotonic() - t0


def test_criterion_6_iss_suites(iss_suites):
    suites, elapsed = iss_suites
    all_pass = True
    worst = math.inf
    for kind in (ROBIN, DIRICHLET):
        for sc, traj, g in suites[kind]:
            rep = check_iss(traj.sample_sups(), sc, g, *data_sups(sc, traj.times))
            all_pass = all_pass and rep.verdict == PASS
            worst = min(worst, rep.worst_margin)

    # falsification fixtures: every checker must fail when its bound is
    # deliberately undersized
    sc = make_scenario(grid_1d(81), 2.0, 2e-3,
                       Coefficients(E("1"), E("1"), E("1")), reaction_zero(),
                       E("2"), BoundarySpec(ROBIN, E("0")), E("0"))
    traj = solve(sc)
    g = rkes_gains_robin(sc.bounds, 1.0, C_S)
    bad = GainSet(l_f=g.l_f / 20, l_d=g.l_d, decay_rate=g.decay_rate, boundary_kind=ROBIN)
    iss_fails = check_iss(traj.sample_sups(), sc, bad, *data_sups(sc, traj.times)).verdict == FAIL
    twin = make_scenario(grid_1d(81), 2.0, 2e-3,
                         Coefficients(E("1"), E("1"), E("1")), reaction_zero(),
                         E("0"), BoundarySpec(ROBIN, E("0")), E("0"))
    twin_traj = solve(twin)
    rkes_fails = check_rkes(difference_sups(traj, twin_traj), (sc, twin), bad,
                            *pair_data_sups(sc, twin, traj.times)).verdict == FAIL
    dsc = make_scenario(grid_1d(81), 1.0, 2e-3,
                        Coefficients(E("1"), E("0.3"), E("1")), reaction_zero(),
                        E("0"), BoundarySpec(DIRICHLET, E("0")), E("sin(pi*x)"))
    dtraj = solve(dsc)
    # undersized initial sup: the bound is beaten at t = 0 already
    decay_fails = check_decay(dtraj.sample_sups(), dsc.bounds.c_min, 0.4).verdict == FAIL
    cap_fails = not _under_pointwise_cap(traj, 0.0, 0.0, tol=1e-9)

    fixtures_ok = iss_fails and rkes_fails and decay_fails and cap_fails
    ok = all_pass and fixtures_ok and elapsed < 600.0
    assert _line(6, "ISS suites + falsification", ok,
                 f"100 scenarios, worst margin={worst:.2e}, "
                 f"fixtures fail as required={fixtures_ok}, runtime={elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 7: the explicit RKES pair


@pytest.fixture(scope="session")
def rkes_explicit_pair():
    sc1 = explicit_solution_preset(k=1.0, n_x=201, dt=1e-3, horizon=2.0)
    sc3 = explicit_solution_preset(k=3.0, n_x=201, dt=1e-3, horizon=2.0)
    return (sc1, solve(sc1)), (sc3, solve(sc3))


def test_criterion_7_rkes_explicit_example(rkes_explicit_pair):
    (sc1, t1), (sc3, t3) = rkes_explicit_pair
    observed = float(np.max(np.abs(t3.values - t1.values)))
    expected = 2.0 * float(np.max(np.sin(t1.times)))  # node at x = pi/2 exists
    err = abs(observed - expected)
    cb = CoefficientBounds(1.0, 0.0, 1.0)
    g = rkes_gains_dirichlet(cb, sc1.grid.domain.volume, C_S, C_P)
    rep = check_rkes(difference_sups(t3, t1), (sc3, sc1), g, *pair_data_sups(sc3, sc1, t1.times))
    ok = err <= 1e-3 and rep.verdict == PASS
    assert _line(7, "explicit RKES pair", ok,
                 f"sup diff={observed:.6f} vs {expected:.6f} (err={err:.2e}), "
                 f"bound margin={rep.worst_margin:.3f}")


# ---------------------------------------------------------------------------
# criterion 8: backstepping closed loop


@pytest.fixture(scope="session")
def backstep_results():
    g = grid_1d(101)
    zero = E("0")
    t0 = time.monotonic()
    open_loop = solve(open_loop_preset(15.0, "sin(pi*x)", 101, 1e-3, 1.0))
    clean = closed_loop(15.0, 1.0, E("sin(pi*x)"), zero, zero, zero,
                        g, 1e-3, 2.0)
    disturbed = closed_loop(15.0, 1.0, E("sin(pi*x)"), zero,
                            E("0.1*sin(t)"), E("0.1*sin(t)"),
                            g, 1e-3, 2.0)
    return open_loop, clean, disturbed, time.monotonic() - t0


def test_criterion_8_backstepping(backstep_results):
    open_loop, clean, disturbed, elapsed = backstep_results
    sups = open_loop.sample_sups().sups
    growth = sups[-1] / sups[0]
    ok = (growth >= 20.0 and clean.report.verdict == disturbed.report.verdict == PASS
          and elapsed < 60.0)
    assert _line(8, "backstepping closed loop", ok,
                 f"open-loop growth={growth:.1f}x, clean={clean.report.verdict}, "
                 f"disturbed={disturbed.report.verdict}, runtime={elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 9: cascade suites


def _chain_subs(k, a="1", c="1", m="2", reaction=None):
    return [SubsystemSpec(Coefficients(E(a), E(c), E(m)),
                          reaction or reaction_zero(),
                          E(f"{round(0.4 + 0.3 * j, 2)}*sin(pi*x)"))
            for j in range(k)]


@pytest.fixture(scope="session")
def cascade_results():
    rng = np.random.default_rng(901)
    t0 = time.monotonic()
    results = {}

    def run(spec):
        """The spec, its subsystems' fields (for the pointwise caps) and the
        report on the records that ``cascade`` checks."""
        return spec, cascade_fields(spec), verify_cascade(spec, simulate_cascade(spec))

    robin_open = []
    for _ in range(10):
        spec = build_cascade(_chain_subs(3, m="2"), "robin-open", grid_1d(61),
                             2e-3, 0.8, external_d=E(_random_boundary_disturbance(rng)))
        robin_open.append(run(spec))
    results["robin-open"] = robin_open

    dir_open = []
    for _ in range(10):
        spec = build_cascade(_chain_subs(3, a="10", c="1"), "dirichlet-open",
                             grid_1d(61), 2e-3, 0.8,
                             external_f=E(_random_forcing(rng)),
                             boundary_exprs=[E(_random_boundary_disturbance(rng))
                                             for _ in range(3)])
        dir_open.append(run(spec))
    results["dirichlet-open"] = dir_open

    spec = build_cascade(_chain_subs(3, m="2"), "robin-cycle", grid_1d(61), 1e-3, 0.5)
    results["robin-cycle"] = [run(spec)]

    spec = build_cascade(_chain_subs(3, a="10", c="1"), "dirichlet-cycle",
                         grid_1d(61), 1e-3, 0.5,
                         boundary_exprs=[E("0.1*sin(t)"), E("0"), E("0.05*cos(2*t)")])
    results["dirichlet-cycle"] = [run(spec)]

    spec = build_cascade(_chain_subs(3, m="0.5"), "robin-cycle", grid_1d(41), 5e-4, 0.4)
    results["robin-cycle-small-gain-fail"] = [run(spec)]

    return results, time.monotonic() - t0


def test_criterion_9_cascades(cascade_results):
    results, elapsed = cascade_results
    open_ok = all(rep.verdict == PASS for _, _, rep in results["robin-open"]) and \
        all(rep.verdict == PASS for _, _, rep in results["dirichlet-open"])
    rc_spec, _, rc_rep = results["robin-cycle"][0]
    dc_spec, _, dc_rep = results["dirichlet-cycle"][0]
    cyc_ok = (rc_rep.verdict == PASS and rc_spec.small_gain == 2.0
              and dc_rep.verdict == PASS
              and abs(dc_spec.small_gain - 2.7769) < 2e-3)
    fail_spec, _, fail_rep = results["robin-cycle-small-gain-fail"][0]
    na_ok = (fail_rep.verdict == NOT_ASSERTED and not fail_spec.small_gain_ok
             and len(fail_rep.details) > 0
             and all(np.isfinite(d.observed) for d in fail_rep.details))
    ok = open_ok and cyc_ok and na_ok and elapsed < 300.0
    assert _line(9, "cascade suites", ok,
                 f"open chains={open_ok}, cycles={cyc_ok} "
                 f"(a0={dc_spec.small_gain:.4f}), "
                 f"not-asserted path={na_ok}, runtime={elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 10: pointwise sup cap over every stored trajectory


def test_criterion_10_level_set_everywhere(decay_suite, iss_suites,
                                           rkes_explicit_pair, backstep_results,
                                           cascade_results):
    checked = 0
    all_pass = True

    def run(traj, k0, rhs):
        nonlocal checked, all_pass
        checked += 1
        all_pass = all_pass and _under_pointwise_cap(traj, k0, rhs)

    for sc, traj, u0_sup in decay_suite[0]:
        run(traj, u0_sup, 0.0)

    from pdesup.harness import running_sup_boundary, running_sup_forcing
    for kind in (ROBIN, DIRICHLET):
        for sc, traj, g in iss_suites[0][kind]:
            u0_sup = float(np.max(np.abs(sc.initial_values())))
            f_sup = running_sup_forcing(sc, traj.times)[-1]
            d_sup = running_sup_boundary(sc, traj.times)[-1]
            run(traj, u0_sup + g.l_d * d_sup, g.l_f * f_sup)

    (sc1, t1), (sc3, t3) = rkes_explicit_pair
    d = Trajectory(t1.grid, t1.times, t3.values - t1.values)
    g = rkes_gains_dirichlet(CoefficientBounds(1.0, 0.0, 1.0),
                             sc1.grid.domain.volume, C_S, C_P)
    d_sup = 2.0 * float(np.max(np.sin(t1.times)))
    f_sup = 2.0 * math.sqrt(2.0)
    run(d, d_sup, g.l_f * f_sup)

    open_loop, clean, disturbed, _ = backstep_results
    m, sigma = kernel_bound_constant(15.0, 1.0), 1.0
    for res, d0 in ((clean, E("0")), (disturbed, E("0.1*sin(t)"))):
        u0_sup = res.u.sample_sups().sups[0]
        d_sup = 0.1 if res is disturbed else 0.0
        cap = (1 + m) * ((1 + m) * u0_sup + 2 * d_sup)
        run(res.u, cap, 0.0)
        # target trajectory: w_t = w_xx - sigma w + F with w = d0 at x = 0 and
        # w = d1 at x = 1, so the max principle caps |w| by its initial and
        # boundary sups plus sup |F| / sigma (f = 0 on both runs)
        grid, times = res.w.grid, res.w.times
        forcing = target_forcing(res.kernel, np.zeros((times.size, grid.n_x)),
                                 data_rows(d0, (grid.x[:1], None))(times))
        w0_sup = res.w.sample_sups().sups[0]
        run(res.w, w0_sup + d_sup, float(np.max(np.abs(forcing))) / sigma)

    # a family whose bounds are not asserted has no cap: only asserted ones are run
    for family in cascade_results[0].values():
        for spec, trajs, rep in family:
            if not spec.bounds_asserted:
                continue
            for j, tr in enumerate(trajs, start=1):
                caps = [d_.bound for d_ in rep.details
                        if d_.subsystem == j and d_.form == "spacetime"]
                run(tr, max(caps), 0.0)

    assert _line(10, "pointwise sup cap", all_pass, f"{checked} trajectories")
    assert all_pass
