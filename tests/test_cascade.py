import math

import numpy as np
import pytest

from pdesup.cascade import (
    SubsystemSpec,
    build_cascade,
    simulate_cascade,
    verify_cascade,
)
from pdesup.core import ROBIN, Trajectory, grid_1d, time_blocks
from pdesup.expressions import parse_expression
from pdesup.harness import NOT_ASSERTED, PASS
from pdesup.solver import (
    Coefficients,
    ConfigError,
    TimeStepper,
    _boundary_indices,
    _Operator,
    data_rows,
    node_coords,
    reaction_log_poly,
    reaction_odd_cubic,
    reaction_zero,
)

from helpers import step_terms

E = parse_expression


def _subs(k, a="1", c="1", m="2", u0s=None, reaction=None):
    u0s = u0s or ["sin(pi*x)"] * k
    return [SubsystemSpec(Coefficients(E(a), E(c), E(m)),
                          reaction or reaction_zero(), E(u0s[j]))
            for j in range(k)]


def test_build_robin_open():
    spec = build_cascade(_subs(3, u0s=["sin(pi*x)", "0.5*sin(pi*x)", "2*sin(pi*x)"]),
                         "robin-open", grid_1d(41), 2e-3, 0.5, external_d=E("0.5"))
    assert spec.small_gain == 2.0
    assert spec.phis == pytest.approx([1.0, 1.0, 2.0], abs=1e-9)
    assert spec.bounds_asserted


def test_build_dirichlet_cycle_preset():
    spec = build_cascade(_subs(3, a="10", c="1"), "dirichlet-cycle",
                         grid_1d(41), 2e-3, 0.5)
    assert spec.small_gain == pytest.approx(10 * math.pi / (4 * 2 ** 1.5), rel=1e-12)
    assert spec.small_gain_ok


def test_build_rejects_single_subsystem():
    with pytest.raises(ConfigError):
        build_cascade(_subs(1), "robin-open", grid_1d(41), 2e-3, 0.5, external_d=E("0"))


def test_build_requires_external_input():
    with pytest.raises(ConfigError):
        build_cascade(_subs(2), "robin-open", grid_1d(41), 2e-3, 0.5)


def test_zero_cascade_is_zero():
    spec = build_cascade(_subs(3, u0s=["0", "0", "0"]), "robin-open",
                         grid_1d(41), 2e-3, 0.2, external_d=E("0"))
    trajs = simulate_cascade(spec)
    assert all(np.all(tr.values == 0.0) for tr in trajs)
    spec_c = build_cascade(_subs(2, u0s=["0", "0"], a="10"), "dirichlet-cycle",
                           grid_1d(41), 2e-3, 0.1)
    trajs = simulate_cascade(spec_c)
    assert all(np.all(tr.values == 0.0) for tr in trajs)


def test_robin_open_chain_passes_bounds():
    spec = build_cascade(_subs(2, m="2"), "robin-open", grid_1d(61), 2e-3, 1.0,
                         external_d=E("0.5"))
    trajs = simulate_cascade(spec)
    rep = verify_cascade(spec, trajs)
    assert rep.verdict == PASS
    assert rep.worst_margin > -1e-9


def test_open_chain_causality():
    # downstream initial data cannot influence upstream subsystems
    base = _subs(3)
    spec1 = build_cascade(base, "robin-open", grid_1d(41), 2e-3, 0.3,
                          external_d=E("0.3*sin(t)"))
    tweaked = _subs(3, u0s=["sin(pi*x)", "sin(pi*x)", "0.1*sin(2*pi*x)"])
    spec2 = build_cascade(tweaked, "robin-open", grid_1d(41), 2e-3, 0.3,
                          external_d=E("0.3*sin(t)"))
    t1 = simulate_cascade(spec1)
    t2 = simulate_cascade(spec2)
    assert np.array_equal(t1[0].values, t2[0].values)
    assert np.array_equal(t1[1].values, t2[1].values)
    assert not np.array_equal(t1[2].values, t2[2].values)


def test_robin_cycle_consistency_and_bounds():
    spec = build_cascade(_subs(3, m="2"), "robin-cycle", grid_1d(41), 1e-3, 0.3)
    assert spec.small_gain_ok
    trajs = simulate_cascade(spec)
    rep = verify_cascade(spec, trajs)
    assert rep.verdict == PASS
    # cyclic consistency, each subsystem's step reproduced from its
    # neighbour's fields, is checked step by step in
    # test_cycle_blocks_reproduce_their_own_steps; spot check: each
    # trajectory is bounded by the cycle bound at t=0
    for tr in trajs:
        assert tr.sup_space_per_sample()[0] <= 2 * spec.phis[-1] + 1e-12


def test_dirichlet_open_chain_passes_bounds():
    spec = build_cascade(_subs(3, a="10", c="1"), "dirichlet-open",
                         grid_1d(61), 2e-3, 0.8,
                         external_f=E("0.4*sin(pi*x)*cos(t)"),
                         boundary_exprs=[E("0.1*sin(t)"), E("0"), E("0.05")])
    trajs = simulate_cascade(spec)
    rep = verify_cascade(spec, trajs)
    assert rep.verdict == PASS


def test_dirichlet_cycle_passes_bounds():
    spec = build_cascade(_subs(3, a="10", c="1"), "dirichlet-cycle",
                         grid_1d(61), 2e-3, 0.6,
                         boundary_exprs=[E("0.1*sin(t)"), E("0"), E("0.05*cos(t)")])
    trajs = simulate_cascade(spec)
    rep = verify_cascade(spec, trajs)
    assert rep.verdict == PASS


def test_cycle_small_gain_violation_not_asserted():
    spec = build_cascade(_subs(3, m="0.5"), "robin-cycle", grid_1d(41), 1e-3, 0.2)
    assert not spec.small_gain_ok
    trajs = simulate_cascade(spec)  # simulation still permitted
    rep = verify_cascade(spec, trajs)
    assert rep.verdict == NOT_ASSERTED
    assert "small-gain" in rep.notes
    # raw norms recorded for every subsystem and sample
    assert len(rep.details) == 3 * trajs[0].n_samples
    assert all(np.isfinite(d.observed) for d in rep.details)


def test_cycle_decay_with_zero_input():
    # zero external input and positive absorption: spatial sups decay at
    # least as fast as the cycle bound envelope
    spec = build_cascade(_subs(2, m="3", c="2"), "robin-cycle", grid_1d(41), 1e-3, 1.0)
    trajs = simulate_cascade(spec)
    coeff = spec.small_gain / (spec.small_gain - 1) * spec.phis[-1]
    for tr in trajs:
        sups = tr.sup_space_per_sample()
        envelope = coeff * np.exp(-2.0 * tr.times)
        assert np.all(sups <= envelope + 1e-6)


def test_reaction_chain_with_log_poly():
    spec = build_cascade(_subs(2, m="2", reaction=reaction_log_poly()),
                         "robin-open", grid_1d(41), 2e-3, 0.4,
                         external_d=E("0.2*sin(2*t)"))
    trajs = simulate_cascade(spec)
    rep = verify_cascade(spec, trajs)
    assert rep.verdict == PASS


def test_verify_rejects_mismatched_trajectories():
    spec = build_cascade(_subs(2), "robin-open", grid_1d(41), 2e-3, 0.2,
                         external_d=E("0"))
    trajs = simulate_cascade(spec)
    with pytest.raises(ValueError):
        verify_cascade(spec, trajs[:1])


def test_robin_open_chain_without_small_gain():
    # the open-chain bound needs no small-gain condition: m = 0.5 works too
    spec = build_cascade(_subs(3, m="0.5"), "robin-open", grid_1d(41), 1e-3, 0.3,
                         external_d=E("0.2*sin(t)"))
    assert spec.small_gain == 0.5
    trajs = simulate_cascade(spec)
    rep = verify_cascade(spec, trajs)
    assert rep.verdict == PASS


# ---------------------------------------------------------------------------
# cycles as one coupled system, against the Gauss-Seidel sweeps they replaced


def _gauss_seidel_cycle(spec, tol=1e-10, max_sweeps=30):
    """Per time step, sweep the subsystems in order (latest traces win)
    until no field moves by more than ``tol`` (reference for the stacked
    solve)."""
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
    own_rows = [data_rows(sc.forcing, nodes) if robin else data_rows(sc.boundary.data, bnodes)
                for sc in spec.scenarios]
    for sl in time_blocks(times.size, n_nodes):
        own = [rows(times[sl]) for rows in own_rows]
        for i in range(sl.start, sl.stop - 1):
            t0 = times[i]
            r = i - sl.start
            cand = state.copy()
            for _ in range(max_sweeps):
                prev_cand = cand.copy()
                for j in range(k):
                    src_old = state[j - 1] if j > 0 else state[k - 1]
                    src_new = cand[j - 1] if j > 0 else cand[k - 1]
                    pair = (own[j][r], own[j][r + 1])
                    if robin:
                        f_pair, b_pair = pair, (src_old[bindex], src_new[bindex])
                    else:
                        f_pair, b_pair = (src_old, src_new), pair
                    cand[j] = steppers[j].step_values(
                        state[j], t0, *step_terms(steppers[j], f_pair, b_pair))
                if float(np.max(np.abs(cand - prev_cand))) < tol:
                    break
            else:
                raise AssertionError(f"cycle sweeps did not converge at t={times[i + 1]:.6g}")
            state = cand
            out[:, i + 1] = state
    return [Trajectory(spec.grid, times, out[j].reshape(times.size, *spec.grid.shape))
            for j in range(k)]


def _cycle(topology, reactions):
    """A 3-subsystem cycle on 41 nodes, 100 steps, with varied coefficients."""
    robin = topology == "robin-cycle"
    diffusions = ["1", "1.3+0.2*x", "0.9"] if robin else ["10", "9+x", "11"]
    u0s = ["sin(pi*x)", "0.5*sin(2*pi*x)+0.2", "0.8*cos(pi*x)"]
    subs = [SubsystemSpec(Coefficients(E(a), E(c), E("2.2")), reaction, E(u0))
            for a, c, reaction, u0 in zip(diffusions, ["1", "0.8", "1.2"], reactions, u0s)]
    extra = {} if robin else {"boundary_exprs": [E("0.1*sin(t)"), E("0"), E("0.05*cos(t)")]}
    return build_cascade(subs, topology, grid_1d(41), 2e-3, 0.2, **extra)


@pytest.mark.parametrize("topology", ["robin-cycle", "dirichlet-cycle"])
def test_linear_cycle_matches_gauss_seidel(topology):
    spec = _cycle(topology, [reaction_zero()] * 3)
    for got, ref in zip(simulate_cascade(spec), _gauss_seidel_cycle(spec)):
        assert np.max(np.abs(got.values - ref.values)) <= 1e-12


def _tolerance_spy(stepper):
    """Record the Newton tolerance of every step ``stepper`` takes."""
    tols, measure = [], stepper._measure

    def spy(rhs):
        norm, tol = measure(rhs)
        tols.append(tol)
        return norm, tol

    stepper._measure = spy
    return tols


@pytest.mark.parametrize("topology", ["robin-cycle", "dirichlet-cycle"])
def test_cycle_blocks_reproduce_their_own_steps(topology):
    # every subsystem, stepped alone with its neighbour's stacked fields as
    # its coupled data, lands on the stacked result within its own tolerance
    spec = _cycle(topology, [reaction_log_poly(), reaction_odd_cubic(), reaction_zero()])
    trajs = simulate_cascade(spec)
    times, bindex = trajs[0].times, _boundary_indices(spec.grid)
    fields = [tr.values.reshape(times.size, -1) for tr in trajs]
    robin = topology == "robin-cycle"
    for j, sc in enumerate(spec.scenarios):
        st = TimeStepper(sc)
        tols = _tolerance_spy(st)
        own = (data_rows(sc.forcing, node_coords(spec.grid)) if robin else
               data_rows(sc.boundary.data, node_coords(spec.grid, boundary=True)))(times)
        up = fields[j - 1][:, bindex] if robin else fields[j - 1]
        for i in range(times.size - 1):
            own_pair, up_pair = (own[i], own[i + 1]), (up[i], up[i + 1])
            f_pair, b_pair = (own_pair, up_pair) if robin else (up_pair, own_pair)
            v = st.step_values(fields[j][i], times[i], *step_terms(st, f_pair, b_pair))
            assert np.max(np.abs(v - fields[j][i + 1])) <= tols[-1], (j, i)


@pytest.mark.parametrize("k", [2, 3])
def test_robin_cycle_assembles_each_operator_once(monkeypatch, k):
    # the cycle's coupling reads g_bd off the operators the stepper assembles
    built, real = [], _Operator.__init__

    def counting(self, grid, coeffs, kind):
        built.append(kind)
        real(self, grid, coeffs, kind)

    monkeypatch.setattr(_Operator, "__init__", counting)
    spec = build_cascade(_subs(k, m="2"), "robin-cycle", grid_1d(21), 1e-2, 0.05)
    simulate_cascade(spec)
    assert built == [ROBIN] * k
