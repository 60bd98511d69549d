import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import iv, jv

from pdesup.backstepping import (
    inverse_kernel_bessel_oracle,
    inverse_kernel_series,
    kernel_bessel_oracle,
    kernel_series,
    simulate_closed_loop,
    target_residual,
    transform_trajectory,
    volterra_weights,
)
from pdesup.core import DIRICHLET, Trajectory, grid_1d, grid_2d, time_blocks
from pdesup.expressions import parse_expression
from pdesup.gains import closed_loop_forcing_gain, closed_loop_iss_bound, kernel_bound_constant
from pdesup.harness import PASS, data_running_sup
from pdesup.solver import (
    BoundarySpec,
    Coefficients,
    TimeStepper,
    data_rows,
    make_scenario,
    node_coords,
    reaction_zero,
    solve,
)

from helpers import open_loop_preset, step_terms

E = parse_expression


def test_oracle_against_scipy_bessel():
    for c, sig in [(1.0, 1.0), (10.0, 1.0), (15.0, 1.0)]:
        lam = c + sig
        for (x, y) in [(1.0, 0.5), (0.9, 0.2), (0.3, 0.1), (0.75, 0.74)]:
            z = math.sqrt(lam * (x * x - y * y))
            ref = lam * y * (iv(1, z) / z)
            assert kernel_bessel_oracle(c, sig, x, y) == pytest.approx(ref, rel=1e-12)
            zr = -lam * y * (jv(1, z) / z)
            assert inverse_kernel_bessel_oracle(c, sig, x, y) == pytest.approx(zr, rel=1e-12)


def test_oracle_edge_and_diagonal():
    for c, sig in [(1.0, 1.0), (3.0, 0.5)]:
        lam = c + sig
        for x in (0.2, 0.7, 1.0):
            assert kernel_bessel_oracle(c, sig, x, 0.0) == 0.0
            assert kernel_bessel_oracle(c, sig, x, x) == pytest.approx(lam * x / 2, rel=1e-14)
            assert inverse_kernel_bessel_oracle(c, sig, x, x) == pytest.approx(-lam * x / 2, rel=1e-14)


def test_oracle_pinned_value():
    # frozen from an independent scipy.special evaluation
    assert kernel_bessel_oracle(1.0, 1.0, 1.0, 0.5) == pytest.approx(0.5997959569973853, rel=1e-13)


def test_oracle_domain_check():
    with pytest.raises(ValueError):
        kernel_bessel_oracle(1.0, 1.0, 0.5, 0.7)


@pytest.mark.parametrize("c,sigma", [(1.0, 1.0), (10.0, 1.0), (15.0, 1.0)])
def test_series_matches_oracle(c, sigma):
    k = kernel_series(c, sigma, grid_1d(101))
    X, Y = np.meshgrid(k.x, k.x, indexing="ij")
    mask = Y <= X
    worst = 0.0
    oracle = np.empty_like(k.values)
    lam = c + sigma
    from pdesup.backstepping import _bessel_ratio
    s = lam * (X * X - Y * Y)
    oracle = lam * Y * np.vectorize(_bessel_ratio)(s)
    worst = np.max(np.abs((k.values - oracle)[mask]))
    assert worst <= 1e-8


def test_series_edge_zero_and_bound():
    k = kernel_series(1.0, 1.0, grid_1d(51))
    assert np.max(np.abs(k.values[:, 0])) < 1e-12
    assert k.triangle_max_abs() <= kernel_bound_constant(1.0, 1.0) + 1e-12
    assert k.terms_used < 30


def test_inverse_series_diagonal():
    li = inverse_kernel_series(1.0, 1.0, grid_1d(51))
    lam = 2.0
    diag = np.diagonal(li.values)
    assert np.max(np.abs(diag - (-lam * li.x / 2))) < 1e-10


def test_series_needs_minimum_grid():
    # the kernel grid is the coarsest refinement of the field grid with
    # at least 201 nodes per edge, so a coarse field still gets 201+
    for n_x, n_k in [(3, 201), (41, 201), (81, 241), (101, 201), (151, 301), (201, 201),
                     (401, 401)]:
        k = kernel_series(1.0, 1.0, grid_1d(n_x))
        assert k.x.size == n_k
        assert np.allclose(k.x[:: k.stride], np.linspace(0.0, 1.0, n_x), rtol=0, atol=1e-15)


def _state(grid, values) -> Trajectory:
    """One state as a trajectory of the single sample t = 0."""
    return Trajectory(grid, [0.0], np.asarray(values, dtype=float)[None])


def test_transform_zero_field():
    g = grid_1d(101)
    k = kernel_series(1.0, 1.0, g)
    assert np.all(transform_trajectory(_state(g, np.zeros(101)), k).values == 0.0)


def test_transform_roundtrip():
    g = grid_1d(201)
    k = kernel_series(1.0, 1.0, g)
    li = inverse_kernel_series(1.0, 1.0, g)
    u = _state(g, np.sin(np.pi * g.x) + 0.3 * g.x ** 2)
    back = transform_trajectory(transform_trajectory(u, k), li)
    assert np.max(np.abs(back.values - u.values)) <= 1e-8


def test_transform_sup_inflation():
    g = grid_1d(101)
    k = kernel_series(1.0, 1.0, g)
    m = kernel_bound_constant(1.0, 1.0)
    rng = np.random.default_rng(3)
    for _ in range(5):
        coefs = rng.normal(size=4)
        vals = sum(c_ * np.sin((j + 1) * np.pi * g.x) for j, c_ in enumerate(coefs))
        u = _state(g, vals)
        w = transform_trajectory(u, k)
        assert w.sample_sups().sups[0] <= (1 + m) * u.sample_sups().sups[0] + 1e-9


def test_transform_resolution_mismatch():
    g = grid_1d(301)
    k = kernel_series(1.0, 1.0, grid_1d(101))
    with pytest.raises(ValueError):
        transform_trajectory(_state(g, np.zeros(301)), k)


def test_transform_wrong_domain():
    g = grid_1d(101, 0, 2.0)
    k = kernel_series(1.0, 1.0, grid_1d(101))
    with pytest.raises(ValueError):
        transform_trajectory(_state(g, np.zeros(101)), k)
    for grid in (g, grid_1d(101, -1.0, 1.0), grid_2d(11, 11)):
        with pytest.raises(ValueError, match="unit interval"):
            kernel_series(1.0, 1.0, grid)


def test_control_signal_zero_and_linearity():
    g = grid_1d(101)
    k = kernel_series(1.0, 1.0, g)
    assert k.control(np.zeros(101)) == 0.0
    rng = np.random.default_rng(7)
    a = rng.normal(size=101)
    b = rng.normal(size=101)
    assert k.control(2 * a + 3 * b) == pytest.approx(
        2 * k.control(a) + 3 * k.control(b), rel=1e-12, abs=1e-12)


def test_control_signal_constant_field_pinned():
    # -int_0^1 k(1,y) dy for c = sigma = 1, pinned from adaptive quadrature
    g = grid_1d(201)
    k = kernel_series(1.0, 1.0, g)
    assert k.control(np.ones(201)) == pytest.approx(-0.5660829297563506, abs=1e-9)


def test_control_signal_against_oracle_quadrature():
    for c, sig in [(1.0, 1.0), (5.0, 1.0)]:
        g = grid_1d(201)
        k = kernel_series(c, sig, g)
        val, err = quad(lambda y: kernel_bessel_oracle(c, sig, 1.0, y), 0, 1,
                        epsabs=1e-13, epsrel=1e-13)
        assert k.control(np.ones(201)) == pytest.approx(-val, abs=1e-9)


def test_volterra_weights_sum():
    for m in (2, 3, 4, 5, 9, 50):
        w = volterra_weights(m, 0.1)
        assert w.sum() == pytest.approx(0.1 * (m - 1), rel=1e-14)


@pytest.mark.parametrize("call", [
    lambda: kernel_bound_constant(math.nan, 1.0),
    lambda: kernel_bound_constant(1.0, math.nan),
    lambda: kernel_bound_constant(-2.0, 1.0),
    lambda: closed_loop_forcing_gain(math.nan),
    lambda: closed_loop_forcing_gain(0.0),
    lambda: closed_loop_iss_bound(0.0, 1.0, 0.0, 0.0, 0.0, math.nan, 1.0),
    lambda: closed_loop_iss_bound(0.0, 1.0, 0.0, 0.0, 0.0, 1.0, math.nan),
    lambda: simulate_closed_loop(math.nan, 1.0, E("0"), E("0"), E("0"), E("0"), grid_1d(11), 0.1, 0.1),
    lambda: simulate_closed_loop(1.0, math.nan, E("0"), E("0"), E("0"), E("0"), grid_1d(11), 0.1, 0.1),
    lambda: simulate_closed_loop(1.0, 0.0, E("0"), E("0"), E("0"), E("0"), grid_1d(11), 0.1, 0.1),
], ids=["bound-c-nan", "bound-sigma-nan", "bound-lam-negative", "gain-c-nan", "gain-c-zero",
        "envelope-c-nan", "envelope-sigma-nan", "loop-c-nan", "loop-sigma-nan", "loop-sigma-zero"])
def test_nan_or_nonpositive_closed_loop_parameters_raise(call):
    with pytest.raises(ValueError, match="must be positive"):
        call()


def test_closed_loop_zero_data():
    g = grid_1d(51)
    res = simulate_closed_loop(2.0, 1.0, E("0"), E("0"), E("0"), E("0"), g,
                               1e-3, 0.05)
    assert np.all(res.u.values == 0.0)
    assert np.all(res.w.values == 0.0)
    assert res.report.verdict == PASS


def test_closed_loop_stabilizes_and_open_loop_grows():
    g = grid_1d(101)
    zero = E("0")
    open_loop = solve(open_loop_preset(15.0, "sin(pi*x)", 101, 1e-3, 1.0))
    growth = open_loop.sample_sups().sups[-1]
    assert growth >= 20.0
    closed = simulate_closed_loop(15.0, 1.0, E("sin(pi*x)"), zero, zero, zero,
                                  g, 1e-3, 2.0)
    assert closed.report.verdict == PASS
    m = kernel_bound_constant(15.0, 1.0)
    assert closed.u.sample_sups().sups[-1] <= (1 + m) ** 2 * math.exp(-2.0)
    # the feedback actually decays the state
    assert closed.u.sample_sups().sups[-1] < 1e-3


def test_closed_loop_with_disturbances_passes_bound():
    g = grid_1d(101)
    res = simulate_closed_loop(15.0, 1.0, E("sin(pi*x)"), E("0"),
                               E("0.1*sin(t)"), E("0.1*sin(t)"), g, 1e-3, 1.0)
    assert res.report.verdict == PASS


def test_closed_loop_bound_reads_f_off_the_rows_it_steps():
    # the f running sup comes from the rows the loop steps; on 101 nodes a time
    # block holds 648 rows, so 800 steps put f in two blocks.  The shipped
    # configs/backstep.ini has f = 0, so its golden files cannot see this route
    g, f = grid_1d(101), E("0.5*x*t+0.2*sin(2*pi*x)*cos(5*t)")
    d0, d1 = E("0.05*sin(t)"), E("0.02*cos(3*t)")
    res = simulate_closed_loop(4.0, 1.0, E("sin(pi*x)"), f, d0, d1, g, 1e-3, 0.8)
    times = res.u.times
    blocks = time_blocks(times.size, g.n_nodes)
    assert len(blocks) == 2
    f_sups = data_running_sup(f, node_coords(g), times)
    assert f_sups[-1] > f_sups[blocks[1].start]  # the second block raises it
    d0_run, d1_run = (np.maximum.accumulate(np.abs(data_rows(d, (x, None))(times)[:, 0]))
                      for d, x in ((d0, g.x[:1]), (d1, g.x[-1:])))
    bound = closed_loop_iss_bound(times, res.u.sample_sups().sups[0], f_sups, d0_run, d1_run,
                                  4.0, 1.0)
    assert res.report.details.bound.tobytes() == bound.tobytes()


def test_target_system_residual_compatible_data():
    # u0 = 0 keeps the closed-loop boundary data compatible at t = 0
    g = grid_1d(201)
    res = simulate_closed_loop(3.0, 1.0, E("0"), E("0.2*sin(2*pi*x)*cos(t)"),
                               E("0.1*sin(t)"), E("0.1*sin(t)"), g, 1e-3, 0.5)
    h = g.h_x
    r = target_residual(res, 3.0, 1.0, E("0.2*sin(2*pi*x)*cos(t)"), E("0.1*sin(t)"))
    assert r <= 25 * (h ** 2 + 1e-6)


def test_target_system_residual_after_burn_in():
    g = grid_1d(201)
    res = simulate_closed_loop(3.0, 1.0, E("sin(pi*x)"), E("0"), E("0"), E("0"),
                               g, 1e-3, 0.5)
    h = g.h_x
    r = target_residual(res, 3.0, 1.0, E("0"), E("0"), t_start=0.1)
    assert r <= 25 * (h ** 2 + 1e-6)


def test_w_boundary_values_match_disturbances():
    # after the transform the right boundary must read exactly d1
    g = grid_1d(101)
    res = simulate_closed_loop(5.0, 1.0, E("0"), E("0"), E("0.05*sin(2*t)"),
                               E("0.02*cos(t)-0.02"), g, 1e-3, 0.3)
    times = res.w.times[1:]
    d1v = 0.02 * np.cos(times) - 0.02
    assert np.max(np.abs(res.w.values[1:, -1] - d1v)) < 1e-14
    d0v = 0.05 * np.sin(2 * times)
    assert np.max(np.abs(res.w.values[1:, 0] - d0v)) < 1e-12


def _swept_closed_loop(c, sigma, u0, f, d0, d1, grid, dt, horizon):
    """The closed loop by fixed-point control sweeps: each step is repeated
    with the latest control at x = 1 until |dU| <= 1e-13 (1 + |U|)
    (reference for the exact loop step)."""
    kernel = kernel_series(c, sigma, grid)
    sc = make_scenario(grid, horizon, dt, Coefficients(E("1"), E(repr(-float(c)))),
                       reaction_zero(), f, BoundarySpec(DIRICHLET, E("0")), u0)
    stepper = TimeStepper(sc)
    times = sc.times()
    f_vals = data_rows(f, node_coords(grid))(times)
    d_vals = np.hstack([data_rows(d, (grid.x[i:i + 1], None))(times) for d, i in ((d0, 0), (d1, -1))])
    u = sc.initial_values().astype(float)
    out, controls = [u], [kernel.control(u)]
    for i in range(times.size - 1):
        U = controls[-1]
        for _ in range(200):
            b1 = d_vals[i + 1] + [0.0, U]
            cand = stepper.step_values(u, times[i], *step_terms(stepper, f_vals[i:i + 2], (b1, b1)))
            U_new = kernel.control(cand)
            done = abs(U_new - U) <= 1e-13 * (1.0 + abs(U))
            U = U_new
            if done:
                break
        else:
            raise AssertionError(f"control sweeps did not converge at t={times[i + 1]}")
        u = cand
        out.append(u)
        controls.append(U)
    return np.array(out), np.array(controls)


def test_exact_loop_step_matches_converged_sweeps():
    # the settings of configs/backstep.ini
    g = grid_1d(101)
    args = (15.0, 1.0, E("sin(pi*x)"), E("0"), E("0.1*sin(t)"), E("0.1*sin(t)"), g, 1e-3, 2.0)
    res = simulate_closed_loop(*args)
    ref_u, ref_controls = _swept_closed_loop(*args)
    assert np.max(np.abs(res.u.values - ref_u)) <= 1e-12
    assert np.max(np.abs(res.controls - ref_controls)) <= 1e-12


def test_closed_loop_holds_boundary_feedback_exactly():
    # u(1, t) = d1(t) + U(t) at every stored sample after the initial one
    g = grid_1d(101)
    res = simulate_closed_loop(15.0, 1.0, E("sin(pi*x)"), E("0"), E("0.1*sin(t)"),
                               E("0.1*sin(t)"), g, 1e-3, 0.2)
    times = res.u.times
    assert np.array_equal(res.u.values[1:, -1], 0.1 * np.sin(times[1:]) + res.controls[1:])
    assert np.array_equal(res.u.values[1:, 0], 0.1 * np.sin(times[1:]))


def test_closed_loop_makes_one_stepper_call(monkeypatch):
    # the steps go through the stepper's linear block, which applies the
    # feedback after each one: the one step_values call is the unit response
    real, calls = TimeStepper.step_values, []

    def counting(self, *args, **kwargs):
        calls.append(args[1])
        return real(self, *args, **kwargs)

    monkeypatch.setattr(TimeStepper, "step_values", counting)
    res = simulate_closed_loop(5.0, 1.0, E("sin(pi*x)"), E("0"), E("0"), E("0.1*sin(t)"),
                               grid_1d(41), 1e-2, 0.3)
    n_steps = res.u.n_samples - 1
    assert n_steps == 30
    assert calls == [0.0]


@pytest.mark.parametrize("n_x", [81, 151, 401])
def test_kernel_matches_oracle_on_every_field_grid(n_x):
    # every field node is a kernel node, whether or not n_x - 1 divides 200
    g = grid_1d(n_x)
    kmat = kernel_series(15.0, 1.0, g).field_values
    from pdesup.backstepping import _bessel_ratio
    lam = 16.0
    X, Y = np.meshgrid(g.x, g.x, indexing="ij")
    oracle = lam * Y * np.vectorize(_bessel_ratio)(lam * (X * X - Y * Y))
    assert np.max(np.abs(kmat - oracle)[Y <= X]) <= 1e-12


def test_target_residual_does_not_depend_on_the_field_grid():
    # the settings of configs/backstep.ini over T = 0.5: a grid whose
    # n_x - 1 does not divide 200, or a field finer than 201 nodes, keeps
    # the target-system residual of the 101-node grid
    f, d = E("0"), E("0.1*sin(t)")
    residual = {}
    for n_x in (101, 81, 401):
        res = simulate_closed_loop(15.0, 1.0, E("sin(pi*x)"), f, d, d, grid_1d(n_x), 1e-3, 0.5)
        residual[n_x] = target_residual(res, 15.0, 1.0, f, d, t_start=0.01)
    assert residual[81] <= 2 * residual[101]
    assert residual[401] <= 2 * residual[101]


def test_bound_hierarchy_u_vs_transformed():
    # at every sample the plant sup is within (1+M) of the target sup
    g = grid_1d(101)
    res = simulate_closed_loop(5.0, 1.0, E("sin(pi*x)"), E("0.1*sin(pi*x)*cos(t)"),
                               E("0.05*sin(t)"), E("0"), g, 1e-3, 0.5)
    m = kernel_bound_constant(5.0, 1.0)
    su = res.u.sample_sups().sups
    sw = res.w.sample_sups().sups
    assert np.all(su <= (1 + m) * sw + 1e-9)


def _dense_series_values(lam, n_k, tol):
    """The kernel series with every term as a dense coefficient matrix and
    a full-grid ``polyval2d`` per term (reference for the homogeneous sweep)."""
    from numpy.polynomial import polynomial as npoly
    x = np.linspace(0.0, 1.0, n_k)
    X, Y = np.meshgrid(x, x, indexing="ij")
    xi, eta = X + Y, X - Y
    term = np.zeros((2, 2))
    term[1, 0] = lam / 4.0
    term[0, 1] = -lam / 4.0
    total = npoly.polyval2d(xi, eta, term)
    n_terms = 1
    while True:
        nxt = np.zeros((term.shape[0] + 1, term.shape[0] + term.shape[1] + 1))
        for a in range(term.shape[0]):
            for b in np.nonzero(term[a])[0]:
                w = (lam / 4.0) * term[a, b] / ((a + 1) * (b + 1))
                nxt[a + 1, b + 1] += w
                nxt[0, a + b + 2] -= w
        term = nxt
        vals = npoly.polyval2d(xi, eta, term)
        total = total + vals
        n_terms += 1
        if float(np.max(np.abs(vals))) < tol:
            return total, n_terms


@pytest.mark.parametrize("lam", [16.0, -16.0, 4.0, -4.0, 2.0, -2.0, 0.5])
def test_series_matches_dense_polyval_reference(lam):
    ref, ref_terms = _dense_series_values(lam, 201, 1e-12)
    # c + sigma = lam, and the inverse kernel's -(c + sigma) = lam
    g = grid_1d(101)
    k = kernel_series(lam, 0.0, g) if lam > 0 else inverse_kernel_series(-lam, 0.0, g)
    assert k.terms_used == ref_terms
    assert np.max(np.abs(k.values - ref)) <= 1e-15 * np.max(np.abs(ref))


def _volterra_loop(kmat, u, h):
    """Row-by-row Volterra quadrature (reference for the quadrature matrix)."""
    from pdesup.backstepping import _ROW1
    n = u.shape[-1]
    out = np.zeros_like(u)
    out[..., 1] = (u[..., :3] * (kmat[1, :3] * _ROW1 * h)).sum(axis=-1)
    for i in range(2, n):
        wts = volterra_weights(i + 1, h)
        out[..., i] = (u[..., : i + 1] * (kmat[i, : i + 1] * wts)).sum(axis=-1)
    return out


@pytest.mark.parametrize("n_x", [3, 4, 101, 151, 201])
def test_volterra_matrix_matches_row_loop(n_x):
    g = grid_1d(n_x)
    k = kernel_series(15.0, 1.0, g)
    u = np.random.default_rng(n_x).normal(size=(7, n_x))
    ref = _volterra_loop(k.field_values, u, g.h_x)
    got = transform_trajectory(Trajectory(g, np.arange(7.0), u), k).values - u
    assert np.max(np.abs(got - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))
    # one row at a time agrees with the stack
    one = transform_trajectory(_state(g, u[3]), k).values[0] - u[3]
    assert np.max(np.abs(one - ref[3])) <= 1e-13 * max(1.0, np.max(np.abs(ref)))


def test_transforms_refuse_a_grid_the_kernel_was_not_built_for():
    g = grid_1d(51)
    k = kernel_series(1.0, 1.0, g)
    # same node count with other ends, another node count, another interval
    for other in (grid_1d(51, 0.0, 0.5), grid_1d(101), grid_1d(51, 0.0, 2.0)):
        with pytest.raises(ValueError, match="kernel was built for 51 nodes"):
            transform_trajectory(_state(other, np.ones(other.n_x)), k)
    # on its own grid the quadrature integrates with that grid's step
    u = np.ones(51)
    ref = _volterra_loop(k.field_values, u, g.h_x)
    assert np.max(np.abs(transform_trajectory(_state(g, u), k).values[0] - u - ref)) <= 1e-13


def test_kernel_builds_its_quadrature_once(monkeypatch):
    # the quadrature matrix and the feedback weights come with the kernel:
    # transforms and controls afterwards compute no weights
    import pdesup.backstepping as bs
    g = grid_1d(41)
    k = kernel_series(5.0, 1.0, g)
    calls = []
    real = bs.volterra_weights
    monkeypatch.setattr(bs, "volterra_weights", lambda *a: calls.append(a) or real(*a))
    u = _state(g, np.sin(np.pi * g.x))
    first, second = transform_trajectory(u, k), transform_trajectory(u, k)
    assert np.array_equal(first.values, second.values)
    k.control(u.values[0])
    assert calls == []


@pytest.mark.parametrize("build", [kernel_series, inverse_kernel_series])
@pytest.mark.parametrize("c", [math.nan, -1.0, -2.0])
def test_series_refuses_nan_or_nonpositive_c_plus_sigma(build, c):
    # refused before any term is summed, as the kernel bound refuses it
    with pytest.raises(ValueError, match=r"c \+ sigma must be positive"):
        build(c, 1.0, grid_1d(11))
