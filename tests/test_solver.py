import math
import tracemalloc
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import solve_banded as scipy_solve_banded
from scipy.sparse.linalg import splu

import pdesup.solver as solver_mod
from pdesup.cascade import SubsystemSpec, build_cascade
from pdesup.core import (DIRICHLET, ROBIN, Trajectory, grid_1d, grid_2d,
                         time_blocks)
from pdesup.expressions import parse_expression
from pdesup.solver import (
    BoundarySpec,
    Coefficients,
    ConfigError,
    ReactionTerm,
    TimeStepper,
    convergence_order,
    data_rows,
    make_scenario,
    node_coords,
    reaction_log_poly,
    reaction_odd_cubic,
    reaction_zero,
)

from helpers import (
    explicit_solution_preset,
    heat_preset,
    solve,
    step,
    step_terms,
    superlinear_preset,
    trajectories,
)

E = parse_expression
XYTU = ("x", "y", "t", "u")


def _scenario_1d(a="1", c="1", m="1", reaction=None, f="0", kind=DIRICHLET,
                 d="0", u0="sin(pi*x)", n_x=101, dt=1e-3, T=0.1, x_hi=1.0):
    return make_scenario(
        grid_1d(n_x, 0.0, x_hi), T, dt,
        Coefficients(E(a), E(c), E(m)),
        reaction or reaction_zero(), E(f),
        BoundarySpec(kind, E(d)), E(u0))


def test_assemble_heat_preset():
    sc = heat_preset()
    assert sc.bounds.a_min == 1.0
    assert sc.bounds.c_min == 1.0
    assert sc.n_steps == 1000


def test_assemble_rejects_negative_m():
    with pytest.raises(ConfigError):
        _scenario_1d(m="-1", kind=ROBIN)


@pytest.mark.parametrize("c0", [0.0, -1.0, math.nan])
def test_reaction_refuses_a_growth_constant_that_is_not_positive(c0):
    with pytest.raises(ConfigError, match="growth constant"):
        ReactionTerm("custom", expr=E("u", XYTU), growth_constant=c0)


def test_assemble_rejects_nonpositive_a():
    with pytest.raises(ConfigError, match="coefficient a"):
        _scenario_1d(a="x-1")  # vanishes at the right endpoint


def _reference_sampled_minima(coeffs, grid):
    """The previous two-branch sampler: the reference the one-pass sampler
    must reproduce bitwise wherever every sample is finite."""
    n = 10 * (grid.n_x - 1) + 1
    xs = np.linspace(grid.domain.x_lo, grid.domain.x_hi, n)
    if grid.dim == 1:
        env = {"x": xs}
        a_min = float(np.min(coeffs.a(**env) * np.ones_like(xs)))
        c_min = float(np.min(coeffs.c(**env) * np.ones_like(xs)))
        m_min = None
        if coeffs.m is not None:
            mb = coeffs.m(x=np.array([grid.domain.x_lo, grid.domain.x_hi]))
            m_min = float(np.min(np.asarray(mb) * np.ones(2)))
    else:
        ny = 10 * (grid.n_y - 1) + 1
        ys = np.linspace(grid.domain.y_lo, grid.domain.y_hi, ny)
        X, Y = np.meshgrid(xs, ys)
        env = {"x": X, "y": Y}
        a_min = float(np.min(coeffs.a(**env) * np.ones_like(X)))
        c_min = float(np.min(coeffs.c(**env) * np.ones_like(X)))
        m_min = None
        if coeffs.m is not None:
            bx = np.concatenate([xs, xs, np.full(ny, xs[0]), np.full(ny, xs[-1])])
            by = np.concatenate([np.full(n, ys[0]), np.full(n, ys[-1]), ys, ys])
            m_min = float(np.min(np.asarray(coeffs.m(x=bx, y=by)) * np.ones_like(bx)))
    if coeffs.declared_a_min is not None:
        a_min = coeffs.declared_a_min
    if coeffs.declared_c_min is not None:
        c_min = coeffs.declared_c_min
    if coeffs.declared_m_min is not None:
        m_min = coeffs.declared_m_min
    return a_min, c_min, m_min


MINIMA_CASES = {
    "1d-constant": (grid_1d(21), "1", "1", "1", {}),
    "1d-variable": (grid_1d(31, -0.5, 2.0), "2+sin(3*x)", "x*x-0.5", "1+exp(-x)", {}),
    "1d-declared": (grid_1d(21), "1+x", "cos(5*x)", "2-x",
                    {"declared_a_min": 0.5, "declared_c_min": -1.0, "declared_m_min": 0.25}),
    "2d-variable": (grid_2d(9, 7, 0.0, 1.0, -1.0, 0.5), "1+x*y*y", "sin(2*x)*cos(3*y)",
                    "1+x+y*y", {}),
    "2d-declared": (grid_2d(7, 9), "exp(-x-y)", "x-y", "2+sin(x*y)", {"declared_c_min": 0.125}),
}


def _minima_case(name):
    grid, a, c, m, declared = MINIMA_CASES[name]
    return grid, Coefficients(E(a), E(c), E(m), **declared)


def _bits(values):
    return [None if v is None else np.float64(v).tobytes() for v in values]


@pytest.mark.parametrize("kind", [ROBIN, DIRICHLET])
@pytest.mark.parametrize("name", sorted(MINIMA_CASES))
def test_sampled_minima_match_the_reference_bitwise(name, kind):
    grid, coeffs = _minima_case(name)
    ref = _reference_sampled_minima(coeffs, grid)
    assert _bits(v for v, _ in coeffs.sampled_minima(grid)) == _bits(ref)
    sc = make_scenario(grid, 0.01, 0.01, coeffs, reaction_zero(), E("0"),
                       BoundarySpec(kind, E("0")), E("0"))
    assert _bits([sc.c_min_raw]) == _bits(ref[1:2])
    if ref[1] >= 0:  # m enters Robin data alone
        m_min = ref[2] if kind == ROBIN else 1.0
        assert _bits([sc.bounds.a_min, sc.bounds.c_min, sc.bounds.m_min]) == \
            _bits([ref[0], ref[1], m_min])
    else:
        assert sc.bounds is None


@pytest.mark.parametrize("name", sorted(MINIMA_CASES))
def test_each_witness_is_a_node_where_the_minimum_is_attained(name):
    grid, coeffs = _minima_case(name)
    fine = (grid_1d(10 * (grid.n_x - 1) + 1, grid.domain.x_lo, grid.domain.x_hi)
            if grid.dim == 1 else
            grid_2d(10 * (grid.n_x - 1) + 1, 10 * (grid.n_y - 1) + 1, grid.domain.x_lo,
                    grid.domain.x_hi, grid.domain.y_lo, grid.domain.y_hi))
    declared = (coeffs.declared_a_min, coeffs.declared_c_min, coeffs.declared_m_min)
    minima = coeffs.sampled_minima(grid)
    for expr, given, boundary, (v, at) in zip((coeffs.a, coeffs.c, coeffs.m), declared,
                                              (False, False, True), minima):
        if given is not None:
            assert (v, at) == (given, None)
            continue
        x, y = node_coords(fine, boundary=boundary)
        vals = np.asarray(expr(x=x) if y is None else expr(x=x, y=y)) * np.ones_like(x)
        hit = x == at[0] if y is None else (x == at[0]) & (y == at[1])
        assert len(at) == grid.dim and hit.any()  # a node of the refined grid
        assert vals[hit][0] == v == vals.min()


def _mesh_sampled_minima(coeffs, grid):
    """The sampler before the broadcast axes: every coefficient on the flat
    coordinate meshes of the refined grid (m on its boundary nodes), the
    witness at the flat index of the first non-finite sample or the argmin."""
    fine = solver_mod._refined(grid, 10)
    X, Y = fine.meshes()
    nodes = (np.ravel(X), None if Y is None else np.ravel(Y))
    bindex = np.flatnonzero(fine.boundary_mask().ravel())
    out = []
    for expr, idx in ((coeffs.a, slice(None)), (coeffs.c, slice(None)), (coeffs.m, bindex)):
        xy = [None if c is None else c[idx] for c in nodes]
        vals = np.broadcast_to(np.asarray(expr(x=xy[0]) if xy[1] is None else
                                          expr(x=xy[0], y=xy[1]), dtype=float), xy[0].shape)
        bad = np.flatnonzero(~np.isfinite(vals))
        i = int(bad[0]) if bad.size else int(np.argmin(vals))
        out.append((float(vals[i]), tuple(float(c[i]) for c in xy if c is not None)))
    return out


_MESH_CASES = {
    **{name: case[:4] for name, case in MINIMA_CASES.items()},
    "1d-nan": (grid_1d(21), "sqrt(x-0.31)+1", "ln(x-0.52)", "sqrt(0.5-x)"),
    "2d-nan": (grid_2d(9, 7, 0.0, 1.0, -1.0, 0.5), "1+sqrt(x*y+0.1)", "sqrt(y+0.3)*x",
               "ln(x-0.5)"),
    "2d-ties": (grid_2d(7, 9), "1+0*x", "min(x, y)", "abs(x-0.5)+2"),
}


@pytest.mark.parametrize("name", sorted(_MESH_CASES))
def test_sampled_minima_on_axes_match_the_mesh_sampler_bitwise(name):
    grid, a, c, m = _MESH_CASES[name]
    coeffs = Coefficients(E(a), E(c), E(m))
    with np.errstate(all="ignore"):
        got, expect = coeffs.sampled_minima(grid), _mesh_sampled_minima(coeffs, grid)
    assert [(_bits([v]), _bits(at)) for v, at in got] == \
        [(_bits([v]), _bits(at)) for v, at in expect]
    if name.endswith("nan"):  # a witness of the first non-finite sample
        assert all(math.isnan(v) for v, _ in got)


def test_declared_minimum_is_reported_without_a_witness():
    with pytest.raises(ConfigError, match=r"^declared a_min is nonpositive \(value 0\)$"):
        make_scenario(grid_1d(11), 0.01, 0.01,
                      Coefficients(E("1"), E("1"), E("1"), declared_a_min=0.0),
                      reaction_zero(), E("0"), BoundarySpec(DIRICHLET, E("0")), E("0"))
    # a non-finite sample is the expression's own, whatever minimum is declared
    with np.errstate(divide="ignore"), \
            pytest.raises(ConfigError, match=r"^coefficient a is not finite at x=0 \(value inf\)$"):
        make_scenario(grid_1d(11), 0.01, 0.01,
                      Coefficients(E("1/x"), E("1"), E("1"), declared_a_min=1.0),
                      reaction_zero(), E("0"), BoundarySpec(DIRICHLET, E("0")), E("0"))


def test_dirichlet_data_does_not_read_m():
    sc = _scenario_1d(m="-1", kind=DIRICHLET)
    assert sc.bounds.m_min == 1.0
    assert np.all(np.isfinite(solve(sc).values))


def test_assemble_superlinear_preset():
    sc = superlinear_preset()
    assert sc.reaction.kind == "log_poly"
    assert sc.reaction.monotone
    assert sc.boundary.kind == ROBIN


def test_assemble_growth_exponent_dimension_cap():
    sc2d = make_scenario(
        grid_2d(9, 9), 0.01, 1e-3,
        Coefficients(E("1"), E("1"), E("1")),
        reaction_zero(), E("0"), BoundarySpec(DIRICHLET, E("0")),
        E("sin(pi*x)*sin(pi*y)"))
    assert sc2d.dim == 2
    with pytest.raises(ConfigError, match="growth exponent"):
        make_scenario(
            grid_2d(9, 9), 0.01, 1e-3,
            Coefficients(E("1"), E("1"), E("1")),
            reaction_log_poly(), E("0"), BoundarySpec(DIRICHLET, E("0")),
            E("0"))


def test_zero_fixed_point():
    sc = _scenario_1d(u0="0", T=0.05)
    traj = solve(sc)
    assert np.all(traj.values == 0.0)


def test_single_step_heat_mode():
    # pure heat: one CN step on the first Dirichlet eigenmode
    sc = _scenario_1d(c="0", n_x=201, dt=1e-3)
    f1 = step(np.sin(np.pi * sc.grid.x), 0.0, sc)
    expect = math.exp(-math.pi ** 2 * 1e-3) * np.sin(np.pi * sc.grid.x)
    err = np.max(np.abs(f1 - expect))
    assert err < 5e-7  # O(dt^3 + dt*h^2) with pi^4/12-sized constants


def test_manufactured_explicit_solution():
    sc = explicit_solution_preset(k=1.0, n_x=201, dt=1e-3, horizon=2.0)
    traj = solve(sc)
    X = sc.grid.x
    err = 0.0
    for i, t in enumerate(traj.times):
        err = max(err, np.max(np.abs(traj.values[i] - math.sin(1) * 0 - np.sin(t) * np.sin(X))))
    assert err < 1e-3
    assert err < 1e-4  # second-order scheme is well below the looser bar


def test_manufactured_residual_after_substitution():
    # substituting the exact solution into one discrete step leaves only
    # truncation: step from exact state stays within O(dt^3 + dt h^2)
    sc = explicit_solution_preset(k=1.0, n_x=201, dt=1e-3)
    X = sc.grid.x
    t = 0.7
    f1 = step(np.sin(t) * np.sin(X), t, sc)
    expect = np.sin(t + sc.dt) * np.sin(X)
    assert np.max(np.abs(f1 - expect)) < 5e-9


def test_destabilized_growth():
    # u_t = u_xx + 15 u grows like e^{(15-pi^2) t} on the first mode
    sc = _scenario_1d(c="-15", n_x=101, dt=1e-3, T=1.0)
    traj = solve(sc)
    sups = traj.sample_sups().sups
    growth = sups[-1] / sups[0]
    assert growth > 20.0
    assert growth == pytest.approx(math.exp(15 - math.pi ** 2), rel=0.05)


def test_linear_superposition():
    kw = dict(n_x=81, dt=2e-3, T=0.2, kind=ROBIN)
    s1 = _scenario_1d(f="sin(pi*x)*cos(t)", d="0.3", u0="sin(pi*x)", **kw)
    s2 = _scenario_1d(f="x*(1-x)", d="0.1*sin(t)", u0="x", **kw)
    s12 = _scenario_1d(f="sin(pi*x)*cos(t)+x*(1-x)", d="0.3+0.1*sin(t)",
                       u0="sin(pi*x)+x", **kw)
    t1, t2, t12 = solve(s1), solve(s2), solve(s12)
    assert np.max(np.abs(t1.values + t2.values - t12.values)) < 1e-10


def test_discrete_maximum_estimate_robin():
    # f = d = 0, monotone reaction, c >= 1: sup-norm non-increasing and
    # bounded by the initial sup at every step
    sc = _scenario_1d(c="1", reaction=reaction_log_poly(), kind=ROBIN,
                      u0="sin(pi*x)+0.3*sin(3*pi*x)", n_x=101, dt=1e-3, T=0.5)
    traj = solve(sc)
    sups = traj.sample_sups().sups
    assert np.all(sups <= sups[0] + 1e-10)
    assert np.all(np.diff(sups) <= 1e-10)


def test_newton_residuals_logged():
    from pdesup.solver import TimeStepper
    sc = _scenario_1d(reaction=reaction_odd_cubic(0.5), kind=ROBIN, T=0.02,
                      n_x=51, dt=1e-3, u0="sin(pi*x)")
    st = TimeStepper(sc)
    trajectories(st)
    assert len(st.residual_log) == sc.n_steps
    assert max(st.residual_log) <= 1e-12


def test_robin_variable_coefficients_manufactured():
    # u = exp(-t) cos(x), a = 1 + x/2, c = 1, m = 2 on (0,1)
    f = "exp(-t)*((1+x/2)*cos(x)+sin(x)/2)"
    # only the endpoint values of d are used; interpolate them linearly in x
    d = "exp(-t)*(2*(1-x)+(2*cos(1)-1.5*sin(1))*x)"
    sc = make_scenario(
        grid_1d(101), 0.5, 1e-3,
        Coefficients(E("1+x/2"), E("1"), E("2")),
        reaction_zero(), E(f), BoundarySpec(ROBIN, E(d)), E("cos(x)"))
    traj = solve(sc)
    exact = np.exp(-traj.times)[:, None] * np.cos(sc.grid.x)[None, :]
    assert np.max(np.abs(traj.values - exact)) < 2e-5


def test_convergence_orders_manufactured():
    sc = explicit_solution_preset(k=1.0, n_x=26, dt=4e-3, horizon=2.0)
    res = convergence_order(sc, E("sin(t)*sin(x)"), refinements=4)
    assert res.p_space >= 1.9
    assert res.p_time >= 1.9


def test_convergence_exact_on_linear_solution():
    # stationary u = x with compatible data is reproduced to rounding
    sc = make_scenario(
        grid_1d(11), 0.1, 1e-2,
        Coefficients(E("1"), E("0"), E("1")),
        reaction_zero(), E("0"), BoundarySpec(DIRICHLET, E("x")), E("x"))
    res = convergence_order(sc, E("x"), refinements=3)
    assert math.isinf(res.p_space) and math.isinf(res.p_time)


def test_convergence_needs_three_levels():
    sc = explicit_solution_preset(n_x=26, dt=4e-3)
    with pytest.raises(ValueError):
        convergence_order(sc, E("sin(t)*sin(x)"), refinements=2)


def test_2d_heat_decay_dirichlet():
    sc = make_scenario(
        grid_2d(21, 21), 0.05, 1e-3,
        Coefficients(E("1"), E("0"), E("1")),
        reaction_zero(), E("0"), BoundarySpec(DIRICHLET, E("0")),
        E("sin(pi*x)*sin(pi*y)"))
    traj = solve(sc)
    decay = traj.sample_sups().sups[-1]
    assert decay == pytest.approx(math.exp(-2 * math.pi ** 2 * 0.05), rel=2e-3)


def test_2d_robin_maximum_estimate():
    sc = make_scenario(
        grid_2d(17, 17), 0.1, 2e-3,
        Coefficients(E("1"), E("1"), E("1")),
        reaction_zero(), E("0"), BoundarySpec(ROBIN, E("0")),
        E("sin(pi*x)*sin(pi*y)+0.2"))
    traj = solve(sc)
    sups = traj.sample_sups().sups
    assert np.all(np.diff(sups) <= 1e-10)


def test_2d_robin_manufactured_convergence():
    # u = exp(-t) cos(x-1/2) cos(y-1/2) on (0,1)^2 with a = c = m = 1: the
    # Robin datum is the same single expression on all four edges by symmetry
    f = "2*exp(-t)*cos(x-1/2)*cos(y-1/2)"
    d = "exp(-t)*(cos(1/2)-sin(1/2))*cos(x-1/2)*cos(y-1/2)/cos(1/2)"

    def run(n, dt):
        sc = make_scenario(
            grid_2d(n, n), 0.08, dt,
            Coefficients(E("1"), E("1"), E("1")),
            reaction_zero(), E(f), BoundarySpec(ROBIN, E(d)),
            E("cos(x-1/2)*cos(y-1/2)"))
        traj = solve(sc)
        X, Y = sc.grid.meshes()
        exact = (np.exp(-traj.times)[:, None, None]
                 * (np.cos(X - 0.5) * np.cos(Y - 0.5))[None, :, :])
        return np.max(np.abs(traj.values - exact))

    e1 = run(11, 4e-3)
    e2 = run(21, 2e-3)
    order = math.log2(e1 / e2)
    assert order > 1.7


# ---------------------------------------------------------------------------
# 2-D operator assembly: the vectorized build against the row-by-row loop


def _loop_operator_2d(grid, coeffs, kind):
    """Reference (A, g_coef): the five-point stencil assembled node by node."""
    nx, ny = grid.n_x, grid.n_y
    hx, hy = grid.h_x, grid.h_y
    X, Y = grid.meshes()
    n = nx * ny
    bindex = np.flatnonzero(grid.boundary_mask().ravel())
    cv = (np.asarray(coeffs.c(x=X, y=Y)) * np.ones_like(X)).ravel()

    def a_at(xq, yq):
        return np.asarray(coeffs.a(x=xq, y=yq)) * np.ones_like(xq)

    ax_w = a_at(X - hx / 2, Y)
    ax_e = a_at(X + hx / 2, Y)
    ay_s = a_at(X, Y - hy / 2)
    ay_n = a_at(X, Y + hy / 2)
    A = sp.lil_matrix((n, n))
    g_coef = np.zeros(n)
    mvals = None
    if kind == ROBIN:
        mflat = np.zeros(n)
        mflat[bindex] = (np.asarray(coeffs.m(x=X.ravel()[bindex], y=Y.ravel()[bindex]))
                         * np.ones(bindex.size))
        mvals = mflat.reshape(ny, nx)

    def k(iy, ix):
        return iy * nx + ix

    for iy in range(ny):
        for ix in range(nx):
            row = k(iy, ix)
            diag = cv[row]
            if kind == DIRICHLET and (ix in (0, nx - 1) or iy in (0, ny - 1)):
                continue
            if 0 < ix < nx - 1:
                diag += (ax_w[iy, ix] + ax_e[iy, ix]) / hx ** 2
                A[row, k(iy, ix - 1)] = -ax_w[iy, ix] / hx ** 2
                A[row, k(iy, ix + 1)] = -ax_e[iy, ix] / hx ** 2
            else:
                inner = k(iy, 1) if ix == 0 else k(iy, nx - 2)
                a_out = ax_w[iy, 0] if ix == 0 else ax_e[iy, nx - 1]
                a_in = ax_e[iy, 0] if ix == 0 else ax_w[iy, nx - 1]
                a_bd = float(a_at(np.array(X[iy, ix]), np.array(Y[iy, ix])))
                diag += (a_in + a_out) / hx ** 2 + 2 * a_out * mvals[iy, ix] / (a_bd * hx)
                A[row, inner] = A[row, inner] - (a_in + a_out) / hx ** 2
                g_coef[row] += -2 * a_out / (a_bd * hx)
            if 0 < iy < ny - 1:
                diag += (ay_s[iy, ix] + ay_n[iy, ix]) / hy ** 2
                A[row, k(iy - 1, ix)] = A[row, k(iy - 1, ix)] - ay_s[iy, ix] / hy ** 2
                A[row, k(iy + 1, ix)] = A[row, k(iy + 1, ix)] - ay_n[iy, ix] / hy ** 2
            else:
                inner = k(1, ix) if iy == 0 else k(ny - 2, ix)
                a_out = ay_s[0, ix] if iy == 0 else ay_n[ny - 1, ix]
                a_in = ay_n[0, ix] if iy == 0 else ay_s[ny - 1, ix]
                a_bd = float(a_at(np.array(X[iy, ix]), np.array(Y[iy, ix])))
                diag += (a_in + a_out) / hy ** 2 + 2 * a_out * mvals[iy, ix] / (a_bd * hy)
                A[row, inner] = A[row, inner] - (a_in + a_out) / hy ** 2
                g_coef[row] += -2 * a_out / (a_bd * hy)
            A[row, row] = diag
    return A.tocsr(), (g_coef if kind == ROBIN else None)


def _bitwise_equal(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("kind", [ROBIN, DIRICHLET])
@pytest.mark.parametrize("n_x,n_y,x_hi", [(3, 3, 1.0), (4, 5, 1.25), (9, 7, 1.0), (17, 21, 2.0)])
def test_2d_assembly_matches_loop_bitwise(kind, n_x, n_y, x_hi):
    grid = grid_2d(n_x, n_y, x_hi=x_hi)
    coeffs = Coefficients(E("0.8+0.2*x+0.3*sin(3*x)*cos(2*y)+exp(-x*y)"), E("1.5-x*y"),
                          E("0.7+0.3*x*y+0.1*cos(y)"))
    op = solver_mod._Operator(grid, coeffs, kind)
    A_ref, g_ref = _loop_operator_2d(grid, coeffs, kind)
    assert np.array_equal(op.A.indptr, A_ref.indptr)
    assert np.array_equal(op.A.indices, A_ref.indices)
    assert _bitwise_equal(op.A.data, A_ref.data)
    if kind == ROBIN:
        assert _bitwise_equal(op.g_coef, g_ref)
    else:
        assert op.g_coef is None
        # strong Dirichlet rows of the M+ a stepper factors are identity rows
        stepper = TimeStepper(make_scenario(grid, 2e-2, 1e-2, coeffs, reaction_zero(), E("0"),
                                            BoundarySpec(DIRICHLET, E("0")), E("0")))
        m = stepper._m_plus
        for row in op.bindex:
            start, end = m.indptr[row], m.indptr[row + 1]
            assert list(m.indices[start:end]) == [row]
            assert list(m.data[start:end]) == [1.0]


# ---------------------------------------------------------------------------
# 2-D stepping: one factorization per (scenario, dt) and a chord Newton


def _scenario_2d(reaction, dt, T, n=17, u0="sin(pi*x)*sin(pi*y)", kind=DIRICHLET):
    return make_scenario(
        grid_2d(n, n), T, dt,
        Coefficients(E("1+0.2*x"), E("1"), E("1")),
        reaction, E("0.1*sin(t)*x*y"), BoundarySpec(kind, E("0.05*t*x")), E(u0))


def _count(monkeypatch, name):
    real, calls = getattr(solver_mod, name), []

    def counting(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(solver_mod, name, counting)
    return calls


@pytest.mark.parametrize("kind", [ROBIN, DIRICHLET])
@pytest.mark.parametrize("reaction", [
    reaction_zero(),
    ReactionTerm("custom", expr=E("u*abs(u)+(1+x*y)*u", XYTU), growth_exponent=2.0,
                 growth_constant=2.0)], ids=["linear", "custom"])
def test_2d_stepper_factors_once(monkeypatch, kind, reaction):
    calls = _count(monkeypatch, "splu")
    sc = _scenario_2d(reaction, dt=5e-3, T=0.1, kind=kind)
    st = TimeStepper(sc)
    trajectories(st)
    assert len(calls) == 1
    assert len(st.residual_log) == sc.n_steps
    assert max(st.residual_log) <= 1e-12


def _step_with_scales(st, reaction):
    """Step the whole horizon; returns the ``max(1, |rhs|)`` scale of each step."""
    sc = st.scenario
    X, Y = sc.grid.meshes()
    x, y = np.ravel(X), None if Y is None else Y.ravel()
    u, times = sc.initial_values().ravel(), sc.times()
    scales = []
    for i in range(sc.n_steps):
        t = times[i]
        h = reaction.at_nodes(x, y)(t, u)
        h[st.op.bindex] = 0.0
        f0, f1 = data_rows(sc.forcing, node_coords(sc.grid))([t, t + sc.dt])
        rhs = u - sc.dt / 2 * (st.op.A @ u + h) + sc.dt / 2 * (f0 + f1)
        rhs[st.op.bindex] = data_rows(sc.boundary.data,
                                      node_coords(sc.grid, boundary=True))([t + sc.dt])[0]
        scales.append(max(1.0, float(np.max(np.abs(rhs)))))
        u = st.step_values(u, t, *step_terms(st, (f0, f1), data_rows(
            sc.boundary.data, node_coords(sc.grid, boundary=True))([t, t + sc.dt])))
    return scales


def _stiff_reaction(k=500.0):
    return ReactionTerm("custom", expr=E(f"{k!r}*u*abs(u)", XYTU), growth_exponent=2.0,
                        growth_constant=k)


def test_2d_chord_falls_back_to_full_newton(monkeypatch):
    # dt/2 h' is about 250 times the diagonal of M+ on the lowest mode:
    # the chord step cannot contract, and full Newton must finish the step
    calls = _count(monkeypatch, "splu")
    reaction = _stiff_reaction()
    sc = _scenario_2d(reaction, dt=0.5, T=1.0, n=9)
    st = TimeStepper(sc)
    scales = _step_with_scales(st, reaction)
    assert len(calls) > 1  # the fallback factored Jacobians of its own
    _assert_factor_rule(calls[1:])
    assert len(st.residual_log) == sc.n_steps
    assert all(r <= 1e-12 * s for r, s in zip(st.residual_log, scales))


_NO_PIVOTING = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                    options=dict(SymmetricMode=True))
_THRESHOLD_PIVOTING = dict(permc_spec="MMD_AT_PLUS_A")


def _row_dominant(m) -> bool:
    d = np.abs(m.toarray())
    return bool(np.all(2 * np.diag(d) > d.sum(axis=1)))


def _assert_factor_rule(calls):
    """Each recorded ``splu`` call ordered by minimum degree on Aᵀ+A, and
    without pivoting, in symmetric mode, exactly when its matrix is
    strictly diagonally dominant by rows."""
    assert calls
    for (m,), kwargs in calls:
        assert kwargs == (_NO_PIVOTING if _row_dominant(m) else _THRESHOLD_PIVOTING)


@pytest.mark.parametrize("kind", [ROBIN, DIRICHLET])
@pytest.mark.parametrize("c, dt, n, dominant", [
    ("1+x*y", 1e-2, 17, True),
    # c negative enough that only the Dirichlet identity rows stay dominant
    ("-30", 0.1, 21, False),
], ids=["dominant", "c-negative"])
def test_2d_factor_rule_steps_like_default_splu(monkeypatch, kind, c, dt, n, dominant):
    sc = make_scenario(grid_2d(n, n), 10 * dt, dt, Coefficients(E("1+0.5*x*y"), E(c), E("1")),
                       reaction_zero(), E("0.1*sin(t)*x*y"), BoundarySpec(kind, E("0.05*t*x")),
                       E("sin(pi*x)*sin(pi*y)"))
    ref = TimeStepper(sc)
    ref._solve = splu(ref._m_plus.tocsc()).solve  # COLAMD, threshold pivoting
    calls = _count(monkeypatch, "splu")
    st = TimeStepper(sc)
    assert len(calls) == 1 and _row_dominant(st._m_plus) == dominant
    assert calls[0][1] == (_NO_PIVOTING if dominant else _THRESHOLD_PIVOTING)
    got, expect = trajectories(st)[0].values, trajectories(ref)[0].values
    assert np.all(np.abs(got - expect) <= 1e-12 * np.maximum(1.0, np.abs(expect)))


# ---------------------------------------------------------------------------
# 1-D operator: the n_y = 1 case of the stencil-diagonal build


class _ReferenceOperator1D:
    """The former hand-written tridiagonal interval operator (lo, di, up, gcoef)."""

    def __init__(self, grid, coeffs, kind):
        x, h, n = grid.x, grid.h_x, grid.n_x
        mid = np.asarray(coeffs.a(x=x[:-1] + h / 2)) * np.ones(n - 1)
        cv = np.asarray(coeffs.c(x=x)) * np.ones(n)
        lo, di, up = np.zeros(n), np.zeros(n), np.zeros(n)
        di[1:-1] = (mid[:-1] + mid[1:]) / h ** 2 + cv[1:-1]
        lo[1:-1] = -mid[:-1] / h ** 2
        up[1:-1] = -mid[1:] / h ** 2
        self.gcoef = None
        if kind == ROBIN:
            a_out_l = float(np.asarray(coeffs.a(x=x[0] - h / 2)))
            a_out_r = float(np.asarray(coeffs.a(x=x[-1] + h / 2)))
            a_l = float(np.asarray(coeffs.a(x=x[0])))
            a_r = float(np.asarray(coeffs.a(x=x[-1])))
            m_l = float(np.asarray(coeffs.m(x=x[0])))
            m_r = float(np.asarray(coeffs.m(x=x[-1])))
            di[0] = (mid[0] + a_out_l) / h ** 2 + 2 * a_out_l * m_l / (a_l * h) + cv[0]
            up[0] = -(mid[0] + a_out_l) / h ** 2
            di[-1] = (mid[-1] + a_out_r) / h ** 2 + 2 * a_out_r * m_r / (a_r * h) + cv[-1]
            lo[-1] = -(mid[-1] + a_out_r) / h ** 2
            self.gcoef = np.array([-2 * a_out_l / (a_l * h), -2 * a_out_r / (a_r * h)])
        self.lo, self.di, self.up = lo, di, up


@pytest.mark.parametrize("kind", [ROBIN, DIRICHLET])
@pytest.mark.parametrize("n_x,x_hi", [(3, 1.0), (4, 1.25), (17, 2.0), (81, 1.0)])
def test_1d_operator_matches_reference_within_2ulp(kind, n_x, x_hi):
    # the merged build samples a at x -+ h/2, the reference at x[:-1] + h/2:
    # the west midpoints may differ in the last bits
    grid = grid_1d(n_x, 0.0, x_hi)
    coeffs = Coefficients(E("0.8+0.2*x+0.3*sin(3*x)+exp(-x)"), E("1.5-x^2"), E("0.7+0.3*x"))
    op = solver_mod._Operator(grid, coeffs, kind)
    ref = _ReferenceOperator1D(grid, coeffs, kind)
    # tridiagonal; strong Dirichlet rows stay empty
    assert op.A.nnz == (3 * n_x - 2 if kind == ROBIN else 3 * (n_x - 2))
    np.testing.assert_array_max_ulp(op.A.diagonal(0), ref.di, maxulp=2)
    np.testing.assert_array_max_ulp(op.A.diagonal(1), ref.up[:-1], maxulp=2)
    np.testing.assert_array_max_ulp(op.A.diagonal(-1), ref.lo[1:], maxulp=2)
    if kind == ROBIN:
        np.testing.assert_array_max_ulp(op.g_coef[op.bindex], ref.gcoef, maxulp=2)
        assert np.all(op.g_coef[1:-1] == 0.0)
    else:
        assert op.g_coef is None


_REACTIONS_1D = [
    reaction_zero(),
    reaction_log_poly(1.5),
    ReactionTerm("custom", expr=E("u*abs(u)+(1+x)*u", XYTU), growth_exponent=2.0,
                 growth_constant=2.0)]


@pytest.mark.parametrize("kind", [ROBIN, DIRICHLET])
@pytest.mark.parametrize("reaction", _REACTIONS_1D, ids=["zero", "log_poly", "custom"])
def test_1d_stepper_factors_once(monkeypatch, kind, reaction):
    # M+ factored once, and one dgtsv per Newton iteration: each Newton
    # iteration evaluates h' once
    calls = _count(monkeypatch, "dgttrf")
    banded = _count(monkeypatch, "solve_banded")
    jacobians, derivative = [], ReactionTerm.derivative
    monkeypatch.setattr(ReactionTerm, "derivative",
                        lambda *args: jacobians.append(1) or derivative(*args))
    sc = _scenario_1d(a="1+0.2*x", reaction=reaction, f="0.1*sin(t)*x", kind=kind,
                      d="0.05*t", n_x=41, dt=5e-3, T=0.1)
    st = TimeStepper(sc)
    trajectories(st)
    assert len(calls) == 1
    assert len(banded) == len(jacobians)
    assert (len(banded) >= sc.n_steps) == (not reaction.is_zero)
    assert len(st.residual_log) == sc.n_steps
    assert max(st.residual_log) <= 1e-12


@pytest.mark.parametrize("kind", [ROBIN, DIRICHLET])
def test_1d_linear_step_is_one_solve(monkeypatch, kind):
    def never(*args, **kwargs):
        raise AssertionError("a zero reaction was evaluated")

    monkeypatch.setattr(ReactionTerm, "at_nodes", lambda self, x, y: never)
    monkeypatch.setattr(ReactionTerm, "derivative", never)
    solves = _count(monkeypatch, "dgttrs")
    sc = _scenario_1d(a="1+0.2*x", f="0.1*sin(t)*x", kind=kind, d="0.05*t", n_x=41,
                      dt=5e-3, T=0.05)
    st = TimeStepper(sc)
    u, times = sc.initial_values(), sc.times()
    f = data_rows(sc.forcing, node_coords(sc.grid))(times)
    b = data_rows(sc.boundary.data, node_coords(sc.grid, boundary=True))(times)
    for i in range(sc.n_steps):
        u = st.step_values(u, times[i], *step_terms(st, f[i:i + 2], b[i:i + 2]))
        assert len(solves) == i + 1
    assert max(st.residual_log) <= 1e-12


def test_1d_newton_meets_a_stiff_step(monkeypatch):
    # dt/2 h' dwarfs the diagonal of M+, where a chord step cannot contract
    # (see the 2-D case): the tridiagonal full Newton meets the tolerance
    banded = _count(monkeypatch, "solve_banded")
    reaction = _stiff_reaction()
    sc = _scenario_1d(a="1+0.2*x", reaction=reaction, f="0.1*sin(t)*x", d="0.05*t*x",
                      n_x=9, dt=0.5, T=1.0)
    st = TimeStepper(sc)
    scales = _step_with_scales(st, reaction)
    assert banded  # Newton solved Jacobians of its own
    assert len(st.residual_log) == sc.n_steps
    assert all(r <= 1e-12 * s for r, s in zip(st.residual_log, scales))


def test_1d_singular_m_plus_raises_solver_error():
    # one interior node: 1 + dt/2 (2a/h^2 + c) = 1 + 0.05 (8 - 28) = 0
    sc = _scenario_1d(c="-28", n_x=3, dt=0.1, T=0.1)
    with pytest.raises(solver_mod.SolverError, match="singular"):
        solve(sc)


class _Uphill(TimeStepper):
    """Full-Newton steps that point uphill, so no damping lowers the residual."""

    def _newton_solve(self, v, t1, dt, b):
        return -super()._newton_solve(v, t1, dt, b)


def test_a_stalled_line_search_above_the_rounding_floor_still_raises():
    sc = _scenario_1d(reaction=reaction_log_poly(1.0), kind=ROBIN, n_x=41, dt=1e-2, T=0.05,
                      u0="2*sin(pi*x)")
    solve(sc)  # the step itself is fine
    with pytest.raises(solver_mod.SolverError,
                       match=r"^Newton damping stalled at t=0\.01 \(residual") as err:
        trajectories(_Uphill(sc))
    assert len(err.value.history) == 1 and err.value.history[0] > 1e-9


def test_a_linear_step_at_its_rounding_floor_is_accepted():
    # cond(M+) ~ 1.6e4 at dt = 0.5 on 201 nodes: the attainable residual lies
    # above 1e-12 max(1, |rhs|), and the damped search could not lower it
    sc = _scenario_1d(a="1", c="0", f="sqrt(2)*sin(x)*cos(t-pi/4)", d="sin(t)*sin(x)",
                      u0="0", n_x=201, dt=0.5, T=8.0, x_hi=math.pi / 2)
    st = TimeStepper(sc)
    traj = trajectories(st)[0]
    assert len(st.residual_log) == sc.n_steps
    assert max(st.residual_log) > 1e-12  # above the tolerance: at the floor
    assert max(st.residual_log) < 1e-11
    assert np.max(np.abs(traj.values[-1] - np.sin(8.0) * np.sin(sc.grid.x))) < 0.05


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("nonlinear", [False, True], ids=["linear", "nonlinear"])
def test_dirichlet_values_are_the_data_bitwise(dim, nonlinear):
    d = "0.05*t*x+0.1*sin(3*t)*cos(x)"
    reaction = (ReactionTerm("custom", expr=E("u*abs(u)+u", XYTU), growth_exponent=2.0,
                             growth_constant=2.0) if nonlinear else reaction_zero())
    if dim == 1:
        sc = _scenario_1d(a="1+0.2*x", reaction=reaction, f="0.1*sin(t)*x", d=d, n_x=81,
                          dt=1e-2, T=0.4)
    else:
        sc = make_scenario(
            grid_2d(31, 31), 0.2, 1e-2, Coefficients(E("1+0.2*x"), E("1"), E("1")),
            reaction, E("0.1*sin(t)*x*y"), BoundarySpec(DIRICHLET, E(d + "*y")),
            E("sin(pi*x)*sin(pi*y)"))
    traj = solve(sc)
    bindex = np.flatnonzero(sc.grid.boundary_mask().ravel())
    expect = data_rows(sc.boundary.data, node_coords(sc.grid, boundary=True))(traj.times[1:])
    got = traj.values.reshape(traj.times.size, -1)[1:, bindex]
    assert _bitwise_equal(got, expect)


# ---------------------------------------------------------------------------
# the step's products and overhead, against the step they replaced


def _cycle_scenarios(reactions):
    """The three Robin subsystems of a cycle on 21 nodes, 10 steps."""
    subs = [SubsystemSpec(Coefficients(E(a), E("1"), E("2.2")), reaction, E(u0))
            for a, reaction, u0 in zip(["1", "1.3+0.2*x", "0.9"], reactions,
                                       ["sin(pi*x)", "0.5*sin(2*pi*x)+0.2", "0.8*cos(pi*x)"])]
    return build_cascade(subs, "robin-cycle", grid_1d(21), 1e-2, 0.1).scenarios


_PRODUCT_CASES = {
    "1d-robin": lambda: _scenario_1d(a="1+0.2*x", kind=ROBIN, n_x=81),
    "1d-dirichlet": lambda: _scenario_1d(a="1+0.2*x", n_x=81),
    "2d-rectangle": lambda: make_scenario(
        grid_2d(13, 9, x_hi=1.5), 0.1, 1e-2, Coefficients(E("1+0.2*x*y"), E("1"), E("1+x")),
        reaction_zero(), E("0"), BoundarySpec(ROBIN, E("0")), E("sin(pi*x)*sin(pi*y)")),
    "3-block-robin-cycle": lambda: _cycle_scenarios([reaction_zero()] * 3),
}


@pytest.mark.parametrize("case", list(_PRODUCT_CASES))
def test_csr_kernel_into_zeros_is_bitwise_matmul(case):
    # scipy's private kernel module: if it moves, this import fails loudly
    from scipy.sparse._sparsetools import csr_matvec

    scs = _PRODUCT_CASES[case]()
    st = TimeStepper(scs, cycle=case.endswith("cycle"))
    rng = np.random.default_rng(3)
    x = rng.normal(size=st.A.shape[0]) * 10.0 ** rng.uniform(-4, 4, size=st.A.shape[0])
    for M, product in ((st.A, st._a_mul), (st._m_plus, st._m_mul)):
        assert M.format == "csr"
        y = np.zeros(M.shape[0])
        csr_matvec(*M.shape, M.indptr, M.indices, M.data, x, y)
        assert _bitwise_equal(y, M @ x)
        assert _bitwise_equal(product(x), M @ x)


def test_step_refuses_a_state_of_the_wrong_shape():
    # the CSR kernel would read past a short state instead of refusing it
    st = TimeStepper(_scenario_1d(n_x=21))
    for u in (np.zeros(20), np.zeros((21, 1)), np.zeros(42)):
        with pytest.raises(ValueError, match="the stepper needs \\(21,\\)"):
            st.step_values(u, 0.0, None, None)


def _reference_bind(r, x, y):
    """ReactionTerm.bind as it was: the custom expression bound to the nodes."""
    if r.kind != "custom":
        return None
    return r.expr.bind(x=x) if y is None else r.expr.bind(x=x, y=y)


def _reference_value(r, x, y, t, u, bound=None):
    """ReactionTerm.value as it dispatched on the kind at every call."""
    if r.kind == "zero":
        return np.zeros_like(u)
    if r.kind == "log_poly":
        return r.scale * u * np.log1p(u * u)
    if r.kind == "odd_cubic":
        return r.scale * (u * u * u)
    if bound is not None:
        vals = bound(t=t, u=u)
    else:
        env = {"x": x, "t": t, "u": u}
        if y is not None:
            env["y"] = y
        vals = r.expr(**env)
    return np.broadcast_to(np.asarray(vals, dtype=float), np.shape(u)).copy()


class _ReferenceStepper(TimeStepper):
    """The step before the direct CSR kernel (the reference): ``@`` products,
    reactions as partials of a kind-dispatching value, Dirichlet rows zeroed
    through ``np.where``, and a finiteness scan of every new state.  With a
    reaction it starts from the same predictor as the stepper: the linear
    solve, with h at t+dt taken as 2 h(u) - h(u_prev) when u is the state
    it returned last, and h computed afresh at every step.  It iterates by
    the stepper's rule: full Newton on a tridiagonal stack, its Jacobians
    solved by scipy's ``solve_banded``, chord Newton with a full-Newton
    fallback otherwise, and one more chord step after the chord iterate, or
    the predictor, that meets the tolerance.  Every step, linear ones
    included, goes through its own ``step_values``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._previous = None  # the state returned last and h at the start of its step
        reactions = [(sc.reaction, _reference_bind(sc.reaction, *self._nodes))
                     for sc in self.scenarios]
        self._h_fns = [partial(_reference_value, r, *self._nodes, bound=b) for r, b in reactions]
        self._dh_fns = [partial(r.derivative, *self._nodes) for r, _ in reactions]
        self._interior_mask = np.ones(self.A.shape[0], dtype=bool)
        if self.kind == DIRICHLET:
            self._interior_mask[self.bindex] = False

    def _h(self, t, u, derivative=False):
        fns = self._dh_fns if derivative else self._h_fns
        vals = fns[0](t, u) if self.k == 1 else np.concatenate(
            [fn(t, ub) for fn, ub in zip(fns, u.reshape(self.k, -1))])
        if self.kind == DIRICHLET:
            vals = np.where(self._interior_mask, vals, 0.0)
        return vals

    def _residual(self, v, t1, dt, rhs):
        fv = self._m_plus @ v - rhs
        if not self._linear:
            fv += dt / 2 * self._h(t1, v)
        return fv

    def _linear_block(self, *block):
        return 0  # no step checked in a block: every one through step_values

    def _newton_solve(self, v, t1, dt, b):
        if self._linear or not self._banded:
            return super()._newton_solve(v, t1, dt, b)
        lower, diag, upper = self._tridiag  # the Jacobian in scipy's banded form
        ab = np.zeros((3, diag.size))
        ab[0, 1:], ab[1], ab[2, :-1] = upper, diag + dt / 2 * self._h(t1, v, derivative=True), lower
        return scipy_solve_banded((1, 1), ab, b)

    def step_values(self, u, t, s, d):
        dt = self.dt
        t1 = t + dt
        bindex = self.bindex
        au = self.A @ u
        hu = None
        if not self._linear:
            hu = self._h(t, u)
            au += hu
        rhs = u - dt / 2 * au + s
        if self.kind == ROBIN:
            rhs[bindex] -= d
        else:
            rhs[bindex] = d
        measure, tol = self._measure(rhs)

        def iterate(w):
            if self.kind == DIRICHLET:
                w[bindex] = d
            fw = self._residual(w, t1, dt, rhs)
            return w, fw, measure(fw)

        au_pred = au
        if hu is not None and self._previous is not None and u is self._previous[0]:
            au_pred = au + (hu - self._previous[1])
        v, fv, res = iterate(u + self._solve(rhs - u - dt / 2 * au_pred))
        history = []
        chord = self._linear or not self._banded
        for _ in range(50):
            history.append(res)
            if res <= tol:
                break
            if not math.isfinite(res):
                raise solver_mod.SolverError(f"non-finite residual at t={t1:.6g}", history)
            if chord:
                v_try, fv_try, res_try = iterate(v + self._solve(-fv))
                if res_try <= res / 2 or res_try <= tol:
                    v, fv, res = v_try, fv_try, res_try
                    continue
                chord = False
            delta = self._newton_solve(v, t1, dt, -fv)
            s = 1.0
            while True:
                v_try, fv_try, res_try = iterate(v + s * delta)
                if res_try < res or res_try <= tol:
                    v, fv, res = v_try, fv_try, res_try
                    break
                s /= 2
                if s < 1e-6:
                    raise solver_mod.SolverError(
                        f"Newton damping stalled at t={t1:.6g} (residual {res:.3e})", history)
        else:
            if res > tol:
                raise solver_mod.SolverError(
                    f"Newton failed to reach tolerance at t={t1:.6g} (residual {res:.3e})",
                    history)
        if not self._linear and (chord or len(history) == 1):
            v_try, _, res_try = iterate(v + self._solve(-fv))
            if res_try < res:
                v, res = v_try, res_try
        history.append(res)
        if not np.all(np.isfinite(v)):
            raise solver_mod.SolverError(f"non-finite state after step to t={t1:.6g}", history)
        self.residual_log.append(res)
        self._previous = (v, hu)
        return v


_STEP_REACTIONS = {
    "zero": reaction_zero(),
    "log_poly": reaction_log_poly(1.5),
    "odd_cubic": reaction_odd_cubic(0.7),
    "custom": ReactionTerm("custom", expr=E("u*abs(u)+(1+x)*u+0.1*sin(t)", XYTU),
                           growth_exponent=2.0, growth_constant=2.0),
}


def _step_case(dim, kind, reaction):
    if dim == 1:
        return _scenario_1d(a="1+0.2*x", reaction=reaction, f="0.1*sin(t)*x", kind=kind,
                            d="0.05*t+0.02*x", u0="2*sin(pi*x)+0.3", n_x=41, dt=5e-3, T=0.1)
    # a rectangle caps the declared growth exponent at 2
    reaction = replace(reaction, growth_exponent=min(reaction.growth_exponent, 2.0))
    return _scenario_2d(reaction, dt=1e-2, T=0.1, n=9, u0="2*sin(pi*x)*sin(pi*y)", kind=kind)


def _assert_steps_like_the_reference(scs, **kwargs):
    new, ref = TimeStepper(scs, **kwargs), _ReferenceStepper(scs, **kwargs)
    for got, expect in zip(trajectories(new), trajectories(ref), strict=True):
        assert _bitwise_equal(got.values, expect.values)
    assert new.residual_log == ref.residual_log
    assert all(math.isfinite(r) for r in new.residual_log)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("kind", [ROBIN, DIRICHLET])
@pytest.mark.parametrize("reaction", list(_STEP_REACTIONS))
def test_step_matches_the_reference_step_bitwise(dim, kind, reaction):
    _assert_steps_like_the_reference(_step_case(dim, kind, _STEP_REACTIONS[reaction]))


def test_cycle_step_matches_the_reference_step_bitwise():
    reactions = [_STEP_REACTIONS[name] for name in ("log_poly", "odd_cubic", "zero")]
    _assert_steps_like_the_reference(_cycle_scenarios(reactions), cycle=True)


@pytest.mark.parametrize("dim", [1, 2])
def test_full_newton_fallback_matches_the_reference_step_bitwise(monkeypatch, dim):
    lu = _count(monkeypatch, "splu")
    banded = _count(monkeypatch, "solve_banded")
    if dim == 1:
        sc = _scenario_1d(a="1+0.2*x", reaction=_stiff_reaction(), f="0.1*sin(t)*x",
                          d="0.05*t*x", n_x=9, dt=0.5, T=1.0)
    else:
        sc = _scenario_2d(_stiff_reaction(), dt=0.5, T=1.0, n=9)
    _assert_steps_like_the_reference(sc)
    # the stepper solved Jacobians: dgtsv in 1-D (the reference called
    # scipy's solve_banded), SuperLU factors in 2-D (both steppers)
    assert len(banded if dim == 1 else lu) > 2


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("reaction", ["zero", "log_poly"])
def test_overflowing_state_is_a_non_finite_residual(dim, reaction):
    # no finiteness scan of the new state: an overflowing one is caught
    # through its residual, at the first step
    r = replace(_STEP_REACTIONS[reaction], growth_exponent=2.0)
    sc = (_scenario_1d(reaction=r, kind=ROBIN, u0="1e308*sin(pi*x)", n_x=21, dt=2e-3)
          if dim == 1 else _scenario_2d(r, dt=2e-3, T=0.1, n=9, u0="1e308*sin(pi*x)*sin(pi*y)"))
    with np.errstate(all="ignore"), pytest.raises(solver_mod.SolverError) as err:
        solve(sc)
    assert str(err.value) == "non-finite residual at t=0.002"
    assert not math.isfinite(err.value.history[-1])


@pytest.mark.parametrize("d", ["1/(t*0)", "1/(t-0.002)"])
def test_infinite_data_is_refused_not_stepped_over(d):
    # infinite boundary data makes the step tolerance infinite too; the
    # residual's finiteness is tested first, so the chord step cannot
    # accept u itself (residual inf <= inf) and carry on
    sc = _scenario_1d(reaction=reaction_log_poly(), kind=ROBIN, d=d, n_x=21, dt=2e-3, T=0.01)
    with np.errstate(all="ignore"), pytest.raises(solver_mod.SolverError,
                                                  match="non-finite residual at t=0.002"):
        solve(sc)


# ---------------------------------------------------------------------------
# stacks of independent intervals, the predicted first iterate and cubes


_CONFIGS = Path(__file__).resolve().parents[1] / "configs"
# a suite-like manufactured solution: its forcing carries h(U), so the
# Newton iterations solve a genuinely nonlinear step
_U = "0.9*sin(1.4*x+0.8)*exp(-0.7*t)"
_U_T, _U_X = "(-0.7)*" + _U, "0.9*1.4*cos(1.4*x+0.8)*exp(-0.7*t)"
_U_XX = "(-1.96)*" + _U


def _manufactured_1d(kind, reaction, extra="0", T=0.8):
    """U = _U + extra on 81 nodes, dt = 2.5e-3, with a = 1.1+0.3x, c = 1.2+0.5x^2, m = 1.3."""
    u = f"({_U}+{extra})"
    h = {"zero": "0", "log_poly": f"{reaction.scale!r}*{u}*ln(1+{u}^2)",
         "odd_cubic": f"{reaction.scale!r}*{u}^3"}[reaction.kind]
    f = f"{_U_T}-0.3*{_U_X}-(1.1+0.3*x)*{_U_XX}+(1.2+0.5*x^2)*{u}+{h}+{extra}"
    d = u if kind == DIRICHLET else f"(1.1+0.3*x)*({_U_X})*(2*x-1)+1.3*{u}"
    return make_scenario(grid_1d(81), T, 2.5e-3, Coefficients(E("1.1+0.3*x"), E("1.2+0.5*x^2"),
                                                             E("1.3")),
                         reaction, E(f), BoundarySpec(kind, E(d)), E("0.9*sin(1.4*x+0.8)"))


def _rkes_pair_1d(kind, reaction):
    """Two scenarios that differ only in (f, d): the second adds 0.3 sin(2t) cos(x)."""
    return [_manufactured_1d(kind, reaction),
            _manufactured_1d(kind, reaction, "0.3*sin(2*t)*cos(x)")]


@pytest.mark.parametrize("kind", [ROBIN, DIRICHLET])
def test_linear_stack_steps_each_interval_bitwise_as_alone(monkeypatch, kind):
    lu, gttrf = _count(monkeypatch, "splu"), _count(monkeypatch, "dgttrf")
    # blocks with different coefficients and data, as well as an RKES pair
    other = _scenario_1d(a="0.7+x", c="2", m="0.5", f="sin(3*t)*x", kind=kind, d="0.2*cos(t)",
                         u0="0.9*sin(1.4*x+0.8)", n_x=81, dt=2.5e-3, T=0.8)
    scs = _rkes_pair_1d(kind, reaction_zero()) + [other]
    st = TimeStepper(scs)
    assert (len(lu), len(gttrf)) == (0, 1)  # one tridiagonal factorization for the stack
    for got, sc in zip(trajectories(st), scs, strict=True):
        assert _bitwise_equal(got.values, solve(sc).values)


def test_rkes_explicit_pair_stack_is_bitwise_the_pair_alone():
    from pdesup.config import load_config, rkes_pair_from_config

    pair = rkes_pair_from_config(load_config(_CONFIGS / "rkes_explicit_pair.ini"))
    for got, sc in zip(trajectories(TimeStepper(pair)), pair, strict=True):
        assert _bitwise_equal(got.values, solve(sc).values)


@pytest.mark.parametrize("kind", [ROBIN, DIRICHLET])
@pytest.mark.parametrize("reaction", [reaction_log_poly(1.4), reaction_odd_cubic(1.4)],
                         ids=["log_poly", "odd_cubic"])
def test_nonlinear_stack_is_within_1e_12_of_solving_alone(kind, reaction):
    scs = _rkes_pair_1d(kind, reaction)
    st = TimeStepper(scs)
    trajs = trajectories(st)
    # the stack's residual is each block's sup |F| in units of its own tolerance
    assert len(st.residual_log) == scs[0].n_steps and max(st.residual_log) <= 1.0
    for got, sc in zip(trajs, scs, strict=True):
        alone = solve(sc).values
        assert np.max(np.abs(got.values - alone)) <= 1e-12 * max(1.0, np.max(np.abs(alone)))


def test_stack_newton_solves_one_band_of_k_blocks(monkeypatch):
    banded = _count(monkeypatch, "solve_banded")
    scs = [_scenario_1d(a="1+0.2*x", reaction=_stiff_reaction(), f=f, d="0.05*t*x", n_x=9,
                        dt=0.5, T=1.0) for f in ("0.1*sin(t)*x", "0.2*cos(t)")]
    st = TimeStepper(scs)
    trajs = trajectories(st)
    assert banded and all(args[1].shape == (18,) for args, _ in banded)  # the diagonal
    assert len(st.residual_log) == 2 and max(st.residual_log) <= 1.0
    for got, sc in zip(trajs, scs, strict=True):
        alone = solve(sc).values
        assert np.max(np.abs(got.values - alone)) <= 1e-12 * max(1.0, np.max(np.abs(alone)))


def _counted_products(st):
    """Count the residual evaluations of ``st``: each one is one product with M+."""
    calls, m_mul = [], st._m_mul
    st._m_mul = lambda v: calls.append(1) or m_mul(v)
    return calls


@pytest.mark.parametrize("kind", [ROBIN, DIRICHLET])
@pytest.mark.parametrize("reaction", [reaction_log_poly(1.4), reaction_odd_cubic(1.4)],
                         ids=["log_poly", "odd_cubic"])
def test_predicted_first_iterate_saves_residual_evaluations(kind, reaction):
    # starting from u, each step took 6 residual evaluations here
    sc = _manufactured_1d(kind, reaction)
    st = TimeStepper(sc)
    calls = _counted_products(st)
    trajectories(st)
    assert len(calls) / sc.n_steps <= 4.7


def _recording_h(st):
    """Record the time of every h evaluation of the one-scenario stepper ``st``."""
    times, h = [], st._h_fns[0]

    def recording(t, u):
        times.append(t)
        return h(t, u)

    st._h_fns = [recording]
    return times


@pytest.mark.parametrize("reads_t", [False, True], ids=["h(u)", "h(t,u)"])
def test_h_is_reused_only_for_the_state_last_returned(reads_t):
    expr = "u*abs(u)+u" + ("*(1+0.1*sin(t))" if reads_t else "")
    sc = _scenario_1d(reaction=ReactionTerm("custom", expr=E(expr, XYTU), growth_exponent=2.0,
                                            growth_constant=2.0),
                      f="0.1*sin(t)*x", kind=ROBIN, d="0.05*t", n_x=21, dt=1e-2, T=0.1)
    st = TimeStepper(sc)
    times = _recording_h(st)
    nodes, bnodes = node_coords(sc.grid), node_coords(sc.grid, boundary=True)
    f, b = data_rows(sc.forcing, nodes), data_rows(sc.boundary.data, bnodes)

    def step(u, t):
        t1 = t + sc.dt
        return st.step_values(u, t, *step_terms(st, f([t, t1]), b([t, t1])))

    v = step(sc.initial_values(), 0.0)
    assert not v.flags.writeable
    with pytest.raises(ValueError):
        v[0] = 1.0
    t1 = 0.0 + sc.dt
    times.clear()
    w = step(v, t1)  # the very array, at its own time: h(t1, v) is reused
    assert t1 not in times
    t2 = t1 + sc.dt
    times.clear()
    x = step(w.copy(), t2)  # equal values in another array: h is evaluated
    assert times[0] == t2
    t_off = np.nextafter(t2 + sc.dt, 1.0)  # the very array, one ulp past its time
    times.clear()
    step(x, t_off)
    assert (t_off in times) == reads_t


def test_odd_cubic_is_the_product_on_negative_states():
    u = np.linspace(-3.0, 2.0, 81)
    h = reaction_odd_cubic(0.7).at_nodes(u * 0.0, None)(0.0, u)
    assert _bitwise_equal(h, 0.7 * (u * u * u))


# ---------------------------------------------------------------------------
# Newton on intervals, linear blocks checked in one product, data terms


class _PerStep(TimeStepper):
    """A stepper that takes every step, linear ones too, through ``step_values``."""

    def _linear_block(self, *block):
        return 0


_LINEAR_BLOCK_CASES = {
    "robin": lambda: _manufactured_1d(ROBIN, reaction_zero()),
    "dirichlet": lambda: _manufactured_1d(DIRICHLET, reaction_zero()),
    "rkes-stack": lambda: _rkes_pair_1d(ROBIN, reaction_zero()),
    "robin-cycle": lambda: _cycle_scenarios([reaction_zero()] * 3),
    # 31² nodes: 69 samples per time block, so 100 steps take two blocks
    "rectangle": lambda: make_scenario(
        grid_2d(31, 31, x_hi=1.5), 1.0, 1e-2, Coefficients(E("1+0.2*x*y"), E("1"), E("1+x")),
        reaction_zero(), E("0.1*sin(3*t)*x*y"), BoundarySpec(ROBIN, E("0.05*cos(t)*y")),
        E("sin(pi*x)*sin(pi*y)")),
}


@pytest.mark.parametrize("case", list(_LINEAR_BLOCK_CASES))
def test_linear_block_steps_bitwise_as_step_values(monkeypatch, case):
    scs = _LINEAR_BLOCK_CASES[case]()
    cycle = case.endswith("cycle")
    got, expect = TimeStepper(scs, cycle=cycle), _PerStep(scs, cycle=cycle)
    calls = []
    real = TimeStepper.step_values
    monkeypatch.setattr(TimeStepper, "step_values",
                        lambda self, *args: calls.append(self) or real(self, *args))
    for a, b in zip(trajectories(got), trajectories(expect), strict=True):
        assert _bitwise_equal(a.values, b.values)
    assert got.residual_log == expect.residual_log
    assert got not in calls and len(calls) == len(expect.residual_log)  # no step of its own


@pytest.mark.parametrize("case", ["robin", "dirichlet", "rkes-stack", "robin-cycle"])
def test_block_residuals_are_each_steps_own(case):
    st = TimeStepper(_LINEAR_BLOCK_CASES[case](), cycle=case.endswith("cycle"))
    rng = np.random.default_rng(5)
    n = st.A.shape[0]
    states, rhs = (rng.normal(size=(40, n)) * 10.0 ** rng.uniform(-3, 3, size=(40, n))
                   for _ in range(2))
    fv = st._residuals(states, rhs)
    res, tol = st._row_measures(states, rhs)
    for j in range(40):
        alone = st._m_mul(states[j])
        alone -= rhs[j]
        assert _bitwise_equal(fv[:, j], alone)
        measure, step_tol = st._measure(rhs[j])
        assert res[j] == measure(alone) and tol[j] == step_tol


def test_a_step_that_misses_its_tolerance_is_rerun_from_that_step(monkeypatch):
    sc = _manufactured_1d(DIRICHLET, reaction_zero(), T=0.1)  # 40 steps in one block
    st = TimeStepper(sc)
    solves, real_solve = [], st._solve

    def perturbed(b):  # the fifth step's solve lands off its solution
        solves.append(1)
        x = real_solve(b)
        return x + 1e-6 if len(solves) == 5 else x

    st._solve = perturbed
    stepped, real = [], TimeStepper.step_values
    monkeypatch.setattr(TimeStepper, "step_values",
                        lambda self, u, t, s, d: stepped.append(t) or real(self, u, t, s, d))
    traj = trajectories(st)[0]
    times = sc.times()
    assert stepped == list(times[4:-1])  # from the perturbed step on, each through step_values
    reference = _PerStep(sc)
    assert _bitwise_equal(traj.values, trajectories(reference)[0].values)
    assert st.residual_log == reference.residual_log


@pytest.mark.parametrize("kind", [ROBIN, DIRICHLET])
@pytest.mark.parametrize("f, t_bad", [("sqrt(0.0045-t)*x", "0.005"), ("1/(t*0)", "0.001")],
                         ids=["nan", "inf"])
def test_non_finite_data_in_a_linear_block_raises_at_the_same_t(kind, f, t_bad):
    sc = _scenario_1d(kind=kind, f=f, n_x=21, dt=1e-3, T=0.01)
    errors = []
    for st in (TimeStepper(sc), _PerStep(sc)):
        with np.errstate(all="ignore"), pytest.raises(solver_mod.SolverError) as err:
            trajectories(st)
        errors.append((str(err.value), err.value.history, st.residual_log))
    assert errors[0][0] == f"non-finite residual at t={t_bad}"
    assert repr(errors[0]) == repr(errors[1])


def test_an_infinite_residual_misses_even_an_infinite_tolerance(monkeypatch):
    # infinite data makes the tolerance infinite too: as step_values does,
    # the block check tests finiteness before the tolerance
    sc = _scenario_1d(kind=ROBIN, f="0.1*sin(t)*x", n_x=21, dt=1e-3, T=0.01)
    st = TimeStepper(sc)
    measures = st._row_measures

    def infinite_at_step_3(states, rhs):
        res, tol = measures(states, rhs)
        res[3] = tol[3] = math.inf
        return res, tol

    st._row_measures = infinite_at_step_3
    stepped, real = [], TimeStepper.step_values
    monkeypatch.setattr(TimeStepper, "step_values",
                        lambda self, u, t, s, d: stepped.append(t) or real(self, u, t, s, d))
    trajectories(st)
    assert stepped == list(sc.times()[3:-1])


@pytest.mark.parametrize("kind", [ROBIN, DIRICHLET])
@pytest.mark.parametrize("reaction", [reaction_log_poly(1.4), reaction_odd_cubic(1.4)],
                         ids=["log_poly", "odd_cubic"])
def test_an_interval_step_is_a_predictor_and_one_newton_step(monkeypatch, kind, reaction):
    banded = _count(monkeypatch, "solve_banded")
    for scs in (_manufactured_1d(kind, reaction), _rkes_pair_1d(kind, reaction)):
        banded.clear()
        st = TimeStepper(scs)
        products = _counted_products(st)
        trajectories(st)
        n_steps = len(st.residual_log)
        assert (len(products), len(banded)) == (2 * n_steps, n_steps)


def test_a_predictor_that_meets_the_tolerance_is_corrected_once(monkeypatch):
    # h = 0 u is not the zero reaction, but its predictor is the exact linear step
    banded = _count(monkeypatch, "solve_banded")
    reaction = ReactionTerm("custom", expr=E("0*u", XYTU))
    st = TimeStepper(replace(_manufactured_1d(ROBIN, reaction_zero()), reaction=reaction))
    measures, measure = [], st._measure

    def spy(rhs):
        norm, tol = measure(rhs)
        return lambda fv: measures.append((norm(fv), tol)) or norm(fv), tol

    st._measure = spy
    products = _counted_products(st)
    trajectories(st)
    n_steps = len(st.residual_log)
    assert (len(products), len(banded)) == (2 * n_steps, 0)  # a chord step, no Jacobian
    predictors, corrections = measures[::2], measures[1::2]
    assert all(res <= tol for res, tol in predictors)
    assert st.residual_log == [min(p[0], c[0]) for p, c in zip(predictors, corrections)]


@pytest.mark.parametrize("kind", [ROBIN, DIRICHLET])
@pytest.mark.parametrize("k", [1, 2])
def test_data_terms_are_the_per_step_formulas_bitwise(kind, k):
    scs = [_scenario_1d(kind=kind, n_x=21, dt=1e-3, T=0.01)] * k
    st = TimeStepper(scs)
    rng = np.random.default_rng(7)
    f = rng.normal(size=(11, 21 * k)) * 10.0 ** rng.uniform(-3, 3, size=(11, 21 * k))
    b = rng.normal(size=(11, 2 * k)) * 10.0 ** rng.uniform(-3, 3, size=(11, 2 * k))
    s, d = st.data_terms(f, b)
    dt = st.dt
    for j in range(10):
        (f0, f1), (b0, b1) = f[j:j + 2], b[j:j + 2]
        assert _bitwise_equal(s[j], dt / 2 * (f0 + f1))
        expect = dt / 2 * (st._g_bd * b0 + st._g_bd * b1) if kind == ROBIN else b1
        assert _bitwise_equal(d[j], expect)


# ---------------------------------------------------------------------------
# forcing and boundary data as (times × nodes) rows


class _ExpressionForcing:
    """The per-time forcing provider that data_rows replaced (the reference)."""

    def __init__(self, grid, expr):
        X, Y = grid.meshes()
        self._fn = expr.bind(x=X) if Y is None else expr.bind(x=X, y=Y)
        self._ones = np.ones(grid.shape)

    def __call__(self, t):
        return (np.asarray(self._fn(t=t), dtype=float) * self._ones).ravel()


class _ExpressionBoundary:
    """The per-time boundary provider that data_rows replaced (the reference)."""

    def __init__(self, grid, expr):
        idx = np.flatnonzero(grid.boundary_mask().ravel())
        X, Y = grid.meshes()
        xb, yb = np.ravel(X)[idx], None if Y is None else np.ravel(Y)[idx]
        self._fn = expr.bind(x=xb) if yb is None else expr.bind(x=xb, y=yb)
        self._ones = np.ones_like(xb)

    def __call__(self, t):
        return np.asarray(self._fn(t=t), dtype=float) * self._ones


_DATA = {  # (interval text, rectangle text)
    "t-dependent": ("0.3*sin(2*pi*x-t)*exp(-t)+t^2*x", "0.3*sin(2*pi*x-t)*cos(y+t)+t^2*x*y"),
    "t-free": ("cos(pi*x)+x^2", "cos(pi*x)*sin(y)+x^2"),
    "constant": ("0.25", "0.25"),
}


@pytest.mark.parametrize("boundary", [False, True], ids=["nodes", "boundary"])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("kind", list(_DATA))
def test_data_rows_match_the_per_time_providers_bitwise(kind, dim, boundary):
    grid = grid_1d(101) if dim == 1 else grid_2d(81, 81)
    expr = E(_DATA[kind][dim - 1])
    ref = (_ExpressionBoundary if boundary else _ExpressionForcing)(grid, expr)
    coords = node_coords(grid, boundary=boundary)
    times = np.linspace(0.0, 2.0, 1000)
    blocks = time_blocks(times.size, coords[0].size)
    if not (dim == 1 and boundary):  # two boundary nodes: the whole run is one block
        block_rows = max(2, 2 ** 16 // coords[0].size)
        assert len(blocks) > 1 and blocks[-1].stop - blocks[-1].start < block_rows  # partial
    assert blocks[0].start == 0 and blocks[-1].stop == times.size
    assert all(a.stop - 1 == b.start for a, b in zip(blocks, blocks[1:]))  # one shared row
    rows = data_rows(expr, coords)
    for sl in blocks:
        got = rows(times[sl])
        assert _bitwise_equal(got, np.array([ref(t) for t in times[sl]]))
        if kind != "t-dependent":  # evaluated once and broadcast, without a copy
            assert got.strides[0] == 0 and not got.flags.writeable


@pytest.mark.parametrize("grid", [grid_1d(11), grid_2d(7, 5, x_hi=1.5), grid_2d(801, 801)],
                         ids=["interval", "rectangle", "801x801"])
def test_boundary_coords_are_the_meshes_at_the_boundary_bitwise(grid):
    X, Y = grid.meshes()
    idx = np.flatnonzero(grid.boundary_mask().ravel())
    x, y = node_coords(grid, boundary=True)
    assert _bitwise_equal(x, np.ravel(X)[idx])
    assert (y is None) if Y is None else _bitwise_equal(y, np.ravel(Y)[idx])


def test_solve_holds_one_block_of_data_at_a_time():
    # a full (times × nodes) forcing array, with its temporaries, peaks at
    # about 4x the trajectory's bytes; evaluating one time at a time, at 1.4x
    sc = make_scenario(
        grid_2d(81, 81), 1.0, 1e-2, Coefficients(E("1"), E("1"), E("1")), reaction_zero(),
        E("sin(pi*x)*sin(pi*y)*cos(3*t)+0.1*x*t"), BoundarySpec(ROBIN, E("0.1*sin(t)*x")),
        E("sin(pi*x)*sin(pi*y)"))
    assert sc.n_steps == 100
    tracemalloc.start()
    try:
        traj = solve(sc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * traj.values.nbytes


@pytest.mark.parametrize("kind", [ROBIN, DIRICHLET])
def test_array_data_steps_like_the_expressions_bitwise(kind):
    sc = _scenario_1d(kind=kind, f="0.1*sin(3*t)*x", d="0.05*cos(t)+0.1*x", T=0.05,
                      reaction=reaction_log_poly())
    times = sc.times()
    f = data_rows(sc.forcing, node_coords(sc.grid))(times)
    b = data_rows(sc.boundary.data, node_coords(sc.grid, boundary=True))(times)
    traj = trajectories(TimeStepper(sc, forcing=f, boundary=b))[0]
    assert _bitwise_equal(traj.values, solve(sc).values)


def test_array_data_one_sample_short_is_refused():
    sc = _scenario_1d(kind=ROBIN, T=0.01)
    upstream = solve(_scenario_1d(kind=ROBIN, T=0.009))  # one sample short of sc.times()
    assert upstream.n_samples == sc.n_steps
    with pytest.raises(ValueError, match="forcing rows have shape \\(10, 101\\)"):
        TimeStepper(sc, forcing=upstream.values)
    with pytest.raises(ValueError, match="boundary rows have shape \\(10, 2\\)"):
        TimeStepper(sc, boundary=upstream.values[:, [0, -1]])


# ---------------------------------------------------------------------------
# trajectory ownership


def test_trajectory_is_read_only_and_owns_writeable_input():
    g = grid_1d(11)
    times = np.linspace(0.0, 1.0, 3)
    vals = np.zeros((3, 11))
    tr = Trajectory(g, times, vals)
    assert not tr.values.flags.writeable and not tr.times.flags.writeable
    assert not np.shares_memory(tr.values, vals)
    assert not np.shares_memory(tr.times, times)
    vals[:] = 1.0
    assert np.all(tr.values == 0.0)
    from_list = Trajectory(g, [0.0, 1.0], [[0.0] * 11, [1.0] * 11])
    assert not from_list.values.flags.writeable
    single = np.zeros((3, 11), dtype=np.float32)
    single.setflags(write=False)
    assert Trajectory(g, times, single).values.dtype == np.float64
    # a read-only float64 array is handed over without a copy
    frozen = np.ones((3, 11))
    frozen.setflags(write=False)
    assert Trajectory(g, times, frozen).values is frozen


def test_solved_trajectory_is_read_only():
    traj = solve(_scenario_1d(T=0.01))
    assert not traj.values.flags.writeable
    with pytest.raises(ValueError):
        traj.values[0, 0] = 1.0
