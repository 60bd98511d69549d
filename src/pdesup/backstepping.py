"""Stabilizing boundary feedback for the destabilized 1-D heat equation.

The plant is u_t = u_xx + c u + f on (0,1) with u(0,t) = d0(t) and
u(1,t) = d1(t) + U(t).  The feedback U(t) = -int_0^1 k(1,y) u(y,t) dy
uses the triangular kernel k solving k_xx - k_yy = (c+sigma) k with
k(x,0) = 0 and diagonal k(x,x) = (c+sigma) x / 2; the Volterra map
w = u + int_0^x k(x,y) u(y,t) dy then turns the plant into the damped
target dynamics w_t = w_xx - sigma w + (transformed forcing).

Two independent routes compute the kernel:

* ``kernel_series`` runs the successive-approximation iteration for the
  equivalent integral equation exactly, as polynomial algebra in the
  characteristic variables (xi, eta) = (x+y, x-y): each iterate is the
  double integral of the previous one, so terms stay polynomials with
  rational coefficients and the truncation error is controlled by the
  sup of the latest term.
* ``kernel_bessel_oracle`` evaluates the closed form lam*y*I1(z)/z,
  z = sqrt(lam (x^2-y^2)), through the power series of I1 (the inverse
  kernel is the same series at -lam, i.e. the J1 form).

Volterra integrals use trapezoid weights with Euler-Maclaurin endpoint
corrections (fourth order, smooth in the row index; the one-panel row
uses a three-point left-biased rule), which keeps the transform
roundtrip and the discrete target-equation residual at the scheme's
second-order level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import DIRICHLET, Field, SpatialGrid, Trajectory, time_blocks
from .expressions import Expression, parse_expression
from .gains import closed_loop_iss_bound, kernel_bound_constant
from .harness import NOT_ASSERTED, Report, build_report, data_running_sup
from .solver import (
    BoundarySpec,
    Coefficients,
    TimeStepper,
    data_rows,
    make_scenario,
    node_coords,
    reaction_zero,
)

MAX_SERIES_TERMS = 200


def _bessel_ratio(s: float) -> float:
    """sum_m (s/4)^m / (m! (m+1)!) / 2; equals I1(z)/z for s = z^2 >= 0.

    Negative ``s`` gives the oscillatory (J1) branch used by the inverse
    kernel.  Converges to full double precision for the |s| <= lam
    values that arise on the unit triangle.
    """
    term = 0.5
    total = term
    m = 0
    while abs(term) > 1e-16 * max(1.0, abs(total)) and m < 400:
        m += 1
        term = term * (s / 4.0) / (m * (m + 1))
        total += term
    return total


def kernel_bessel_oracle(c: float, sigma: float, x: float, y: float) -> float:
    """Closed-form kernel value at (x, y), 0 <= y <= x <= 1."""
    if not 0.0 <= y <= x <= 1.0:
        raise ValueError("oracle requires 0 <= y <= x <= 1")
    lam = c + sigma
    return lam * y * _bessel_ratio(lam * (x * x - y * y))


def inverse_kernel_bessel_oracle(c: float, sigma: float, x: float, y: float) -> float:
    """Closed-form inverse-kernel value at (x, y), 0 <= y <= x <= 1."""
    if not 0.0 <= y <= x <= 1.0:
        raise ValueError("oracle requires 0 <= y <= x <= 1")
    lam = c + sigma
    return -lam * y * _bessel_ratio(-lam * (x * x - y * y))


class Kernel:
    """Triangular-grid kernel values plus the defining coefficient.

    ``lam`` is c + sigma for the forward kernel and -(c + sigma) for the
    inverse one.  Values are stored on the full unit square (the
    polynomial continuation above the diagonal is what makes smooth
    interpolation and the short-row quadrature possible); the triangle
    y <= x is the meaningful part.
    """

    def __init__(self, lam: float, x: np.ndarray, values: np.ndarray, terms_used: int):
        self.lam = lam
        self.x = x
        self.values = values
        self.terms_used = terms_used
        self.n_k = x.size
        self._grid_cache: dict[tuple, np.ndarray] = {}
        self._volterra_cache: dict[tuple, np.ndarray] = {}

    def triangle_max_abs(self) -> float:
        X, Y = np.meshgrid(self.x, self.x, indexing="ij")
        return float(np.max(np.abs(self.values[Y <= X + 1e-15])))

    def on_nodes(self, x_nodes: np.ndarray) -> np.ndarray:
        """Kernel matrix K[i, j] = k(x_i, x_j) on a field grid.

        Exact nodal lookup when the field nodes are a subset of the
        kernel nodes, bilinear interpolation otherwise.  Field nodes are
        uniform, so the count and the two ends identify them.
        """
        n = x_nodes.size
        key = _nodes_key(x_nodes)
        cached = self._grid_cache.get(key)
        if cached is not None:
            return cached
        step = (self.n_k - 1) % (n - 1)
        if step == 0 and np.allclose(x_nodes, self.x[:: (self.n_k - 1) // (n - 1)], atol=1e-12):
            stride = (self.n_k - 1) // (n - 1)
            out = self.values[::stride, ::stride].copy()
        else:
            out = _bilinear(self.x, self.values, x_nodes)
        out.setflags(write=False)
        self._grid_cache[key] = out
        return out

    def _volterra_matrix(self, x_nodes: np.ndarray) -> np.ndarray:
        """Quadrature matrix Q with (Q u)[i] ~ int_0^{x_i} k(x_i, y) u(y) dy.

        Built once per set of uniform nodes from :meth:`on_nodes` and
        :func:`volterra_weights`; row 1 uses the three-point rule.
        """
        n = x_nodes.size
        key = _nodes_key(x_nodes)
        q = self._volterra_cache.get(key)
        if q is None:
            h = (float(x_nodes[-1]) - float(x_nodes[0])) / (n - 1)
            kmat = self.on_nodes(x_nodes)
            q = np.zeros((n, n))
            if n >= 3:
                q[1, :3] = kmat[1, :3] * _ROW1 * h
            for i in range(2, n):
                q[i, : i + 1] = kmat[i, : i + 1] * volterra_weights(i + 1, h)
            q.setflags(write=False)
            self._volterra_cache[key] = q
        return q


def _nodes_key(x_nodes: np.ndarray) -> tuple:
    return (x_nodes.size, float(x_nodes[0]), float(x_nodes[-1]))


def _bilinear(nodes: np.ndarray, values: np.ndarray, q: np.ndarray) -> np.ndarray:
    h = nodes[1] - nodes[0]
    if q.min() < nodes[0] - 1e-12 or q.max() > nodes[-1] + 1e-12:
        raise ValueError("field grid lies outside the kernel grid")
    pos = np.clip((q - nodes[0]) / h, 0.0, nodes.size - 1 - 1e-12)
    i0 = pos.astype(int)
    fr = pos - i0
    out = np.zeros((q.size, q.size))
    for dx, wx in ((0, 1 - fr), (1, fr)):
        for dy, wy in ((0, 1 - fr), (1, fr)):
            out += wx[:, None] * wy[None, :] * values[np.minimum(i0 + dx, nodes.size - 1)][:, np.minimum(i0 + dy, nodes.size - 1)]
    return out


def _series_kernel(lam: float, n_k: int, tol: float) -> Kernel:
    """Successive approximations for the kernel integral equation.

    In (xi, eta) = (x+y, x-y) the kernel solves G(xi,eta) =
    (lam/4)(xi-eta) + (lam/4) int_eta^xi int_0^eta G; iterating from the
    first term keeps every iterate a polynomial, integrated here exactly
    on coefficients.  Each iterate is homogeneous of odd degree d, so it
    is stored as the vector c with c[j] the coefficient of xi^j eta^(d-j).
    """
    if n_k < 11:
        raise ValueError("kernel grid needs at least 11 nodes per edge")
    if tol <= 0:
        raise ValueError("tol must be positive")
    x = np.linspace(0.0, 1.0, n_k)
    X, Y = np.meshgrid(x, x, indexing="ij")
    xi = X + Y
    eta = X - Y
    coef = np.array([-lam / 4.0, lam / 4.0])
    total_vals = _homogeneous_eval(coef, xi, eta)
    n_terms = 1
    while True:
        # (lam/4) int_eta^xi int_0^eta maps xi^j eta^(d-j) to
        # (lam/4) (xi^(j+1) eta^(d-j+1) - eta^(d+2)) / ((j+1) (d-j+1))
        j = np.arange(coef.size)
        w = (lam / 4.0) * coef / ((j + 1) * (coef.size - j))
        coef = np.zeros(coef.size + 2)  # no pure xi^(d+2) term
        coef[1:-1] = w
        for v in w.tolist():
            coef[0] -= v
        vals = _homogeneous_eval(coef, xi, eta)
        total_vals += vals
        n_terms += 1
        if float(np.max(np.abs(vals))) < tol:
            break
        if n_terms >= MAX_SERIES_TERMS:
            raise RuntimeError(f"kernel series did not converge within {MAX_SERIES_TERMS} terms")
    return Kernel(lam, x, total_vals, n_terms)


def _homogeneous_eval(coef: np.ndarray, xi: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """sum_j coef[j] xi^j eta^(d-j) by one homogeneous Horner sweep."""
    out = np.zeros_like(xi)
    eta_pow = np.ones_like(eta)
    for c in coef[::-1].tolist():
        out *= xi
        out += c * eta_pow
        eta_pow *= eta
    return out


def kernel_series(c: float, sigma: float, n_k: int = 201, tol: float = 1e-12) -> Kernel:
    """Feedback kernel on an n_k-per-edge grid, truncated at sup-term < tol."""
    lam = c + sigma
    k = _series_kernel(lam, n_k, tol)
    edge = float(np.max(np.abs(k.values[:, 0])))
    if edge > 1e-9:
        raise AssertionError(f"kernel bottom edge not zero (max {edge:.3e})")
    bound = kernel_bound_constant(c, sigma, 1e-12)
    if k.triangle_max_abs() > bound + tol:
        raise AssertionError("kernel magnitude exceeds its series bound")
    return k


def inverse_kernel_series(c: float, sigma: float, n_k: int = 201, tol: float = 1e-12) -> Kernel:
    """Inverse-transform kernel: the same iteration at -(c+sigma)."""
    lam = -(c + sigma)
    k = _series_kernel(lam, n_k, tol)
    bound = kernel_bound_constant(c, sigma, 1e-12)
    if k.triangle_max_abs() > bound + tol:
        raise AssertionError("inverse kernel magnitude exceeds its series bound")
    return k


# ---------------------------------------------------------------------------
# Volterra quadrature


def volterra_weights(m: int, h: float) -> np.ndarray:
    """Weights for int_0^{(m-1)h} on m uniform nodes.

    Trapezoid plus additive Euler-Maclaurin endpoint corrections (order
    four, overlap-safe down to m = 3; m = 2 stays trapezoid, whose
    O(h^3) deviation on a single short panel is below scheme order).
    """
    if m < 1:
        raise ValueError("need at least one node")
    if m == 1:
        return np.zeros(1)
    w = np.full(m, h)
    w[0] = w[-1] = h / 2
    if m >= 3:
        w[0] -= 3 * h / 24
        w[1] += 4 * h / 24
        w[2] -= h / 24
        w[-1] -= 3 * h / 24
        w[-2] += 4 * h / 24
        w[-3] -= h / 24
    return w


_ROW1 = np.array([5.0, 8.0, -1.0]) / 12.0  # int_0^h g via nodes {0, h, 2h}


def _volterra_apply(kernel: Kernel, grid: SpatialGrid, u: np.ndarray) -> np.ndarray:
    """out[i] = quadrature of k(x_i, y) u(y) over [0, x_i] for all rows."""
    return u @ kernel._volterra_matrix(grid.x).T


def _require_unit_interval(grid: SpatialGrid):
    if grid.dim != 1 or abs(grid.domain.x_lo) > 1e-12 or abs(grid.domain.x_hi - 1.0) > 1e-12:
        raise ValueError("transforms are defined on the unit interval grid")


def forward_transform(u: Field, kernel: Kernel) -> Field:
    """w = u + int_0^x k(x,y) u(y) dy on the field's nodes."""
    _require_unit_interval(u.grid)
    if kernel.n_k < u.grid.n_x:
        raise ValueError("kernel resolution must be at least the field resolution")
    return Field(u.grid, u.values + _volterra_apply(kernel, u.grid, u.values))


def inverse_transform(w: Field, inverse_kernel: Kernel) -> Field:
    """u = w + int_0^x l(x,y) w(y) dy; inverts :func:`forward_transform`."""
    return forward_transform(w, inverse_kernel)


def transform_trajectory(traj: Trajectory, kernel: Kernel) -> Trajectory:
    _require_unit_interval(traj.grid)
    vals = traj.values + _volterra_apply(kernel, traj.grid, traj.values)
    vals.setflags(write=False)  # handed over: Trajectory keeps it without a copy
    return Trajectory(traj.grid, traj.times, vals)


def control_signal(u: Field, kernel: Kernel) -> float:
    """U = -int_0^1 k(1, y) u(y) dy by the corrected trapezoid rule."""
    _require_unit_interval(u.grid)
    kmat = kernel.on_nodes(u.grid.x)
    w = volterra_weights(u.grid.n_x, u.grid.h_x)
    return float(-np.dot(w, kmat[-1] * u.values))


# ---------------------------------------------------------------------------
# closed-loop simulation


@dataclass
class ClosedLoopResult:
    u: Trajectory
    w: Trajectory
    report: Report
    kernel: Kernel
    controls: np.ndarray
    inverse_args: tuple = field(repr=False)   # (c, sigma, n_k, tol) of the inverse kernel

    @cached_property
    def inverse_kernel(self) -> Kernel:
        """The inverse-transform kernel, built on first access."""
        c, sigma, n_k, tol = self.inverse_args
        return inverse_kernel_series(c, sigma, n_k=n_k, tol=tol)


def simulate_closed_loop(c: float, sigma: float, u0: Expression, f: Expression,
                         d0: Expression, d1: Expression, grid: SpatialGrid,
                         dt: float, horizon: float, n_k: int = 201,
                         series_tol: float = 1e-12, control_sweeps: int = 2,
                         feedback: bool = True, tol: float | None = None) -> ClosedLoopResult:
    """Step the destabilized plant under boundary feedback and check its bound.

    The control uses the beginning-of-step field and ``control_sweeps``
    fixed-point refinements restore implicitness to scheme order.  With
    ``feedback=False`` the raw open loop is simulated (bound checking is
    skipped in the report, which then only records norms).
    """
    if c <= 0 or sigma <= 0:
        raise ValueError("c and sigma must be positive")
    _require_unit_interval(grid)
    kernel = kernel_series(c, sigma, n_k=n_k, tol=series_tol)
    scenario = make_scenario(
        grid, horizon, dt,
        Coefficients(parse_expression("1"), parse_expression(repr(-float(c)))),
        reaction_zero(), f,
        BoundarySpec(DIRICHLET, parse_expression("0")),
        u0)
    kmat = kernel.on_nodes(grid.x)
    wq = volterra_weights(grid.n_x, grid.h_x)
    krow = kmat[-1]

    def control_of(vals: np.ndarray) -> float:
        return float(-np.dot(wq, krow * vals)) if feedback else 0.0

    stepper = TimeStepper(scenario)
    u = scenario.initial_values().astype(float)
    times = scenario.times()
    out = np.empty((times.size, grid.n_x))
    out[0] = u
    controls = np.empty(times.size)
    controls[0] = control_of(u)
    nodes = node_coords(grid)
    d_vals = np.hstack([data_rows(d0, (grid.x[:1], None))(times),   # (n_t, 2): x = 0, x = 1
                        data_rows(d1, (grid.x[-1:], None))(times)])
    f_rows = data_rows(f, nodes)
    for sl in time_blocks(times.size, grid.n_x):
        f_block = f_rows(times[sl])
        for i in range(sl.start, sl.stop - 1):
            f_pair = (f_block[i - sl.start], f_block[i - sl.start + 1])
            b0 = np.array([d_vals[i, 0], d_vals[i, 1] + controls[i]])
            U = control_of(u)
            for _ in range(max(1, control_sweeps)):
                b1 = np.array([d_vals[i + 1, 0], d_vals[i + 1, 1] + U])
                cand = stepper.step_values(u, times[i], dt, f_pair=f_pair, b_pair=(b0, b1))
                U_new = control_of(cand)
                done = abs(U_new - U) <= 1e-13 * (1.0 + abs(U))
                U = U_new
                if done:
                    break
            u = cand
            out[i + 1] = u
            controls[i + 1] = U
    out.setflags(write=False)  # handed over: Trajectory keeps it without a copy
    u_traj = Trajectory(grid, times, out)
    w_traj = transform_trajectory(u_traj, kernel)

    observed = u_traj.sup_space_per_sample()
    u0_sup = observed[0]
    f_sups = data_running_sup(f, nodes, times)
    d0_run, d1_run = np.maximum.accumulate(np.abs(d_vals), axis=0).T
    if feedback:
        bounds = [closed_loop_iss_bound(t, u0_sup, f_sups[i], d0_run[i], d1_run[i], c, sigma)
                  for i, t in enumerate(times)]
        report = build_report("closed-loop", [(u_traj, observed, bounds)], tol, grid, dt)
    else:
        report = Report("open-loop", NOT_ASSERTED, math.nan, None,
                        len(times), notes="no feedback: no bound asserted")
    return ClosedLoopResult(u_traj, w_traj, report, kernel, controls,
                            (c, sigma, n_k, series_tol))


# ---------------------------------------------------------------------------
# target-system residual


def target_forcing(kernel: Kernel, grid: SpatialGrid, f_vals: np.ndarray,
                   d0_val) -> np.ndarray:
    """Forcing of the transformed dynamics at one instant (or one per row).

    The transform maps f to f + int_0^x k f dy and couples the left
    boundary value in through the kernel's edge slope k_y(x, 0).  A
    stack of rows ``f_vals`` takes ``d0_val`` as a column of values.
    """
    out = f_vals + _volterra_apply(kernel, grid, f_vals)
    ky0 = kernel.lam * np.array([_bessel_ratio(kernel.lam * xx * xx) for xx in grid.x])
    return out + ky0 * d0_val


def target_residual(result: ClosedLoopResult, c: float, sigma: float,
                    f: Expression, d0: Expression, t_start: float = 0.0) -> float:
    """Max interior residual of the w-trajectory under the target dynamics.

    Checks (w^{n+1}-w^n)/dt = mean of (w_xx - sigma w + forcing) at the
    two levels, using the coupling-corrected forcing.  ``t_start``
    skips the initial layer left by incompatible data (the feedback
    makes u(1, 0+) jump away from u0(1) in general).
    """
    w = result.w
    grid = w.grid
    h = grid.h_x
    times = w.times
    dt = float(times[1] - times[0])
    fw = target_forcing(result.kernel, grid, data_rows(f, node_coords(grid))(times),
                        data_rows(d0, (grid.x[:1], None))(times))
    wv = w.values
    lap = np.zeros_like(wv)
    lap[:, 1:-1] = (wv[:, :-2] - 2 * wv[:, 1:-1] + wv[:, 2:]) / h ** 2
    r = ((wv[1:] - wv[:-1]) / dt - 0.5 * (lap[:-1] + lap[1:]) + sigma * 0.5 * (wv[:-1] + wv[1:])
         - 0.5 * (fw[:-1] + fw[1:]))
    kept = r[times[:-1] >= t_start, 1:-1]
    return float(np.max(np.abs(kept), initial=0.0))
