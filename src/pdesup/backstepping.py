"""Stabilizing boundary feedback for the destabilized 1-D heat equation.

The plant is u_t = u_xx + c u + f on (0,1) with u(0,t) = d0(t) and
u(1,t) = d1(t) + U(t).  The feedback U(t) = -int_0^1 k(1,y) u(y,t) dy
uses the triangular kernel k solving k_xx - k_yy = (c+sigma) k with
k(x,0) = 0 and diagonal k(x,x) = (c+sigma) x / 2; the Volterra map
w = u + int_0^x k(x,y) u(y,t) dy then turns the plant into the damped
target dynamics w_t = w_xx - sigma w + (transformed forcing).  The
closed loop steps by Crank-Nicolson, its same-instant loop solved exactly.

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

A kernel belongs to the field grid it serves: the series is summed on
the coarsest refinement of that grid with at least 201 nodes per edge,
so every field node is a kernel node.  The kernel's quadrature matrix
and feedback weights are built once, with it, for that grid, and
:func:`transform_trajectory` refuses any other grid.

Volterra integrals use trapezoid weights with Euler-Maclaurin endpoint
corrections (fourth order, smooth in the row index; the one-panel row
uses a three-point left-biased rule), which keeps the transform
roundtrip and the discrete target-equation residual at the scheme's
second-order level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DIRICHLET, SpatialGrid, Trajectory
from .expressions import ZERO, Expression, parse_expression
from .gains import SERIES_TOL, closed_loop_iss_bound, kernel_bound_constant
from .harness import Report, build_report, data_running_sup
from .solver import (
    BoundarySpec,
    Coefficients,
    SolverError,
    TimeStepper,
    data_rows,
    make_scenario,
    node_coords,
    reaction_zero,
)

MAX_SERIES_TERMS = 200
KERNEL_NODES = 201  # the least number of kernel nodes per edge


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


def _bessel_kernel(lam: float, x: float, y: float) -> float:
    """lam*y*I1(z)/z at z = sqrt(lam (x^2-y^2)), 0 <= y <= x <= 1."""
    if not 0.0 <= y <= x <= 1.0:
        raise ValueError("oracle requires 0 <= y <= x <= 1")
    return lam * y * _bessel_ratio(lam * (x * x - y * y))


def kernel_bessel_oracle(c: float, sigma: float, x: float, y: float) -> float:
    """Closed-form kernel value at (x, y), 0 <= y <= x <= 1."""
    return _bessel_kernel(c + sigma, x, y)


def inverse_kernel_bessel_oracle(c: float, sigma: float, x: float, y: float) -> float:
    """Closed-form inverse-kernel value at (x, y): the same form at -(c + sigma)."""
    return _bessel_kernel(-(c + sigma), x, y)


class Kernel:
    """Kernel values on a refinement of the field grid they serve.

    ``lam`` is c + sigma for the forward kernel and -(c + sigma) for the
    inverse one.  ``x`` holds the kernel nodes: every ``stride``-th one
    is a node of ``grid``.  Values are stored on the full unit square
    (the polynomial continuation above the diagonal is what makes the
    short-row quadrature possible); the triangle y <= x is the
    meaningful part.

    Built once for ``grid``: ``field_values`` (k at its nodes), the
    matrix ``quadrature`` with (Q u)[i] ~ int_0^{x_i} k(x_i, y) u(y) dy
    (row 1 by the three-point rule), and the kernel row ``krow`` and
    weights ``w`` of :meth:`control`.
    """

    def __init__(self, lam: float, grid: SpatialGrid, x: np.ndarray, values: np.ndarray,
                 terms_used: int):
        self.lam = lam
        self.grid = grid
        self.x = x
        self.values = values
        self.terms_used = terms_used
        self.stride = (x.size - 1) // (grid.n_x - 1)
        n, h = grid.n_x, grid.h_x
        k = self.field_values = values[:: self.stride, :: self.stride]
        q = np.zeros((n, n))
        q[1, :3] = k[1, :3] * _ROW1 * h
        for i in range(2, n):
            q[i, : i + 1] = k[i, : i + 1] * volterra_weights(i + 1, h)
        self.quadrature = q
        self.krow = k[-1]
        self.w = volterra_weights(n, h)

    def triangle_max_abs(self) -> float:
        X, Y = np.meshgrid(self.x, self.x, indexing="ij")
        return float(np.max(np.abs(self.values[Y <= X + 1e-15])))

    def control(self, values: np.ndarray) -> float:
        """U = -int_0^1 k(1, y) u(y) dy by the corrected trapezoid rule, from
        the nodal values of u on the kernel's grid."""
        return float(-np.dot(self.w, self.krow * values))


def _series_kernel(c: float, sigma: float, grid: SpatialGrid, inverse: bool) -> Kernel:
    """Successive approximations for the kernel integral equation, checked.

    The series is summed on the coarsest refinement of the unit-interval
    ``grid`` with at least :data:`KERNEL_NODES` nodes per edge, so every
    field node is a kernel node.

    In (xi, eta) = (x+y, x-y) the kernel solves G(xi,eta) =
    (lam/4)(xi-eta) + (lam/4) int_eta^xi int_0^eta G (lam = c + sigma, or
    -(c + sigma) for the inverse); iterating from the first term keeps
    every iterate a polynomial, integrated here exactly on coefficients.
    Each iterate is homogeneous of odd degree d, so it is stored as the
    vector c with c[j] the coefficient of xi^j eta^(d-j).  The sum stops
    at a term below :data:`SERIES_TOL`, and must vanish on y = 0 and stay
    within :func:`kernel_bound_constant`; a sum that fails any of these
    raises :class:`~pdesup.solver.SolverError`.  A NaN or nonpositive
    c + sigma raises ``ValueError`` before any term is summed.
    """
    if not c + sigma > 0:
        raise ValueError("c + sigma must be positive")
    if grid.dim != 1 or abs(grid.domain.x_lo) > 1e-12 or abs(grid.domain.x_hi - 1.0) > 1e-12:
        raise ValueError("the kernel serves a grid on the unit interval")
    stride = -(-(KERNEL_NODES - 1) // (grid.n_x - 1))
    lam = -(c + sigma) if inverse else c + sigma
    x = np.linspace(0.0, 1.0, stride * (grid.n_x - 1) + 1)
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
        if float(np.max(np.abs(vals))) < SERIES_TOL:
            break
        if n_terms >= MAX_SERIES_TERMS:
            raise SolverError(f"kernel series did not converge within {MAX_SERIES_TERMS} terms")
    k = Kernel(lam, grid, x, total_vals, n_terms)
    edge = float(np.max(np.abs(k.values[:, 0])))
    if edge > 1e-9:
        raise SolverError(f"kernel bottom edge not zero (max {edge:.3e})")
    if k.triangle_max_abs() > kernel_bound_constant(c, sigma) + SERIES_TOL:
        raise SolverError("kernel magnitude exceeds its series bound")
    return k


def _homogeneous_eval(coef: np.ndarray, xi: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """sum_j coef[j] xi^j eta^(d-j) by one homogeneous Horner sweep."""
    out = np.zeros_like(xi)
    eta_pow = np.ones_like(eta)
    for c in coef[::-1].tolist():
        out *= xi
        out += c * eta_pow
        eta_pow *= eta
    return out


def kernel_series(c: float, sigma: float, grid: SpatialGrid) -> Kernel:
    """Feedback kernel serving ``grid`` (see :func:`_series_kernel`)."""
    return _series_kernel(c, sigma, grid, inverse=False)


def inverse_kernel_series(c: float, sigma: float, grid: SpatialGrid) -> Kernel:
    """Inverse-transform kernel: the same checked series at -(c+sigma)."""
    return _series_kernel(c, sigma, grid, inverse=True)


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


def transform_trajectory(traj: Trajectory, kernel: Kernel) -> Trajectory:
    """w = u + int_0^x k(x,y) u(y) dy at every sample of ``traj``.

    The inverse transform is this one with the inverse kernel.  Raises
    ``ValueError`` unless ``traj`` lives on the grid the kernel was built
    for.
    """
    if traj.grid != kernel.grid:
        raise ValueError(f"kernel was built for {kernel.grid.n_x} nodes on [0, 1], "
                         f"not for this grid")
    vals = traj.values + traj.values @ kernel.quadrature.T
    vals.setflags(write=False)  # handed over: Trajectory keeps it without a copy
    return Trajectory(traj.grid, traj.times, vals)


# ---------------------------------------------------------------------------
# closed-loop simulation


@dataclass
class ClosedLoopResult:
    """Plant trajectory u, its target image w under ``kernel``, report, controls."""

    u: Trajectory
    w: Trajectory
    report: Report
    kernel: Kernel
    controls: np.ndarray


def simulate_closed_loop(c: float, sigma: float, u0: Expression, f: Expression,
                         d0: Expression, d1: Expression, grid: SpatialGrid,
                         dt: float, horizon: float, tol: float | None = None) -> ClosedLoopResult:
    """Step the destabilized plant under boundary feedback and check its bound.

    Each step is the implicit Crank-Nicolson step of the closed loop, with
    u(1, t) = d1(t) + U(t) held exactly.  The plant is linear, so the new
    field is v + U s: v has d1 alone at x = 1, and s (computed once) is
    the response to a unit value there; U = control(v) / (1 - control(s)).
    """
    if not (c > 0 and sigma > 0):
        raise ValueError("c and sigma must be positive")
    kernel = kernel_series(c, sigma, grid)
    scenario = make_scenario(
        grid, horizon, dt,
        Coefficients(parse_expression("1"), parse_expression(repr(-float(c)))),
        reaction_zero(), f,
        BoundarySpec(DIRICHLET, ZERO),
        u0)
    control_of = kernel.control
    times = scenario.times()
    d_vals = np.hstack([data_rows(d0, (grid.x[:1], None))(times),   # (n_t, 2): x = 0, x = 1
                        data_rows(d1, (grid.x[-1:], None))(times)])
    stepper = TimeStepper(scenario, boundary=d_vals)
    zero = np.zeros(grid.n_x)
    s = stepper.step_values(zero, 0.0, zero, np.array([0.0, 1.0]))
    loop_gain = 1.0 - control_of(s)
    controls = np.empty(times.size)

    def feedback(i, v):
        controls[i] = U = control_of(v) / loop_gain
        return v + U * s

    u_traj = stepper.march(None, feedback, None)[0]
    controls[0] = control_of(u_traj.values[0])
    w_traj = transform_trajectory(u_traj, kernel)

    samples = u_traj.sample_sups()
    f_sups = data_running_sup(f, node_coords(grid), times)
    d0_run, d1_run = np.maximum.accumulate(np.abs(d_vals), axis=0).T
    bounds = closed_loop_iss_bound(times, samples.sups[0], f_sups, d0_run, d1_run, c, sigma)
    report = build_report("closed-loop", [(samples, samples.sups, bounds)], tol, grid, dt)
    return ClosedLoopResult(u_traj, w_traj, report, kernel, controls)


# ---------------------------------------------------------------------------
# target-system residual


def target_forcing(kernel: Kernel, f_vals: np.ndarray, d0_val) -> np.ndarray:
    """Forcing of the transformed dynamics at one instant (or one per row).

    The transform maps f to f + int_0^x k f dy and couples the left
    boundary value in through the kernel's edge slope k_y(x, 0).  A
    stack of rows ``f_vals`` takes ``d0_val`` as a column of values.
    """
    out = f_vals + f_vals @ kernel.quadrature.T
    ky0 = kernel.lam * np.array([_bessel_ratio(kernel.lam * xx * xx) for xx in kernel.grid.x])
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
    fw = target_forcing(result.kernel, data_rows(f, node_coords(grid))(times),
                        data_rows(d0, (grid.x[:1], None))(times))
    wv = w.values
    lap = np.zeros_like(wv)
    lap[:, 1:-1] = (wv[:, :-2] - 2 * wv[:, 1:-1] + wv[:, 2:]) / h ** 2
    r = ((wv[1:] - wv[:-1]) / dt - 0.5 * (lap[:-1] + lap[1:]) + sigma * 0.5 * (wv[:-1] + wv[1:])
         - 0.5 * (fw[:-1] + fw[1:]))
    kept = r[times[:-1] >= t_start, 1:-1]
    return float(np.max(np.abs(kept), initial=0.0))
