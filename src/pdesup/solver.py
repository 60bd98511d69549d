"""Crank-Nicolson finite-difference solver for disturbed parabolic systems.

The continuous model is u_t - div(a grad u) + c u + h(x,t,u) = f with
either Robin data (a du/dnu + m u = d) or Dirichlet data (u = d) on the
boundary, posed on an interval or an axis-aligned rectangle.

Discretization: second-order conservative five/three-point stencils in
space with midpoint-sampled diffusion; Robin rows eliminate a ghost node
through the centered boundary-derivative formula, which keeps the full
scheme second order (the diffusion expression is therefore evaluated at
midpoints half a cell outside the domain).  Time stepping is
Crank-Nicolson with M+ = I + dt/2 A factored once per stepper, at its
scenario's dt.  The nonlinear reaction is handled per step from a
predicted iterate: by damped full Newton on intervals and their uncoupled
stacks, whose tridiagonal Jacobians LAPACK ``dgtsv`` solves for about the
cost of one solve with M+'s factors, and by chord Newton with a damped
full-Newton fallback on rectangles and cycles, where a Jacobian is a
sparse factorization of its own (see TimeStepper).  A linear stepper
takes a block of steps one solve each and checks all their residuals in
one product.  Every sparse factorization (M+ off intervals and their
uncoupled stacks, and the fallback's Jacobians) goes through
:func:`_sparse_lu`: minimum-degree ordering on Aᵀ+A, which suits the
structurally symmetric five-point pattern, and no pivoting when every
row is strictly diagonally dominant, as one scenario's M+ is whenever
1 + dt/2 c > 0: elimination then needs none.
Dirichlet values are imposed strongly, and no compatibility between the
initial and boundary data is required - an initial-instant mismatch is
absorbed over the first few steps.

Forcing and boundary data are (times × nodes) rows: the scenario's
expressions evaluated by :func:`data_rows` a block of times at a time,
or arrays of upstream fields and traces that the cascade module passes
in.  Every consumer (stepping, running sups, error norms) walks a run of
times in the blocks of :func:`pdesup.core.time_blocks`, and a solve given
a sink (:meth:`TimeStepper.march`) holds one block of states at a time,
so the checks and error norms that read only per-sample sups take memory
bounded whatever the horizon.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dgtsv, dgttrf, dgttrs
from scipy.sparse._sparsetools import csr_matvec, csr_matvecs
from scipy.sparse.linalg import splu

from .core import DIRICHLET, ROBIN, ConfigError, SpatialGrid, Trajectory, sup_sink, time_blocks
from .expressions import Expression
from .gains import CoefficientBounds

MINIMUM_SAMPLING_FACTOR = 10  # coefficient minima sampled at 10x grid resolution
_REL_TOL = 1e-12  # a step's residual tolerance, relative to max(1, sup |rhs|)


class SolverError(RuntimeError):
    """A Newton step that fails or meets non-finite values, or a kernel series that
    fails its checks; carries the residual history (empty for a kernel)."""

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = list(history or [])


# ---------------------------------------------------------------------------
# reaction terms


@dataclass(frozen=True)
class ReactionTerm:
    """Nonlinear reaction h(x[,y],t,u) from a small catalog.

    ``log_poly`` is u*ln(1+u^2) (odd, increasing, super-linear growth);
    ``odd_cubic`` is u^3, computed as the product u*u*u.  Custom entries
    supply an expression over (x, y, t, u) and get a finite-difference
    derivative (relative step 1e-7).  ``growth_exponent``/``growth_constant`` declare the envelope
    |h| <= c0 (1 + |u|^lambda); ``monotone`` declares that h is
    nondecreasing in u.

    :meth:`at_nodes` gives h at fixed nodes as a plain function of
    (t, u), which is what the stepper and the hypothesis probes call;
    :meth:`derivative` gives h' (the stepper's full-Newton Jacobians).
    """

    kind: str = "zero"
    scale: float = 1.0
    expr: Expression | None = None
    growth_exponent: float = 1.0
    growth_constant: float = 1.0
    monotone: bool = True

    def __post_init__(self):
        if self.kind not in ("zero", "log_poly", "odd_cubic", "custom"):
            raise ConfigError(f"unknown reaction kind {self.kind!r}")
        if self.kind == "custom" and self.expr is None:
            raise ConfigError("custom reaction needs an expression over (x, y, t, u)")
        if not self.growth_constant > 0:  # NaN fails too
            raise ConfigError("growth constant must be positive")

    @property
    def is_zero(self) -> bool:
        return self.kind == "zero"

    @property
    def reads_time(self) -> bool:
        """Whether h depends on t (only a custom expression can)."""
        return self.kind == "custom" and "t" in self.expr.used_variables

    def at_nodes(self, x, y):
        """h as a function of (t, u) alone at the nodes (x[, y]), y None on
        an interval: the kind is dispatched and a custom expression bound
        here, once, so a call does only the arithmetic."""
        s = self.scale
        if self.kind == "zero":
            return lambda t, u: np.zeros_like(u)
        if self.kind == "log_poly":
            return lambda t, u: s * u * np.log1p(u * u)
        if self.kind == "odd_cubic":
            return lambda t, u: s * (u * u * u)
        bound = _on_nodes(self.expr.bind, x, y)
        return lambda t, u: _nodal(bound(t=t, u=u), u)

    def derivative(self, x, y, t, u):
        """h' at the nodes (x[, y]); a custom one is a central difference of :meth:`at_nodes`."""
        if self.kind == "zero":
            return np.zeros_like(u)
        if self.kind == "log_poly":
            u2 = u * u
            return self.scale * (np.log1p(u2) + 2.0 * u2 / (1.0 + u2))
        if self.kind == "odd_cubic":
            return 3.0 * self.scale * u * u
        h = self.at_nodes(x, y)
        step = 1e-7 * np.maximum(1.0, np.abs(u))
        return (h(t, u + step) - h(t, u - step)) / (2.0 * step)


def _nodal(vals, u) -> np.ndarray:
    """Expression values as a fresh float array of u's shape."""
    return np.broadcast_to(np.asarray(vals, dtype=float), np.shape(u)).copy()


def _refined(grid: SpatialGrid, factor: int) -> SpatialGrid:
    """``grid`` with each cell split into ``factor`` along every axis."""
    return SpatialGrid(grid.domain, *((n - 1) * factor + 1 for n in (grid.n_x, grid.n_y)
                                      if n is not None))


def _on_nodes(fn, x, y):
    """``fn`` (an expression, or its ``bind``) called at the nodes (x, y),
    y None on an interval."""
    return fn(x=x) if y is None else fn(x=x, y=y)


def _sample(expr: Expression, x, y) -> np.ndarray:
    """``expr`` at the nodes (x, y) as a fresh float array of x's shape."""
    return _nodal(_on_nodes(expr, x, y), x)


def reaction_zero() -> ReactionTerm:
    return ReactionTerm("zero")


def reaction_log_poly(scale: float = 1.0) -> ReactionTerm:
    return ReactionTerm("log_poly", scale=scale, growth_exponent=3.0,
                        growth_constant=max(2.0, 2.0 * scale), monotone=scale >= 0)


def reaction_odd_cubic(scale: float = 1.0) -> ReactionTerm:
    return ReactionTerm("odd_cubic", scale=scale, growth_exponent=3.0,
                        growth_constant=max(1.0, scale), monotone=scale >= 0)


# ---------------------------------------------------------------------------
# coefficients and boundary data


@dataclass(frozen=True)
class Coefficients:
    """Spatial coefficient expressions with their minima.

    ``declared_*_min`` override the sampled minima when the user knows
    the exact values (the sampling rule probes at 10x grid resolution).
    ``c`` may take negative values (destabilizing reaction); bound
    checking then refuses to assert anything, but simulation proceeds.
    """

    a: Expression
    c: Expression
    m: Expression | None = None
    declared_a_min: float | None = None
    declared_c_min: float | None = None
    declared_m_min: float | None = None

    def sampled_minima(self, grid: SpatialGrid):
        """(a, c, m) as (minimum, witness) pairs from one pass over the nodes
        of ``grid`` refined 10x (for m, its boundary nodes); see
        :func:`_sampled_minimum`.  Without m its pair is (None, None).

        a and c are evaluated on the axes, x as a row and y as a column (x
        alone on an interval), which broadcast to the refined grid without
        its coordinate meshes being built.
        """
        fine = _refined(grid, MINIMUM_SAMPLING_FACTOR)
        axes = (fine.x, None) if fine.n_y is None else (fine.x[None, :], fine.y[:, None])
        return [(declared, None) if expr is None else _sampled_minimum(expr, xy, declared)
                for expr, declared, xy in ((self.a, self.declared_a_min, axes),
                                           (self.c, self.declared_c_min, axes),
                                           (self.m, self.declared_m_min,
                                            node_coords(fine, boundary=True)))]


def _sampled_minimum(expr: Expression, xy, declared: float | None):
    """``expr``'s minimum over the nodes ``xy`` = (x, y), y None on an
    interval, and its witness: the first node (x[, y]), in row-major order
    of the broadcast coordinates, where it is attained.

    The first non-finite sample, if any, stands in for the minimum.  A
    declared minimum replaces a finite sampled one and has no witness.
    """
    coords = [c for c in xy if c is not None]
    shape = np.broadcast_shapes(*(c.shape for c in coords))
    vals = np.broadcast_to(np.asarray(_on_nodes(expr, *xy), dtype=float), shape)
    bad = np.flatnonzero(~np.isfinite(vals))
    if declared is not None and not bad.size:
        return declared, None
    at = np.unravel_index(int(bad[0]) if bad.size else int(np.argmin(vals)), shape)
    return float(vals[at]), tuple(float(np.broadcast_to(c, shape)[at]) for c in coords)


@dataclass(frozen=True)
class BoundarySpec:
    """Boundary condition kind plus the disturbance expression d(x[,y],t)."""

    kind: str
    data: Expression

    def __post_init__(self):
        if self.kind not in (ROBIN, DIRICHLET):
            raise ConfigError(f"unknown boundary kind {self.kind!r}")


@dataclass(frozen=True)
class Scenario:
    """One complete initial-boundary-value problem with disturbances."""

    grid: SpatialGrid
    horizon: float
    dt: float
    coefficients: Coefficients
    reaction: ReactionTerm
    forcing: Expression
    boundary: BoundarySpec
    u0: Expression
    bounds: CoefficientBounds | None = field(default=None, compare=False)
    c_min_raw: float = field(default=0.0, compare=False)

    @property
    def dim(self) -> int:
        return self.grid.dim

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.dt))

    def initial_values(self) -> np.ndarray:
        return _sample(self.u0, *node_coords(self.grid)).reshape(self.grid.shape)

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.n_steps * self.dt, self.n_steps + 1)


def growth_exponent_cap(dim: int) -> float:
    """The largest growth exponent of h the bounds admit on a ``dim``-D domain."""
    return 1.0 + 2.0 / dim


def make_scenario(grid: SpatialGrid, horizon: float, dt: float,
                  coefficients: Coefficients, reaction: ReactionTerm,
                  forcing: Expression, boundary: BoundarySpec,
                  u0: Expression) -> Scenario:
    """Validate and cache-complete a scenario (the assembly entry point)."""
    if not (math.isfinite(dt) and dt > 0):
        raise ConfigError("dt must be positive and finite")
    if not (math.isfinite(horizon) and horizon >= dt):
        raise ConfigError("horizon must be at least one step")
    n_steps = round(horizon / dt)
    if abs(n_steps * dt - horizon) > 1e-8 * max(1.0, horizon):
        raise ConfigError("horizon must be an integer multiple of dt")
    robin = boundary.kind == ROBIN
    if robin and coefficients.m is None:
        raise ConfigError("Robin boundary needs a trace coefficient m")
    minima = coefficients.sampled_minima(grid)
    # every sample finite, and a and (Robin) m positive: NaN fails either test
    for name, (v, at) in zip("acm" if robin else "ac", minima):
        if math.isfinite(v) and (name == "c" or v > 0):
            continue
        problem = "nonpositive" if math.isfinite(v) else "not finite"
        subject = f"coefficient {name}" if at else f"declared {name}_min"
        where = " at " + ", ".join(f"{k}={c:.6g}" for k, c in zip("xy", at)) if at else ""
        raise ConfigError(f"{subject} is {problem}{where} (value {v:.6g})")
    (a_min, _), (c_min, _), (m_min, _) = minima
    lam_cap = growth_exponent_cap(grid.dim)
    if not 1.0 <= reaction.growth_exponent <= lam_cap + 1e-12:
        raise ConfigError(
            f"growth exponent {reaction.growth_exponent} outside [1, {lam_cap}] for dimension {grid.dim}")
    bounds = None
    if c_min >= 0:  # m enters Robin data alone
        bounds = CoefficientBounds(a_min, c_min, m_min if robin else 1.0)
    sc = Scenario(grid, float(horizon), float(dt), coefficients, reaction,
                  forcing, boundary, u0, bounds=bounds, c_min_raw=c_min)
    sc.initial_values()  # fail early if u0 is not evaluable on the nodes
    return sc


# ---------------------------------------------------------------------------
# forcing and boundary data: (times × nodes) rows


def node_coords(grid: SpatialGrid, boundary: bool = False):
    """Flat coordinates (x, y) of the nodes, y None on an interval.

    With ``boundary`` only the boundary nodes, ordered as in
    :meth:`SpatialGrid.boundary_indices`.
    """
    if boundary:  # indexed off the axes, without the full meshes
        idx = grid.boundary_indices()
        if grid.n_y is None:
            return grid.x[idx], None
        iy, ix = np.divmod(idx, grid.n_x)
        return grid.x[ix], grid.y[iy]
    X, Y = grid.meshes()
    return np.ravel(X), None if Y is None else np.ravel(Y)


def data_rows(expr: Expression, coords):
    """``expr`` at the nodes ``coords`` = (x, y), as a function of sample times.

    The returned ``rows(times)`` gives a (len(times), n) array.  The
    coordinates are bound once, here, so what depends on them alone is
    computed once; t goes in as a column, so one call covers a whole
    block of times.  Data without t is thereby evaluated once, and its
    rows are a read-only broadcast view of one row.
    """
    x, y = coords
    fn = _on_nodes(expr.bind, x, y)

    def rows(times) -> np.ndarray:
        t = np.asarray(times, dtype=float)[:, None]
        return np.broadcast_to(np.asarray(fn(t=t), dtype=float), (t.size, x.size))

    return rows


# ---------------------------------------------------------------------------
# spatial operator assembly


class _Operator:
    """Stencil-diagonal A = -div(a grad u) + c u with Robin ghosts or Dirichlet rows.

    An interval is the one-row case (n_y = 1) of the five-point build on
    a rectangle.  Each stencil diagonal is built as a whole (n_y, n_x)
    array, and the diagonal sums its parts in the order c + x-part +
    y-part.  A Robin row folds the outside (ghost) neighbour into the
    inside one; a Dirichlet row is empty (identity added at stepping).
    """

    def __init__(self, grid: SpatialGrid, coeffs: Coefficients, kind: str):
        nx, ny = grid.n_x, grid.n_y or 1
        self.n = grid.n_nodes
        self.shape = (ny, nx)
        self.bindex = grid.boundary_indices()
        X, Y = grid.meshes()
        X = np.reshape(X, self.shape)
        a_at = partial(_sample, coeffs.a)
        iy, ix = np.indices(self.shape)
        # per axis: spacing, a at the lower and upper midpoints (including
        # the ones outside the domain), flat offset, node index, node count
        hx, hy = grid.h_x, grid.h_y
        axes = [(hx, a_at(X - hx / 2, Y), a_at(X + hx / 2, Y), 1, ix, nx)]
        if Y is not None:
            axes.append((hy, a_at(X, Y - hy / 2), a_at(X, Y + hy / 2), nx, iy, ny))
        if kind == ROBIN:
            rows = np.ones(self.shape, dtype=bool)
            m = np.zeros(self.n)
            m[self.bindex] = _sample(coeffs.m, *node_coords(grid, boundary=True))
            m = m.reshape(self.shape)
            a_bd = a_at(X, Y)
            g = np.zeros(self.shape)
        else:
            rows = ~grid.boundary_mask().reshape(self.shape)  # strong rows stay empty
        diag = _sample(coeffs.c, X, Y)
        stencil = []
        for h, a_lo, a_hi, offset, idx, count in axes:
            part = (a_lo + a_hi) / h ** 2
            lower, upper = -(a_lo / h ** 2), -(a_hi / h ** 2)
            if kind == ROBIN:
                lo_side, hi_side = idx == 0, idx == count - 1
                upper[lo_side], lower[hi_side] = -part[lo_side], -part[hi_side]
                for side, a_out in ((lo_side, a_lo), (hi_side, a_hi)):
                    part[side] += 2 * a_out[side] * m[side] / (a_bd[side] * h)
                    g[side] += -2 * a_out[side] / (a_bd[side] * h)
            diag = diag + part
            stencil += [(lower, -offset, rows & (idx > 0)), (upper, offset, rows & (idx < count - 1))]
        self.g_coef = g.ravel() if kind == ROBIN else None
        flat = np.arange(self.n).reshape(self.shape)
        R, C, V = [], [], []
        for vals, offset, present in [(diag, 0, rows)] + stencil:
            R.append(flat[present])
            C.append(flat[present] + offset)
            V.append(vals[present])
        A = sp.csr_matrix((np.concatenate(V), (np.concatenate(R), np.concatenate(C))),
                          shape=(self.n, self.n))
        A.eliminate_zeros()
        self.A = A


# ---------------------------------------------------------------------------
# time stepping


class TimeStepper:
    """Crank-Nicolson stepping engine bound to one scenario, or to a stack.

    ``forcing``/``boundary`` are None, for the scenario's expressions, or
    a (n_t, n) array of rows aligned with ``scenario.times()``: n is the
    node count for the forcing and the boundary-node count (in the order
    of :meth:`SpatialGrid.boundary_indices`) for the boundary data.
    Cascades pass upstream fields and traces this way.  :meth:`solve` walks the horizon
    in the blocks of :func:`time_blocks`, evaluating expression data one
    block at a time.  ``residual_log`` records the accepted Newton
    residual of every step.

    ``M+ = I + dt/2 A`` is factored once, here, at the scenario's ``dt``:
    LAPACK ``dgttrf`` on its three diagonals on an interval, or on a stack
    of intervals that is not a cycle (its block-diagonal ``M+`` is
    tridiagonal, with zero couplings at the block edges), SuperLU
    otherwise, through :func:`_sparse_lu`: minimum degree on ``Aᵀ + A``,
    and no pivoting, in symmetric mode, when every row of the matrix is
    strictly diagonally dominant, which keeps the elimination's growth
    factor at most 2.  One scenario's ``M+`` is dominant for every ``dt``
    when ``c >= 0``; a negative ``c`` or a cycle's coupling may break
    that, and then threshold pivoting is kept.  The full-Newton Jacobians
    off intervals follow the same rule.  A step meets the tolerance
    ``1e-12 max(1, |rhs|)`` within 50 Newton iterations (see
    :meth:`_measure`).

    The step's data enter as two terms (:meth:`data_terms`), which
    :meth:`march` forms once per time block: ``s = dt/2 (f0 + f1)``
    and ``d``, the Robin term ``dt/2 (g b0 + g b1)`` or the Dirichlet
    values at t+dt.  A linear stepper (no block has a reaction) takes each
    time block one solve with ``M+``'s factors per step, and then checks
    every step's residual ``M+ v - rhs`` in one ``csr_matvecs`` product
    against that step's own tolerance (:meth:`_linear_block`).  From the
    first step that misses it, a NaN included, the block is stepped again
    through :meth:`step_values`, which iterates, or raises at the same t
    with the same history, so values, errors and ``residual_log`` are
    those of stepping every step alone.

    With a reaction, :meth:`step_values` starts each step from a
    predictor: the linear step's solve, with h at t+dt extrapolated as
    ``2 h(u_n) - h(u_{n-1})`` when u is the state the previous call
    returned, and as ``h(u_n)`` otherwise.  The returned state is
    read-only, and the stepper keeps ``h(t+dt, v)`` of its last accepted
    iterate: a next call whose u is that very array reuses it as
    ``h(t, u)`` when t is the same float as that t+dt or no block's
    reaction reads t.  On an interval or an uncoupled stack of them, the
    step then takes damped full-Newton steps on ``M+ + dt/2 diag(h'(v))``,
    solved by :func:`solve_banded` (LAPACK ``dgtsv``): a tridiagonal
    Jacobian costs little more than a solve with ``M+``'s factors, and
    Newton meets the tolerance in one step where the chord step needs
    two or three.  On a rectangle or a cycle, where a Jacobian is a
    sparse factorization of its own, the step iterates the chord
    (simplified) Newton step ``v -= M+^{-1} F(v)`` (Kelley, *Iterative
    Methods for Linear and Nonlinear Equations*, ch. 5); a chord step
    that fails to halve the residual switches the rest of that step to
    damped full Newton.  Every nonlinear step makes at least one
    correction after its predictor: a chord step follows the iterate that
    met the tolerance when that is the predictor itself, or when the
    chord iteration found it (its iterates converge only linearly and
    meet the tolerance just barely), and is kept when it lowers the
    residual.  Dirichlet data is written into every iterate, so the
    boundary nodes hold it exactly.

    Products with ``A`` and ``M+`` call scipy's CSR kernel directly
    (:func:`_csr_product`), bitwise ``@``.  Finiteness is tested through
    the residual alone: a non-finite value in v, the data or the reaction
    makes ``M+ v - rhs`` non-finite, which raises :class:`SolverError`, so
    every accepted iterate is finite.

    A sequence of k scenarios in place of one is a stack: they share
    grid, ``dt``, horizon and boundary kind, and the state is their k
    fields end to end.  With ``cycle`` the blocks form a cycle, each fed
    by the one before it (block 0 by the last): ``A = blockdiag(A_j) + K``
    with K built by :meth:`_cycle_coupling`.  Crank-Nicolson then runs on
    that coupled operator, one step advancing all k fields; ``forcing`` and
    ``boundary`` rows hold the k blocks side by side.  Each block has its
    own reaction, data and tolerance: the step's residual is the largest
    block sup of F in units of that block's tolerance, and
    ``residual_log`` records it in those units.  Blocks that share one
    reaction have h evaluated in one call over the whole state.  Without
    ``cycle`` the blocks are independent scenarios; a linear stack steps
    each bitwise as it steps alone on an interval, and a nonlinear one
    iterates until every block meets its tolerance.  :meth:`march`
    returns one trajectory per block.
    """

    def __init__(self, scenario: Scenario | Sequence[Scenario], forcing=None, boundary=None,
                 cycle: bool = False):
        self.scenarios = [scenario] if isinstance(scenario, Scenario) else list(scenario)
        scenario = self.scenario = self.scenarios[0]
        g = scenario.grid
        self.grid = g
        self.kind = scenario.boundary.kind
        shared = (g, scenario.dt, scenario.n_steps, self.kind)
        if any((sc.grid, sc.dt, sc.n_steps, sc.boundary.kind) != shared for sc in self.scenarios):
            raise ValueError("a stack of scenarios shares grid, dt, horizon and boundary kind")
        self.k = k = len(self.scenarios)
        self.dt = dt = scenario.dt
        self.residual_log: list[float] = []
        ops = [_Operator(g, sc.coefficients, self.kind) for sc in self.scenarios]
        self.op = ops[0]
        self.A = self.op.A if k == 1 else sp.block_diag([op.A for op in ops], format="csr")
        if cycle:
            self.A = (self.A + self._cycle_coupling(ops)).tocsr()
        # tridiagonal M+: one interval, or a stack of them with zero couplings
        self._banded = g.dim == 1 and not cycle
        self._a_mul = _csr_product(self.A)
        self.bindex = (self.op.bindex + g.n_nodes * np.arange(k)[:, None]).ravel()
        self._linear = all(sc.reaction.is_zero for sc in self.scenarios)
        self.forcing = self._checked("forcing", forcing, k * g.n_nodes)
        self.boundary = self._checked("boundary", boundary, self.bindex.size)
        self._nodes = node_coords(g)
        bnodes = node_coords(g, boundary=True)
        self._f_rows = _side_by_side([data_rows(sc.forcing, self._nodes) for sc in self.scenarios])
        self._b_rows = _side_by_side([data_rows(sc.boundary.data, bnodes) for sc in self.scenarios])
        # each block's h as a function of (t, u), coordinates bound once; h'
        # (the full-Newton Jacobians) stays a ReactionTerm.derivative call,
        # which perfbench's tracer counts.  Blocks that share one reaction
        # share one call over the whole state, on the coordinates tiled k times.
        reactions, nodes = [sc.reaction for sc in self.scenarios], self._nodes
        if all(r == reactions[0] for r in reactions):
            reactions, nodes = reactions[:1], [None if c is None else np.tile(c, k) for c in nodes]
        self._h_fns = [r.at_nodes(*nodes) for r in reactions]
        self._dh_fns = [partial(r.derivative, *nodes) for r in reactions]
        self._reads_t = any(r.reads_time for r in reactions)
        self._last = None  # the last returned state, its time, h there and h one step before
        if self.kind == ROBIN:
            self._g_bd = np.concatenate([op.g_coef[op.bindex] for op in ops])
        self._m_plus = sp.identity(self.A.shape[0], format="csr") + dt / 2 * self.A
        self._m_mul = _csr_product(self._m_plus)
        self._m_csr = (self._m_plus.indptr, self._m_plus.indices, self._m_plus.data)
        if self._banded:
            self._tridiag = [self._m_plus.diagonal(off) for off in (-1, 0, 1)]
            *factors, info = dgttrf(*self._tridiag)
            if info:
                raise SolverError(f"M+ is singular for dt={dt:.6g}")
            self._solve = lambda b: dgttrs(*factors, b)[0]
        else:
            self._solve = _sparse_lu(self._m_plus).solve

    def _cycle_coupling(self, ops) -> sp.csr_matrix:
        """The block K[j, j-1] that feeds field j-1 into block j, for every j.

        Robin: the upstream trace is j's boundary data, so K[j, j-1] is
        ``diag(g_bd_j)`` on the boundary nodes.  Dirichlet: the upstream
        field is j's forcing, so K[j, j-1] is -I on j's interior rows.
        """
        g, n, k = self.grid, self.grid.n_nodes, self.k
        if self.kind == ROBIN:
            rows = self.op.bindex
            weights = [op.g_coef[rows] for op in ops]
        else:
            rows = np.flatnonzero(~g.boundary_mask().ravel())
            weights = [np.full(rows.size, -1.0)] * k
        starts = n * np.arange(k)[:, None]
        return sp.csr_matrix((np.concatenate(weights), ((starts + rows).ravel(),
                                                        (np.roll(starts, 1, axis=0) + rows).ravel())),
                             shape=(k * n, k * n))

    def _checked(self, name, rows, n):
        shape = (self.scenario.n_steps + 1, n)
        if rows is not None and np.shape(rows) != shape:
            raise ValueError(f"{name} rows have shape {np.shape(rows)}; "
                             f"the scenario's times need {shape}")
        return rows

    def _h(self, t, u, derivative=False):
        """Each block's reaction (or its u-derivative), zero on Dirichlet rows."""
        fns = self._dh_fns if derivative else self._h_fns
        vals = fns[0](t, u) if len(fns) == 1 else np.concatenate(
            [fn(t, ub) for fn, ub in zip(fns, u.reshape(self.k, -1))])
        if self.kind == DIRICHLET:
            vals[self.bindex] = 0.0
        return vals

    def _iterate(self, w, t1, d, rhs, measure):
        """A Newton iterate ``w`` with the Dirichlet values ``d`` written in, and
        its residual ``F(w) = M+ w + dt/2 h(t1, w) - rhs``, ``h(t1, w)`` (None
        without a reaction) and the measure of F."""
        if self.kind == DIRICHLET:
            w[self.bindex] = d
        fw = self._m_mul(w)
        fw -= rhs
        hw = None
        if not self._linear:
            hw = self._h(t1, w)
            fw += self.dt / 2 * hw
        return w, fw, hw, measure(fw)

    def _tolerances(self, rhs):
        """Each block's tolerance ``1e-12 max(1, sup |rhs|)``, for ``rhs`` of
        shape (..., k n): shape (..., k)."""
        blocks = rhs.reshape(*rhs.shape[:-1], self.k, -1)
        sups = np.maximum(blocks.max(axis=-1), -blocks.min(axis=-1))  # no copy of |rhs|
        return _REL_TOL * np.maximum(1.0, sups)

    def _measure(self, rhs):
        """The step's residual measure and the tolerance it must meet.

        One scenario: sup |F| against its tolerance (:meth:`_tolerances`,
        here in scalar arithmetic).  A stack takes each block's sup |F| in
        units of that block's own tolerance and reports the largest, against 1.
        """
        if self.k == 1:
            return _sup, _REL_TOL * max(1.0, _sup(rhs))
        return partial(_block_sup, self._tolerances(rhs)), 1.0

    def _newton_solve(self, v, t1, dt, b):
        """Solve with the Newton Jacobian M+ + dt/2 h'(v): :func:`solve_banded`
        on a tridiagonal stack, a SuperLU factorization of its own otherwise."""
        if self._linear:
            return self._solve(b)
        hp = dt / 2 * self._h(t1, v, derivative=True)
        if self._banded:
            lower, diag, upper = self._tridiag
            return solve_banded(lower, diag + hp, upper, b)
        return _sparse_lu(self._m_plus + sp.diags(hp)).solve(b)

    def _rhs(self, out, u, half_au, s, d):
        """``u - dt/2 A u + s`` into ``out`` (``half_au`` is dt/2 A u, plus
        dt/2 h(t, u) with a reaction), with the Robin term ``d`` subtracted
        at, or the Dirichlet values ``d`` written into, the boundary nodes."""
        rhs = np.add(s, u - half_au, out=out)
        if self.kind == ROBIN:
            rhs[self.bindex] -= d
        else:
            rhs[self.bindex] = d
        return rhs

    def data_terms(self, f_rows, b_rows):
        """The data terms of the steps between consecutive rows (samples ×
        nodes) of forcing ``f_rows`` and boundary data ``b_rows``, one row per
        step: ``s = dt/2 (f0 + f1)``, and ``d`` the Robin term
        ``dt/2 (g b0 + g b1)`` or the Dirichlet values ``b1``.

        Each term is the same element-wise arithmetic on the same values
        whether it is formed for one step or for a block of them.
        """
        half = self.dt / 2
        s = half * (f_rows[:-1] + f_rows[1:])
        if self.kind == ROBIN:
            return s, half * (self._g_bd * b_rows[:-1] + self._g_bd * b_rows[1:])
        return s, b_rows[1:]

    def step_values(self, u: np.ndarray, t: float, s, d) -> np.ndarray:
        """Advance nodal values from t to t+dt; returns the new values, read-only.

        ``s``/``d`` are the step's data terms: one row of each of
        :meth:`data_terms`.
        """
        if u.shape != self.A.shape[:1]:  # the CSR kernel reads u unchecked
            raise ValueError(f"state has shape {u.shape}; the stepper needs {self.A.shape[:1]}")
        dt = self.dt
        t1 = t + dt
        au = self._a_mul(u)
        hu = h_before = None
        if not self._linear:
            if self._last is not None and u is self._last[0]:  # read-only since it was returned
                _, t_last, h_last, h_before = self._last
                if t == t_last or not self._reads_t:
                    hu = h_last
            if hu is None:
                hu = self._h(t, u)
            au += hu
        half_au = dt / 2 * au
        rhs = self._rhs(np.empty(u.size), u, half_au, s, d)
        measure, tol = self._measure(rhs)
        # the first iterate solves for the change v - u: its rounding error
        # scales with that O(dt) change, where solving M+ v = rhs for v
        # outright leaves eps cond(M+) |v| per step to accumulate.  That is
        # the whole linear step; with a reaction, h at t+dt is taken as
        # 2 h(u) - h(u_prev) when u continues the last step, else as h(u)
        change = rhs - u - (half_au if h_before is None else dt / 2 * (au + (hu - h_before)))
        v, fv, hv, res = self._iterate(u + self._solve(change), t1, d, rhs, measure)
        history = []
        # a tridiagonal Jacobian costs about one solve with M+'s factors, so
        # a nonlinear interval stack takes full Newton steps from the start
        chord = self._linear or not self._banded
        for _ in range(50):
            history.append(res)
            # before the tolerance, which infinite data makes infinite too:
            # non-finite data or state, and no iterate can mend it
            if not math.isfinite(res):
                raise SolverError(f"non-finite residual at t={t1:.6g}", history)
            if res <= tol:
                break
            if chord:  # v - M+^{-1} F(v): bitwise v + M+^{-1}(-F(v))
                v_try, fv_try, hv_try, res_try = self._iterate(
                    v - self._solve(fv), t1, d, rhs, measure)
                if res_try <= res / 2 or res_try <= tol:
                    v, fv, hv, res = v_try, fv_try, hv_try, res_try
                    continue
                chord = False
            delta = self._newton_solve(v, t1, dt, -fv)
            damp = 1.0
            while damp >= 1e-6:
                v_try, fv_try, hv_try, res_try = self._iterate(v + damp * delta, t1, d, rhs,
                                                               measure)
                if res_try < res or res_try <= tol:
                    v, fv, hv, res = v_try, fv_try, hv_try, res_try
                    break
                damp /= 2
            else:  # stalled: v stands if F(v) is within the rounding of its evaluation,
                # 4 eps (|M+| |v| + dt/2 |h(v)| + |rhs|) (Oettli & Prager, Numer. Math. 6, 1964)
                size = abs(self._m_plus) @ np.abs(v) + np.abs(rhs)
                if hv is not None:
                    size += dt / 2 * np.abs(hv)
                if res > 4 * np.finfo(float).eps * measure(size):
                    raise SolverError(
                        f"Newton damping stalled at t={t1:.6g} (residual {res:.3e})", history)
                break
        else:
            if res > tol:
                raise SolverError(
                    f"Newton failed to reach tolerance at t={t1:.6g} (residual {res:.3e})", history)
        # with a reaction, a chord step follows the iterate that met the
        # tolerance when the chord iteration found it (its iterates converge
        # only linearly and meet the tolerance just barely) or when it is the
        # predictor itself: every step makes at least one correction
        if not self._linear and (chord or len(history) == 1):
            v_try, _, hv_try, res_try = self._iterate(v - self._solve(fv), t1, d, rhs, measure)
            if res_try < res:
                v, hv, res = v_try, hv_try, res_try
        history.append(res)
        self.residual_log.append(res)
        v.setflags(write=False)
        self._last = (v, t1, hv, hu)
        return v

    def _linear_block(self, vals, s, d, on_step, start) -> int:
        """Step a linear stack from ``vals[0]`` (sample ``start``) into ``vals[1:]``
        with the data terms ``s``/``d`` of :meth:`data_terms` and ``on_step`` of
        :meth:`march`: one solve per step, as :meth:`step_values` takes it, and then
        every step's residual checked in one product (:meth:`_row_measures`).  Returns
        the number of leading steps that met their tolerance; their residuals go to
        ``residual_log``."""
        rhs = np.empty(s.shape)
        stepped = vals if on_step is None else np.empty_like(vals)  # before on_step
        u = vals[0]
        for j in range(len(s)):
            half_au = self.dt / 2 * self._a_mul(u)
            self._rhs(rhs[j], u, half_au, s[j], d[j])
            u = u + self._solve(rhs[j] - u - half_au)
            if self.kind == DIRICHLET:
                u[self.bindex] = d[j]
            stepped[j + 1] = u
            if on_step is not None:
                u = vals[j + 1] = on_step(start + j + 1, u)
        res, tol = self._row_measures(stepped[1:], rhs)
        met = np.isfinite(res) & (res <= tol)  # infinite data makes tol infinite too
        passed = len(met) if met.all() else int(met.argmin())
        self.residual_log += res[:passed].tolist()
        return passed

    def _row_measures(self, states, rhs):
        """The residual measure of each row of :meth:`_residuals` and the
        tolerance it must meet, as :meth:`_measure` takes them for one step."""
        m = rhs.shape[0]
        fv = self._residuals(states, rhs)
        sups = np.abs(fv, out=fv).reshape(self.k, -1, m).max(axis=1).T
        tols = self._tolerances(rhs)
        if self.k == 1:
            return sups[:, 0], tols[:, 0]
        return (sups / tols).max(axis=1), np.ones(m)

    def _residuals(self, states, rhs):
        """``M+ v - rhs`` for each row v of ``states`` with its row of ``rhs``,
        as columns (nodes × rows): one ``csr_matvecs`` product, which sums
        each row of M+ in the order of ``csr_matvec``, so bitwise the
        residual of each step alone."""
        m, n = rhs.shape
        fv = np.zeros((n, m))
        csr_matvecs(n, n, m, *self._m_csr, np.ascontiguousarray(states.T), fv)
        fv -= rhs.T
        return fv

    def solve(self, on_block=None, sink=None) -> Trajectory | None:
        """The scenario's trajectory over its horizon, or with a ``sink`` none
        (see :meth:`march`, which also steps a stack)."""
        if self.k != 1:
            raise ValueError("a stack of scenarios is solved by march")
        trajs = self.march(on_block, None, sink)
        return None if trajs is None else trajs[0]

    def march(self, on_block, on_step, sink) -> list[Trajectory] | None:
        """One trajectory per scenario of the stack, each a column block of one
        array, or with a ``sink`` none: each time block is then stepped into a
        buffer of its own, handed to ``sink(sl, states)`` and dropped.

        ``on_block(sl, f, b)`` gets each block's slice of samples and its
        forcing and boundary rows before they are stepped, so a caller reads
        the data without evaluating it again; each step's new state v (sample
        i) is replaced by ``on_step(i, v)``, the residual v's.  Either may be
        None.  A linear stack takes each block through :meth:`_linear_block`,
        and from its first step that misses its tolerance on through
        :meth:`step_values`, which iterates, or raises as it would have.
        """
        sc, n = self.scenario, self.grid.n_nodes
        u = np.concatenate([s.initial_values().ravel() for s in self.scenarios]).astype(float)
        times = sc.times()
        out = None if sink is not None else np.empty((times.size, u.size))
        for sl in time_blocks(times.size, u.size):
            vals = out[sl] if sink is None else np.empty((sl.stop - sl.start, u.size))
            vals[0] = u  # u stays the object step_values returned, for its h reuse
            f = self.forcing[sl] if self.forcing is not None else self._f_rows(times[sl])
            b = self.boundary[sl] if self.boundary is not None else self._b_rows(times[sl])
            if on_block is not None:
                on_block(sl, f, b)
            s, d = self.data_terms(f, b)
            del f, b  # spent: freed before the linear block's buffers are made
            first = 0
            if self._linear:
                first = self._linear_block(vals, s, d, on_step, sl.start)
                u = vals[first]
            for j in range(first, len(s)):
                u = self.step_values(u, times[sl.start + j], s[j], d[j])
                u = vals[j + 1] = u if on_step is None else on_step(sl.start + j + 1, u)
            if sink is not None:
                sink(sl, vals)
        if sink is not None:
            return None
        out.setflags(write=False)  # handed over: each Trajectory keeps its block without a copy
        shape = (times.size, *sc.grid.shape)
        return [Trajectory(sc.grid, times, out[:, j * n:(j + 1) * n].reshape(shape))
                for j in range(self.k)]


def solve_banded(lower, diag, upper, b):
    """x with T x = b for the tridiagonal T of sub-, main and super-diagonals
    ``lower``, ``diag``, ``upper``; ``diag`` and ``b`` are overwritten.

    LAPACK ``dgtsv`` (elimination with partial pivoting): the routine that
    ``scipy.linalg.solve_banded((1, 1), ...)`` calls, so the same bits,
    without its argument checks.  The name is kept from that call, since
    perfbench's tracer counts the Newton Jacobian solves by it.
    """
    *_, x, info = dgtsv(lower, diag, upper, b, overwrite_d=1, overwrite_b=1)
    if info:
        raise SolverError("singular Newton Jacobian")
    return x


def _sparse_lu(m):
    """SuperLU factors of ``m``, ordered by minimum degree on ``mᵀ + m``.

    A matrix whose every row is strictly diagonally dominant is factored
    without pivoting, in symmetric mode: elimination then keeps the
    dominance and its growth factor is at most 2 (Higham, *Accuracy and
    Stability of Numerical Algorithms*, §9.5).  Any other keeps SuperLU's
    threshold pivoting.
    """
    m = m.tocsc()
    diag = np.abs(m.diagonal())
    if np.all(diag > abs(m) @ np.ones(m.shape[0]) - diag):
        return splu(m, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                    options=dict(SymmetricMode=True))
    return splu(m, permc_spec="MMD_AT_PLUS_A")


def _sup(fv) -> float:
    return float(np.abs(fv).max())


def _block_sup(tols, fv) -> float:
    """The largest block sup |F| of a stack, each in units of its block's tolerance."""
    return float((np.abs(fv).reshape(tols.size, -1).max(axis=1) / tols).max())


def _csr_product(M):
    """``x -> M @ x`` for a CSR ``M``: the kernel ``@`` ends in, into fresh
    zeros, without the dispatch.  ``x`` must hold ``M.shape[1]`` values."""
    n_rows, n_cols = M.shape
    args = (n_rows, n_cols, M.indptr, M.indices, M.data)

    def product(x):
        y = np.zeros(n_rows)
        csr_matvec(*args, x, y)
        return y

    return product


def _side_by_side(row_fns):
    """One ``rows(times)`` for a stack: each block's rows side by side."""
    if len(row_fns) == 1:
        return row_fns[0]
    return lambda times: np.hstack([rows(times) for rows in row_fns])


def solve(scenario: Scenario) -> Trajectory:
    """Solve the scenario over its horizon; samples at 0, dt, ..., T."""
    return TimeStepper(scenario).solve()


# ---------------------------------------------------------------------------
# manufactured-solution convergence measurement


@dataclass
class ConvergenceResult:
    p_space: float
    p_time: float
    space_errors: list
    time_errors: list

    @property
    def non_monotone(self) -> list[tuple[str, list]]:
        """(ladder, errors) of each ladder whose errors, above rounding level, do not decrease."""
        ladders = [(name, [e for _, e in errs])
                   for name, errs in (("space", self.space_errors), ("time", self.time_errors))]
        return [(name, vals) for name, vals in ladders
                if any(b > a * 1.0000001 for a, b in zip(vals, vals[1:])) and max(vals) > 1e-11]


def _sup_error(scenario: Scenario, exact: Expression) -> float:
    """sup |u - exact| over the nodes and samples, a time block at a time as u is stepped."""
    rows, times = data_rows(exact, node_coords(scenario.grid)), scenario.times()
    sink, errors = sup_sink(scenario.grid, times, lambda sl, states: states - rows(times[sl]))
    TimeStepper(scenario).solve(sink=sink)
    return float(errors().sups.max())


def _slope(pairs) -> float:
    hs = np.log([p[0] for p in pairs])
    es = np.array([p[1] for p in pairs])
    if np.max(es) < 1e-11:
        return math.inf  # errors at rounding level: stencil-exact
    es = np.log(np.maximum(es, 1e-300))
    coef = np.polyfit(hs, es, 1)
    return float(coef[0])


def convergence_order(scenario: Scenario, exact: Expression,
                      refinements: int) -> ConvergenceResult:
    """Measured convergence orders on h- and dt-refinement ladders.

    The space ladder halves h and dt together (both second order, so the
    slope in h is the combined order); the time ladder halves dt on the
    finest spatial grid, starting coarse enough for the time error to
    dominate.  Errors are sup-norms over all nodes and samples against
    the exact expression.  :attr:`ConvergenceResult.non_monotone` names
    the ladders whose errors do not decrease.
    """
    if refinements < 3:
        raise ValueError("need at least 3 refinement levels for a slope")
    space_cases = [replace(scenario, grid=_refined(scenario.grid, 2 ** lev),
                           dt=scenario.dt / 2 ** lev) for lev in range(refinements)]
    finest, dt0 = space_cases[-1].grid, scenario.horizon / 16.0
    time_cases = [replace(scenario, grid=finest, dt=dt0 / 2 ** lev) for lev in range(refinements)]

    space_errors = [(sc.grid.h_max, _sup_error(sc, exact)) for sc in space_cases]
    time_errors = [(sc.dt, _sup_error(sc, exact)) for sc in time_cases]
    return ConvergenceResult(_slope(space_errors), _slope(time_errors),
                             space_errors, time_errors)
