"""Domain geometry, uniform grids and trajectories.

Everything downstream (solver, bound checkers, cascade machinery,
backstepping) works with the immutable containers defined here: a state
is a row of nodal values, and a :class:`Trajectory` holds one row per
time sample; a bound check reads only its :class:`SampleSups`, which a
solve can also record as it steps (:func:`sup_sink`).  Sup-norms are
taken over grid nodes only; refinement studies are the tool for
quantifying the nodal-vs-continuum gap.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

ROBIN = "robin"
DIRICHLET = "dirichlet"

INTERVAL = "interval"
RECTANGLE = "rectangle"


class ConfigError(ValueError):
    """Invalid scenario description."""


@dataclass(frozen=True)
class Domain:
    """An open interval (x_lo, x_hi) or axis-aligned rectangle."""

    kind: str
    x_lo: float
    x_hi: float
    y_lo: float | None = None
    y_hi: float | None = None

    def __post_init__(self):
        if self.kind not in (INTERVAL, RECTANGLE):
            raise ValueError(f"unknown domain kind {self.kind!r}")
        if not self.x_lo < self.x_hi:
            raise ValueError("domain requires x_lo < x_hi")
        if self.kind == RECTANGLE:
            if self.y_lo is None or self.y_hi is None:
                raise ValueError("rectangle requires y bounds")
            if not self.y_lo < self.y_hi:
                raise ValueError("domain requires y_lo < y_hi")

    @property
    def dim(self) -> int:
        return 1 if self.kind == INTERVAL else 2

    @property
    def volume(self) -> float:
        if self.kind == INTERVAL:
            return self.x_hi - self.x_lo
        return (self.x_hi - self.x_lo) * (self.y_hi - self.y_lo)


def interval(x_lo: float = 0.0, x_hi: float = 1.0) -> Domain:
    return Domain(INTERVAL, float(x_lo), float(x_hi))


def rectangle(x_lo, x_hi, y_lo, y_hi) -> Domain:
    return Domain(RECTANGLE, float(x_lo), float(x_hi), float(y_lo), float(y_hi))


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform tensor grid; boundary nodes lie exactly on the boundary."""

    domain: Domain
    n_x: int
    n_y: int | None = None
    x: np.ndarray = field(init=False, repr=False, compare=False)
    y: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n_x < 3:
            raise ValueError("n_x must be at least 3")
        if self.domain.kind == RECTANGLE:
            if self.n_y is None or self.n_y < 3:
                raise ValueError("rectangle grid needs n_y >= 3")
        elif self.n_y is not None:
            raise ValueError("interval grid must not set n_y")
        xs = np.linspace(self.domain.x_lo, self.domain.x_hi, self.n_x)
        xs.setflags(write=False)
        object.__setattr__(self, "x", xs)
        if self.n_y is not None:
            ys = np.linspace(self.domain.y_lo, self.domain.y_hi, self.n_y)
            ys.setflags(write=False)
            object.__setattr__(self, "y", ys)
        else:
            object.__setattr__(self, "y", None)

    @property
    def dim(self) -> int:
        return self.domain.dim

    @property
    def h_x(self) -> float:
        return (self.domain.x_hi - self.domain.x_lo) / (self.n_x - 1)

    @property
    def h_y(self) -> float | None:
        if self.n_y is None:
            return None
        return (self.domain.y_hi - self.domain.y_lo) / (self.n_y - 1)

    @property
    def h_max(self) -> float:
        return self.h_x if self.n_y is None else max(self.h_x, self.h_y)

    @property
    def shape(self) -> tuple:
        return (self.n_x,) if self.n_y is None else (self.n_y, self.n_x)

    @property
    def n_nodes(self) -> int:
        return self.n_x if self.n_y is None else self.n_x * self.n_y

    def meshes(self):
        """Coordinate arrays shaped like a field (X, Y); Y is None in 1-D."""
        if self.n_y is None:
            return self.x, None
        X, Y = np.meshgrid(self.x, self.y)
        return X, Y

    def node_location(self, flat_index: int):
        """(x[, y]) coordinates of a node given its flat row-major index."""
        if self.n_y is None:
            return (float(self.x[flat_index]),)
        iy, ix = divmod(flat_index, self.n_x)
        return (float(self.x[ix]), float(self.y[iy]))

    def boundary_mask(self) -> np.ndarray:
        """Boolean array over the field shape marking boundary nodes."""
        if self.n_y is None:
            m = np.zeros(self.n_x, dtype=bool)
            m[0] = m[-1] = True
            return m
        m = np.zeros((self.n_y, self.n_x), dtype=bool)
        m[0, :] = m[-1, :] = True
        m[:, 0] = m[:, -1] = True
        return m


def grid_1d(n_x: int, x_lo: float = 0.0, x_hi: float = 1.0) -> SpatialGrid:
    return SpatialGrid(interval(x_lo, x_hi), n_x)


def grid_2d(n_x: int, n_y: int, x_lo=0.0, x_hi=1.0, y_lo=0.0, y_hi=1.0) -> SpatialGrid:
    return SpatialGrid(rectangle(x_lo, x_hi, y_lo, y_hi), n_x, n_y)


class Trajectory:
    """Time-indexed fields on a shared grid, sampled at t_0=0 < ... < t_N.

    ``times`` and ``values`` are kept read-only.  A read-only float64
    array is taken over as it is; anything else (a list, a writeable or
    non-float64 array) is copied first, so the trajectory never aliases
    an array its caller can still write.
    """

    __slots__ = ("grid", "times", "values")

    def __init__(self, grid: SpatialGrid, times, values):
        times = _read_only(times)
        values = _read_only(values)
        if times.ndim != 1 or times.size == 0:
            raise ValueError("trajectory needs at least one time sample")
        if times[0] != 0.0:
            raise ValueError("trajectory must start at t=0")
        if np.any(np.diff(times) <= 0):
            raise ValueError("time samples must be strictly increasing")
        if values.shape != (times.size, *grid.shape):
            raise ValueError("trajectory values must have one field per sample")
        if not np.all(np.isfinite(values)):
            raise ValueError("trajectory contains non-finite values")
        self.grid = grid
        self.times = times
        self.values = values

    @property
    def n_samples(self) -> int:
        return self.times.size

    def sup_space_per_sample(self) -> np.ndarray:
        """max |u| over the nodes of each sample (see :func:`row_sups`)."""
        return self.sample_sups().sups

    def sample_sups(self) -> SampleSups:
        """Each sample's sup-norm and the first node attaining it, a time block
        at a time: numpy's argmax copies a read-only array whole."""
        flat = self.values.reshape(self.n_samples, -1)
        sink, samples = sup_sink(self.grid, self.times)
        for sl in time_blocks(*flat.shape):
            sink(sl, flat[sl])
        return samples()

    def __repr__(self):
        return f"Trajectory(samples={self.n_samples}, T={self.times[-1]:.6g})"


def _read_only(a) -> np.ndarray:
    if not (isinstance(a, np.ndarray) and a.dtype == np.float64 and not a.flags.writeable):
        a = np.array(a, dtype=float)
        a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class SampleSups:
    """What a bound check reads of a run of samples on ``grid`` at ``times``:
    each sample's sup-norm ``sups`` and ``nodes``, the flat index of the
    first node that attains it (see :func:`row_sups`)."""

    grid: SpatialGrid
    times: np.ndarray
    sups: np.ndarray
    nodes: np.ndarray

    def sample_sups(self) -> SampleSups:
        """The record itself, as :meth:`Trajectory.sample_sups` gives a trajectory's."""
        return self


def row_sups(rows) -> tuple[np.ndarray, np.ndarray]:
    """Each row's max |u| as max(|max u|, |min u|), with no full-size |u|
    made, and the first index where |u| attains it."""
    hi, lo = rows.argmax(axis=1), rows.argmin(axis=1)
    top, bottom = (np.abs(np.take_along_axis(rows, i[:, None], 1)[:, 0]) for i in (hi, lo))
    nodes = np.where(top == bottom, np.minimum(hi, lo), np.where(top > bottom, hi, lo))
    return np.maximum(top, bottom), nodes


def sup_sink(grid: SpatialGrid, times, rows_of=None):
    """A ``sink`` for :meth:`pdesup.solver.TimeStepper.march` that keeps the
    :class:`SampleSups` of ``rows_of(sl, states)`` (the states themselves
    without it) for each block of samples ``sl``, and a function that
    returns them once every block is in."""
    sups, nodes = np.empty(len(times)), np.empty(len(times), dtype=np.intp)

    def sink(sl, states):
        sups[sl], nodes[sl] = row_sups(states if rows_of is None else rows_of(sl, states))

    return sink, lambda: SampleSups(grid, times, sups, nodes)


BLOCK_VALUES = 2 ** 16  # data values held at once when a run of samples is streamed


def time_blocks(n_times: int, n: int) -> list[slice]:
    """A run of ``n_times`` samples of data on ``n`` nodes, in blocks.

    Each block holds at most max(2, 2**16 // n) rows, and adjacent blocks
    share one row, so every step's pair of samples lies in one block.
    """
    rows = max(2, BLOCK_VALUES // n)
    return [slice(s, min(s + rows, n_times)) for s in range(0, max(n_times - 1, 1), rows - 1)]
