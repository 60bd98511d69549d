"""The trajectory writer's text: exactly ``format(v, ".17g")``, byte for byte.

``pdesup.floattext.text_block`` computes the 17 digits of a block of values
with numpy arithmetic (a Dekker two-product) and lays them out by %g's rule;
here its text is checked value by value against ``format``, on Hypothesis'
floats and on values chosen at the edges of its method, and
the trajectory writer's files against the per-sample ``%.17g`` template writer
they replaced.
"""

from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdesup.cli import _column
from pdesup.core import grid_1d, grid_2d
from pdesup.floattext import text_block

from helpers import write_trajectory


def _texts(values) -> list[str]:
    """The kernel's text of each value, without its line break."""
    v = np.asarray(values, dtype=float)
    out = np.full((v.size, 48), 255, np.uint8)  # every column must be written
    text_block(v.copy(), out)
    return [bytes(row).replace(b"\0", b"").decode("ascii")[:-1] for row in out]


def _edge_values() -> np.ndarray:
    """Neighbours of the powers of ten in and beyond the block digits' range,
    signed zeros and the least subnormal, exact ties of the 17th digit (|v| 10^p
    an odd multiple of 1/2) at p = 1, 2, 3, and 2^-25, a tie at p = 24."""
    powers = np.array([float(f"1e{k}") for k in range(-30, 19)])
    near = [powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf),
            np.nextafter(np.nextafter(powers, 0), 0)]
    odd = 2 * np.arange(2000) + 1
    ties = [10.0 ** (16 - p) + odd / 2.0 ** (p + 1) for p in (1, 2, 3)] + [[2.0 ** -25]]
    values = np.concatenate(near + ties + [[0.0, 5e-324, 1e-27, 9.999999999999998e15]])
    return np.concatenate([values, -values])


def test_text_matches_format_at_the_edges():
    values = _edge_values()
    for p, tie in [(p, 10.0 ** (16 - p) + 3 / 2.0 ** (p + 1)) for p in (1, 2, 3)] + [(24, 2.0 ** -25)]:
        assert (Fraction(tie) * 10 ** p).denominator == 2  # the ties are ties
    assert _texts(values) == [format(v, ".17g") for v in values.tolist()]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=64))
def test_text_matches_format(values):
    assert _texts(values) == [format(v, ".17g") for v in values]


def _template_trajectory(path, traj):
    """The writer the kernel replaced: each sample's ``t,x[,y],u`` rows as one
    ``%.17g`` template, filled with its values."""
    g = traj.grid
    header, nodes = "t,x,u\n", _column(g.x)
    if g.dim == 2:
        header, nodes = "t,x,y,u\n", [f"{x},{y}" for y in _column(g.y) for x in nodes]
    pieces = ["", *(f",{node},%.17g\n" for node in nodes)]
    values = np.asarray(traj.values, dtype=float).reshape(len(traj.times), -1)
    path.write_bytes((header + "".join(t.join(pieces) % tuple(row.tolist())
                                       for t, row in zip(_column(traj.times), values))).encode())


@pytest.mark.parametrize("grid, n_samples", [(grid_1d(101), 83), (grid_2d(70, 61), 3)],
                         ids=["1d-blocks-of-samples", "2d-samples-in-blocks"])
def test_trajectory_csv_matches_the_template_writer(tmp_path, grid, n_samples):
    # mixed magnitudes and signs over every layout, zeros included; the 1-D
    # file takes several blocks of whole samples, the 2-D one splits each
    # sample of 4270 values across two blocks
    rng = np.random.default_rng(7)
    shape = (n_samples, *grid.shape)
    values = rng.normal(size=shape) * 10.0 ** rng.integers(-30, 20, size=shape)
    values.reshape(-1)[::97] = 0.0
    traj = SimpleNamespace(grid=grid, times=np.linspace(0.0, 0.7, n_samples), values=values)
    write_trajectory(tmp_path / "new.csv", traj)
    _template_trajectory(tmp_path / "ref.csv", traj)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
