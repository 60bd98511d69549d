import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pdesup.core import (
    Trajectory,
    grid_1d,
    grid_2d,
    interval,
    rectangle,
)


def test_domain_volume():
    assert interval(0, 1).volume == 1.0
    assert interval(0, math.pi / 2).volume == math.pi / 2
    assert rectangle(0, 2, 0, 3).volume == 6.0


def test_domain_validation():
    with pytest.raises(ValueError):
        interval(1, 1)
    with pytest.raises(ValueError):
        rectangle(0, 1, 2, 2)


def test_grid_spacing_and_boundary_nodes():
    g = grid_1d(101, 0, 1)
    assert g.h_x == pytest.approx(0.01)
    assert g.x[0] == 0.0 and g.x[-1] == 1.0
    g2 = grid_2d(11, 21, 0, 1, 0, 2)
    assert g2.h_x == pytest.approx(0.1)
    assert g2.h_y == pytest.approx(0.1)
    assert g2.shape == (21, 11)
    with pytest.raises(ValueError):
        grid_1d(2)


def _sup_space(grid, values) -> float:
    """The spatial sup of one state, as a trajectory of one sample reads it."""
    return Trajectory(grid, [0.0], np.asarray(values)[None]).sup_space_per_sample()[0]


def test_sup_norm_zero_field():
    g = grid_1d(11)
    assert _sup_space(g, np.zeros(11)) == 0.0


def test_sup_per_sample_is_bitwise_the_max_of_abs():
    # max(|max u|, |min u|) per row, without a full-size |u|: -0 reads +0
    g = grid_2d(5, 3)
    rng = np.random.default_rng(7)
    values = rng.normal(size=(6, 3, 5)) * 10.0 ** rng.uniform(-300, 300, size=(6, 3, 5))
    values[1] = -0.0
    values[2] = 0.0
    values[3] = -np.abs(values[3])
    values[4, 0, 0] = -0.0
    values[5] = np.abs(values[5])
    sups = Trajectory(g, np.arange(6.0), values).sup_space_per_sample()
    expect = np.abs(values.reshape(6, -1)).max(axis=1)
    assert np.array_equal(sups.view(np.int64), expect.view(np.int64))
    assert math.copysign(1.0, sups[1]) == 1.0


def test_sup_norm_sine_on_node():
    g = grid_1d(101, 0, 1)
    assert _sup_space(g, np.sin(np.pi * g.x)) == pytest.approx(1.0, abs=1e-12)


def test_sup_norm_explicit_solution_sample():
    # 2 * sin(1) * sin(x) on (0, pi/2): the max sits on the right endpoint node
    g = grid_1d(101, 0, math.pi / 2)
    sup = _sup_space(g, 2 * math.sin(1.0) * np.sin(g.x))
    assert sup == pytest.approx(2 * math.sin(1.0), rel=1e-15)
    assert sup == pytest.approx(1.68294, abs=5e-6)


def test_spacetime_sup_single_zero_field():
    g = grid_1d(11)
    tr = Trajectory(g, [0.0], np.zeros((1, 11)))
    assert tr.sup_space_per_sample().max() == 0.0


def test_spacetime_sup_constant_field():
    g = grid_1d(11)
    tr = Trajectory(g, np.linspace(0, 4, 5), np.full((5, 11), 3.0))
    assert tr.sup_space_per_sample().max() == 3.0


def test_spacetime_sup_explicit_solution():
    # sin(t) sin(x) on (0, pi/2) x (0, 2] with a sample exactly at t = pi/2
    g = grid_1d(201, 0, math.pi / 2)
    times = np.sort(np.unique(np.concatenate([np.linspace(0, 2, 41), [math.pi / 2]])))
    vals = np.sin(times)[:, None] * np.sin(g.x)[None, :]
    tr = Trajectory(g, times, vals)
    assert tr.sup_space_per_sample().max() == pytest.approx(1.0, abs=1e-12)


def test_trajectory_validation():
    g = grid_1d(11)
    with pytest.raises(ValueError):
        Trajectory(g, [0.0, 0.0], np.zeros((2, 11)))
    with pytest.raises(ValueError):
        Trajectory(g, [0.5, 1.0], np.zeros((2, 11)))
    vals = np.zeros((2, 11))
    vals[1, 7] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        Trajectory(g, [0.0, 1.0], vals)
    with pytest.raises(ValueError):
        Trajectory(g, [0.0], np.zeros((2, 11)))


def _explicit_pair_traj(g, times, k):
    vals = k * np.sin(times)[:, None] * np.sin(g.x)[None, :]
    return Trajectory(g, times, vals)


def test_diff_trajectory_explicit_solutions():
    g = grid_1d(101, 0, math.pi / 2)
    times = np.linspace(0, 2, 21)
    t3 = _explicit_pair_traj(g, times, 3.0)
    t1 = _explicit_pair_traj(g, times, 1.0)
    expect = 2 * np.sin(times)[:, None] * np.sin(g.x)[None, :]
    assert np.max(np.abs(t3.values - t1.values - expect)) < 1e-12


def test_diff_identity_and_zero():
    g = grid_1d(11)
    times = np.linspace(0, 1, 5)
    a = Trajectory(g, times, np.random.default_rng(0).normal(size=(5, 11)))
    zero = Trajectory(g, times, np.zeros((5, 11)))
    assert np.all(Trajectory(g, times, a.values - a.values).values == 0)
    assert np.array_equal(Trajectory(g, times, a.values - zero.values).values, a.values)


@settings(max_examples=100, deadline=None)
@given(hnp.arrays(np.float64, (4, 11), elements=st.floats(-50, 50)),
       hnp.arrays(np.float64, (4, 11), elements=st.floats(-50, 50)))
def test_properties_on_random_trajectories(av, bv):
    g = grid_1d(11)
    times = np.linspace(0, 3, 4)
    ta = Trajectory(g, times, av)
    tb = Trajectory(g, times, bv)
    per = ta.sup_space_per_sample()
    # triangle inequality on each sample
    d = Trajectory(g, times, ta.values - tb.values)
    assert np.all(d.sup_space_per_sample() <= per + tb.sup_space_per_sample() + 1e-12)
    # antisymmetry
    assert np.array_equal(d.values, -(tb.values - ta.values))
