import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import iv

from pdesup.gains import (
    CoefficientBounds,
    cascade_bound,
    closed_loop_forcing_gain,
    closed_loop_iss_bound,
    geometry_factor,
    iss_bound,
    kernel_bound_constant,
    open_chain_coefficient,
    rkes_gains_dirichlet,
    rkes_gains_robin,
    small_gain_boundary,
    small_gain_domain,
    sobolev_constants_1d,
    superlinear_gain,
    superlinear_gain_prelimit,
)

C_S, C_P = sobolev_constants_1d()


def test_sobolev_constants_1d():
    assert C_P == pytest.approx(2 / math.sqrt(math.pi), rel=1e-15)
    assert C_S == pytest.approx(1 / math.sqrt(2), rel=1e-15)
    assert C_P == pytest.approx(1.1283792, abs=1e-7)
    assert C_S == pytest.approx(0.7071068, abs=1e-7)
    assert C_P**2 == pytest.approx(4 / math.pi, rel=1e-15)


def test_geometry_factor():
    assert geometry_factor(1.0, math.inf) == pytest.approx(2 ** 1.5, rel=1e-15)
    assert geometry_factor(1.0, 4.0) == pytest.approx(4.0, rel=1e-15)
    assert geometry_factor(2.0, math.inf) == pytest.approx(2 * 2 ** 1.5, rel=1e-15)
    with pytest.raises(ValueError):
        geometry_factor(1.0, 2.0)


def test_geometry_factor_large_q_limit():
    # convergence rate is ~ ln(2)/q relative at unit volume
    assert geometry_factor(1.0, 1e6) == pytest.approx(geometry_factor(1.0, math.inf), rel=1e-6)
    for vol in (0.5, 1.0, 3.0):
        assert geometry_factor(vol, 1e8) == pytest.approx(geometry_factor(vol, math.inf), rel=1e-7)


def test_rkes_gains_robin():
    g = rkes_gains_robin(CoefficientBounds(1, 1, 1), 1.0, C_S)
    assert g.l_f == pytest.approx(2 * math.sqrt(2), rel=1e-12)
    assert g.l_d == 1.0
    assert g.decay_rate == 1.0
    g2 = rkes_gains_robin(CoefficientBounds(1, 1, 2), 1.0, C_S)
    assert g2.l_d == 0.5
    with pytest.raises(ValueError):
        rkes_gains_robin(CoefficientBounds(1, 0, 1), 1.0, C_S)


def test_rkes_gains_dirichlet():
    # zero absorption: gain (C_P^2/a) * 2^(3/2) = 8*sqrt(2)/pi at unit volume
    g = rkes_gains_dirichlet(CoefficientBounds(1, 0), 1.0, C_S, C_P)
    assert g.l_f == pytest.approx(8 * math.sqrt(2) / math.pi, rel=1e-12)
    assert g.l_f == pytest.approx(3.6013, abs=1e-4)
    assert g.c_0 is None
    # c = 1: combined constant min{1, 4/pi} = 1 -> gain 2*sqrt(2)
    g2 = rkes_gains_dirichlet(CoefficientBounds(1, 1), 1.0, C_S, C_P)
    assert g2.c_0 == pytest.approx(1.0, rel=1e-15)
    assert g2.l_f == pytest.approx(2 * math.sqrt(2), rel=1e-12)
    assert g2.l_d == 1.0
    # combined constant never exceeds the c=0 branch
    assert g2.l_f <= g.l_f


def test_iss_bound_robin():
    g = rkes_gains_robin(CoefficientBounds(1, 1, 1), 1.0, C_S)
    assert iss_bound(0.0, 5.0, 0.0, 0.0, g) == 5.0
    b = iss_bound(1.0, 1.0, 0.1, 0.2, g)
    assert b == pytest.approx(math.exp(-1) + 2 * math.sqrt(2) * 0.1 + 0.2, rel=1e-12)
    assert b == pytest.approx(0.8507, abs=1e-4)
    # zero initial data: constant in t
    assert iss_bound(0.3, 0.0, 0.1, 0.2, g) == iss_bound(7.0, 0.0, 0.1, 0.2, g)
    with pytest.raises(ValueError):
        iss_bound(1.0, -1.0, 0.0, 0.0, g)


def test_iss_bound_dirichlet():
    g = rkes_gains_dirichlet(CoefficientBounds(1, 1), 1.0, C_S, C_P)
    assert iss_bound(0.0, 2.0, 0.0, 0.0, g) == 2.0
    b = iss_bound(1.0, 1.0, 0.3, 0.4, g)
    assert b == pytest.approx(math.exp(-1) + 2 * math.sqrt(2) * 0.3 + 0.4, rel=1e-12)
    # unit boundary gain: doubling d_sup adds exactly d_sup
    assert iss_bound(1.0, 1.0, 0.3, 0.8, g) - b == pytest.approx(0.4, rel=1e-12)
    g0 = rkes_gains_dirichlet(CoefficientBounds(1, 0), 1.0, C_S, C_P)
    with pytest.raises(ValueError):
        iss_bound(1.0, 1.0, 0.0, 0.0, g0)


def test_superlinear_gain():
    assert superlinear_gain(3, 1.0) == pytest.approx(36 * 2 ** 8.75, rel=1e-15)
    assert superlinear_gain(3, 1.0) == pytest.approx(15499.4, abs=0.1)
    assert superlinear_gain(4, 1.0) == pytest.approx(9 * 9 / 4 * 2 ** 9, rel=1e-15)
    assert superlinear_gain(4, 1.0) == 10368.0
    # doubling volume scales by 2^(2/n)
    assert superlinear_gain(3, 2.0) / superlinear_gain(3, 1.0) == pytest.approx(2 ** (2 / 3), rel=1e-12)
    with pytest.raises(ValueError):
        superlinear_gain(2, 1.0)


def test_superlinear_prelimit_converges_at_unit_volume():
    lim = superlinear_gain(3, 1.0)
    for q in (5.9, 5.99, 5.999):
        gap = abs(superlinear_gain_prelimit(3, 1.0, q) - lim) / lim
        assert gap < 0.05
    assert superlinear_gain_prelimit(3, 1.0, 6.0 - 1e-10) == pytest.approx(lim, rel=1e-8)


def test_kernel_bound_constant():
    m = kernel_bound_constant(1.0, 1.0)
    assert m == pytest.approx(98.4171, abs=1e-4)
    # independent Bessel identity: lam * I0(4 sqrt(lam))
    lam = 2.0
    assert m == pytest.approx(lam * iv(0, 4 * math.sqrt(lam)), rel=1e-11)
    # strictly increasing in sigma
    assert kernel_bound_constant(1.0, 2.0) > kernel_bound_constant(1.0, 1.0)
    with pytest.raises(OverflowError):
        kernel_bound_constant(2e4, 2e4)


def test_kernel_bound_bessel_identity_more():
    for c, sig in [(0.3, 0.2), (5, 1), (15, 1)]:
        lam = c + sig
        assert kernel_bound_constant(c, sig) == pytest.approx(
            lam * iv(0, 4 * math.sqrt(lam)), rel=1e-9)


def test_closed_loop_forcing_gain():
    assert closed_loop_forcing_gain(1.0) == pytest.approx(2 * math.sqrt(2), rel=1e-15)
    assert closed_loop_forcing_gain(15.0) == pytest.approx(2 * math.sqrt(2), rel=1e-15)
    assert closed_loop_forcing_gain(0.5) == pytest.approx(8 * math.sqrt(2) / math.pi, rel=1e-15)
    assert closed_loop_forcing_gain(0.5) == pytest.approx(3.6013, abs=1e-4)


def test_closed_loop_iss_bound_structure():
    m = kernel_bound_constant(1.0, 1.0)
    assert closed_loop_iss_bound(0.0, 2.0, 0.0, 0.0, 0.0, 1.0, 1.0) == pytest.approx(
        (1 + m) ** 2 * 2.0, rel=1e-12)
    b = closed_loop_iss_bound(1.0, 0.0, 1.0, 0.5, 0.25, 1.0, 1.0)
    assert b == pytest.approx((1 + m) * (2 * math.sqrt(2) + 0.75), rel=1e-12)


def test_small_gain_boundary():
    assert small_gain_boundary([2, 2, 2]) == 2
    assert small_gain_boundary([3, 0.5, 4]) == 0.5
    assert small_gain_boundary([7]) == 7
    with pytest.raises(ValueError):
        small_gain_boundary([])


@pytest.mark.parametrize("m_mins", [[math.nan], [1.0, math.nan], [math.nan, 1.0]])
def test_small_gain_boundary_refuses_a_nan_trace_minimum(m_mins):
    # min() would pass a NaN through, or hide it behind a number
    with pytest.raises(ValueError, match="must be positive"):
        small_gain_boundary(m_mins)


def test_small_gain_domain_preset():
    a0 = small_gain_domain([(10, 1)] * 3, 1.0, C_S, C_P)
    # exact: tau = (4/pi)/10, a0 = 10 pi / (4 * 2^(3/2))
    assert a0 == pytest.approx(10 * math.pi / (4 * 2 ** 1.5), rel=1e-12)
    assert a0 == pytest.approx(2.7769, abs=2e-3)
    a0_fail = small_gain_domain([(1, 1)] * 3, 1.0, C_S, C_P)
    assert a0_fail == pytest.approx(1 / 2 ** 1.5, rel=1e-12)
    assert a0_fail < 1


def test_small_gain_domain_scaling():
    # c=0 branch: scaling every a_min by s scales the constant by s
    base = small_gain_domain([(1, 0), (2, 0)], 1.0, C_S, C_P)
    scaled = small_gain_domain([(3, 0), (6, 0)], 1.0, C_S, C_P)
    assert scaled == pytest.approx(3 * base, rel=1e-12)


def test_small_gain_domain_uses_weakest_link():
    # heterogeneous chain: the larger coupling coefficient must bind
    mixed = small_gain_domain([(10, 1), (1, 1)], 1.0, C_S, C_P)
    weak = small_gain_domain([(1, 1)], 1.0, C_S, C_P)
    assert mixed == pytest.approx(weak, rel=1e-12)


def test_cascade_bound_robin_open():
    # a Robin chain has no boundary tails: zero d_sups, one per upstream subsystem
    # j=1: plain telescoping start
    assert cascade_bound(1, 2.0, 1.0, [0.0], 2.0, 0.0, 0.0, "open") == pytest.approx(2.0 + 0.5)
    # j=2, gain 2: coefficient 1.5
    assert cascade_bound(2, 1.0, 1.0, [0.0] * 2, 2.0, 0.0, 0.0, "open") == pytest.approx(1.5 + 0.25)
    # decay form
    b = cascade_bound(2, 1.0, 1.0, [0.0] * 2, 2.0, 0.7, 3.0, "open")
    assert b == pytest.approx(1.5 * math.exp(-2.1) + 0.25, rel=1e-12)


def test_cascade_bound_robin_cycle():
    assert cascade_bound(3, 1.5, 0.0, [0.0] * 3, 2.0, 0.0, 0.0, "cycle") == pytest.approx(3.0)
    with pytest.raises(ValueError, match="small-gain"):
        cascade_bound(3, 1.5, 0.0, [0.0] * 3, 0.5, 0.0, 0.0, "cycle")


def test_cascade_bound_dirichlet():
    # open, j=1: phi + f/2 + d_1
    assert cascade_bound(1, 1.0, 2.0, [0.3], 2.0, 0.0, 0.0, "open") == pytest.approx(1 + 1 + 0.3)
    # cycle, k=3, zero d: 2 * phi
    assert cascade_bound(3, 1.2, 0.0, [0, 0, 0], 2.0, 0.0, 0.0, "cycle") == pytest.approx(2.4)
    # cycle, k=2, unit d's: coupling tail (4/3)*(1/2+1) = 2
    b = cascade_bound(2, 0.0, 0.0, [1.0, 1.0], 2.0, 0.0, 0.0, "cycle")
    assert b == pytest.approx(2.0, rel=1e-12)
    with pytest.raises(ValueError, match="small-gain"):
        cascade_bound(2, 1.0, 0.0, [0, 0], 1.0, 0.0, 0.0, "cycle")


def test_cascade_bound_open_chain_needs_one_tail_per_upstream_subsystem():
    for d_sups in ([], [0.1], [0.1, 0.2, 0.3]):
        with pytest.raises(ValueError, match="upstream"):
            cascade_bound(2, 1.0, 0.5, d_sups, 2.0, 0.0, 0.0, "open")


def test_cascade_bound_robin_tails_add_nothing():
    # the zero tails of a Robin chain add exactly +0.0 to the telescoped bound
    for j in (1, 2, 3):
        b = cascade_bound(j, 0.7, 0.3, [0.0] * j, 1.7, 0.4, 1.3, "open")
        coeff = open_chain_coefficient(1.7, j)
        assert b == coeff * 0.7 * np.exp(-0.4 * 1.3) + 0.3 / 1.7 ** j
    assert cascade_bound(2, 0.7, 0.0, [0.0] * 3, 1.7, 0.4, 1.3, "cycle") == (
        1.7 / 0.7 * 0.7 * np.exp(-0.4 * 1.3))


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


# sample times and running sups as a checker passes them: the exponent
# arguments cover many binades, where numpy's and libm's exp can differ
_T = np.linspace(0.0, 3.0, 301)
_SUPS = [np.maximum.accumulate(np.abs(np.sin(w * _T + p))) for w, p in
         ((1.3, 0.2), (7.1, 1.0), (0.4, 2.5), (3.3, 0.0))]


def test_iss_bound_over_times_equals_its_scalar_calls():
    for g in (rkes_gains_robin(CoefficientBounds(1, 0.7, 2), 1.0, C_S),
              rkes_gains_dirichlet(CoefficientBounds(1, 1.3), 1.0, C_S, C_P)):
        arr = iss_bound(_T, 1.7, _SUPS[0], _SUPS[1], g)
        each = [iss_bound(t, 1.7, f, d, g) for t, f, d in zip(_T, _SUPS[0], _SUPS[1])]
        assert arr.shape == _T.shape
        assert np.array_equal(_bits(arr), _bits(each))


def test_closed_loop_iss_bound_over_times_equals_its_scalar_calls():
    f, d0, d1 = _SUPS[:3]
    arr = closed_loop_iss_bound(_T, 1.2, f, d0, d1, 15.0, 1.0)
    each = [closed_loop_iss_bound(t, 1.2, *s, 15.0, 1.0) for t, *s in zip(_T, f, d0, d1)]
    assert np.array_equal(_bits(arr), _bits(each))


@pytest.mark.parametrize("mode, n_tails", [("open", 3), ("cycle", 4)])
@pytest.mark.parametrize("c_min", [0.0, 0.9])
def test_cascade_bound_over_times_equals_its_scalar_calls(mode, n_tails, c_min):
    tails = _SUPS[:n_tails] if n_tails == 3 else _SUPS
    for d_sups in (tails, [np.zeros(_T.size)] * n_tails):  # a Dirichlet and a Robin chain
        arr = cascade_bound(3, 0.8, _SUPS[3], d_sups, 2.5, c_min, _T, mode)
        each = [cascade_bound(3, 0.8, _SUPS[3][i], [d[i] for d in d_sups], 2.5, c_min, t, mode)
                for i, t in enumerate(_T)]
        assert arr.shape == _T.shape
        assert np.array_equal(_bits(arr), _bits(each))


def test_a_negative_entry_anywhere_in_a_sups_array_raises():
    g = rkes_gains_robin(CoefficientBounds(1, 1, 1), 1.0, C_S)
    zeros = np.zeros(_T.size)
    for i in (0, 150, _T.size - 1):
        bad = zeros.copy()
        bad[i] = -1e-300
        with pytest.raises(ValueError, match="nonnegative"):
            iss_bound(_T, 1.0, bad, zeros, g)
        with pytest.raises(ValueError, match="nonnegative"):
            iss_bound(_T, 1.0, zeros, bad, g)
        with pytest.raises(ValueError, match="nonnegative"):
            closed_loop_iss_bound(_T, 1.0, zeros, zeros, bad, 1.0, 1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            cascade_bound(2, 1.0, bad, [zeros, zeros], 2.0, 0.0, _T, "open")
        with pytest.raises(ValueError, match="nonnegative"):
            cascade_bound(2, 1.0, zeros, [zeros, bad], 2.0, 0.0, _T, "open")
        with pytest.raises(ValueError, match="nonnegative"):
            cascade_bound(2, 1.0, zeros, [bad, zeros, zeros], 2.0, 0.0, _T, "cycle")
    with pytest.raises(ValueError, match="nonnegative"):
        iss_bound(-_T[::-1], 1.0, zeros, zeros, g)


def test_open_chain_coefficient_telescoping():
    for gain in (0.5, 1.0, 2.0, 3.7):
        for j in range(1, 8):
            explicit = sum(gain ** -i for i in range(j))
            assert open_chain_coefficient(gain, j) == pytest.approx(explicit, rel=1e-14)
            if gain != 1.0:
                closed = gain / (gain - 1) * (1 - gain ** -j)
                assert open_chain_coefficient(gain, j) == pytest.approx(closed, rel=1e-12)


@settings(max_examples=150, deadline=None)
@given(st.floats(0, 5), st.floats(0, 5), st.floats(0, 3), st.floats(0, 3),
       st.floats(0.01, 10), st.floats(0.01, 10))
def test_bound_monotonicity(u0s, fs, ds, t, tb, extra):
    g = rkes_gains_robin(CoefficientBounds(1, 0.5, 1), 1.0, C_S)
    b = iss_bound(t, u0s, fs, ds, g)
    # non-decreasing in each sup input
    assert iss_bound(t, u0s + extra, fs, ds, g) >= b
    assert iss_bound(t, u0s, fs + extra, ds, g) >= b
    assert iss_bound(t, u0s, fs, ds + extra, g) >= b
    # non-increasing in t
    assert iss_bound(t + tb, u0s, fs, ds, g) <= b + 1e-12
