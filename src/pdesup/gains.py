"""Explicit stability constants and bound evaluators.

Every gain a command reports or checks is computed here in closed form:
1-D embedding constants, the domain geometry factor, linear RKES gains
for Robin and Dirichlet boundary data, exponential ISS envelopes, the
super-linear in-domain gain for flat-boundary domains in dimension
n >= 3 (with its pre-limit form, the test oracle of that limit), the
kernel bound constant for the stabilizing boundary feedback, and the
small-gain constants plus the one chain bound (:func:`cascade_bound`)
for boundary- and domain-coupled cascades.

``q`` is the free integrability exponent of the underlying embedding;
``math.inf`` selects its limit value (the 1-D default).  The envelopes
are pure array formulas: times and sups may be arrays, one entry per
sample, each entry bitwise what a scalar call gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DIRICHLET, ROBIN, ConfigError


@dataclass(frozen=True)
class CoefficientBounds:
    """Minima of the diffusion, absorption and boundary-trace coefficients."""

    a_min: float
    c_min: float
    m_min: float = 1.0

    def __post_init__(self):
        if not self.a_min > 0:
            raise ValueError("a_min must be positive")
        if self.c_min < 0:
            raise ValueError("c_min must be nonnegative")
        if not self.m_min > 0:
            raise ValueError("m_min must be positive")


@dataclass(frozen=True)
class GainSet:
    """Linear sup-norm gains of one boundary kind.

    ``l_f`` multiplies the in-domain disturbance sup, ``l_d`` the
    boundary one (1/m_min for Robin data, exactly 1 for Dirichlet data);
    ``decay_rate`` drives the exponential envelope of the zero-input
    part.  ``c_0`` is the combined Dirichlet in-domain constant when
    c_min > 0, and None otherwise (always for Robin data).
    """

    l_f: float
    l_d: float
    decay_rate: float
    boundary_kind: str
    c_0: float | None = None

    def __post_init__(self):
        if not (self.l_f > 0 and self.l_d > 0):
            raise ValueError("gains must be positive")
        if self.decay_rate < 0:
            raise ValueError("decay rate must be nonnegative")
        if self.boundary_kind == DIRICHLET and self.l_d != 1.0:
            raise ValueError("Dirichlet boundary gain is exactly 1")


def sobolev_constants_1d() -> tuple[float, float]:
    """(C_S, C_P) for zero-trace functions on unit-length intervals.

    Valid for every integrability exponent q in (2, inf); C_P bounds the
    norm by the gradient alone, C_S by norm plus gradient.
    """
    return 1.0 / math.sqrt(2.0), 2.0 / math.sqrt(math.pi)


def embedding_constants(dim: int, c_s: float | None, c_p: float | None) -> tuple[float, float]:
    """(C_S, C_P): each one given, else its 1-D value; a rectangle needs both given."""
    if dim != 1 and (c_s is None or c_p is None):
        raise ConfigError("2-D bound checks need c_s and c_p in [check] "
                          "(conditional on supplied constants)")
    cs1, cp1 = sobolev_constants_1d()
    return (cs1 if c_s is None else c_s), (cp1 if c_p is None else c_p)


def geometry_factor(volume: float, q: float) -> float:
    """volume^((q-2)/q) * 2^((3q-4)/(2q-4)); q = inf gives volume * 2^(3/2)."""
    if volume <= 0:
        raise ValueError("volume must be positive")
    if q <= 2:
        raise ValueError("q must exceed 2")
    if math.isinf(q):
        return volume * 2.0 ** 1.5
    return volume ** ((q - 2.0) / q) * 2.0 ** ((3.0 * q - 4.0) / (2.0 * q - 4.0))


def rkes_gains_robin(cb: CoefficientBounds, volume: float, c_s: float,
                     q: float = math.inf) -> GainSet:
    """Linear RKES gains for Robin boundary data; requires c_min > 0.

    In-domain gain 2 C_S^2 / min(a_min, c_min) times the geometry
    factor; boundary gain 1/m_min; decay rate c_min.
    """
    if cb.c_min <= 0:
        raise ValueError("Robin sup-norm gains require c_min > 0")
    l_f = 2.0 * c_s * c_s / min(cb.a_min, cb.c_min) * geometry_factor(volume, q)
    return GainSet(l_f=l_f, l_d=1.0 / cb.m_min, decay_rate=cb.c_min, boundary_kind=ROBIN)


def rkes_gains_dirichlet(cb: CoefficientBounds, volume: float, c_s: float,
                         c_p: float, q: float = math.inf) -> GainSet:
    """Linear RKES gains for Dirichlet boundary data; boundary gain is 1.

    The in-domain gain is :func:`dirichlet_tau` times the geometry
    factor; ``c_0`` records tau when c_min > 0.
    """
    tau = dirichlet_tau(cb.a_min, cb.c_min, c_s, c_p)
    return GainSet(l_f=tau * geometry_factor(volume, q), l_d=1.0, decay_rate=cb.c_min,
                   c_0=tau if cb.c_min > 0 else None, boundary_kind=DIRICHLET)


def dirichlet_tau(a_min: float, c_min: float, c_s: float, c_p: float) -> float:
    """The Dirichlet in-domain coefficient: C_P^2/a_min, and with c_min > 0
    the smaller of that and 2 C_S^2/min(a_min, c_min)."""
    tau = c_p * c_p / a_min
    if c_min > 0:
        tau = min(2.0 * c_s * c_s / min(a_min, c_min), tau)
    return tau


def _check_sups(*vals):
    """Refuse a negative entry in any of ``vals`` (scalars or arrays)."""
    if any(np.any(np.asarray(v) < 0) for v in vals):
        raise ValueError("sup-norm inputs must be nonnegative")


def iss_bound(t, u0_sup, f_sup, d_sup, g: GainSet):
    """Exponential ISS envelope e^(-c t) u0_sup + l_f f_sup + l_d d_sup at the times t.

    One form for both boundary kinds: a Dirichlet gain set has l_d = 1,
    and its envelope needs c_min > 0.  ``t`` and the sups may be arrays.
    """
    if g.boundary_kind == DIRICHLET and g.decay_rate <= 0:
        raise ValueError("Dirichlet ISS envelope requires c_min > 0")
    _check_sups(t, u0_sup, f_sup, d_sup)
    return u0_sup * np.exp(-g.decay_rate * t) + g.l_f * f_sup + g.l_d * d_sup


def superlinear_gain(n: int, volume: float) -> float:
    """In-domain ISS gain 9(n-1)^2/(n-2)^2 volume^(2/n) 2^(n/4+8), n >= 3."""
    if n < 3:
        raise ValueError("super-linear gain needs dimension n >= 3")
    if volume <= 0:
        raise ValueError("volume must be positive")
    return 9.0 * (n - 1.0) ** 2 / (n - 2.0) ** 2 * volume ** (2.0 / n) * 2.0 ** (n / 4.0 + 8.0)


def superlinear_gain_prelimit(n: int, volume: float, q: float) -> float:
    """The same gain before taking q to its upper limit.

    24^2 (n-1)^2/(n-2)^2 * volume^((q-2)/q + ((2*-q)/(2* q))^2)
    * 2^((5q-8)/(2q-4)) for q in (2, 2*).  At unit volume this converges
    to :func:`superlinear_gain` as q -> 2*.
    """
    if n < 3:
        raise ValueError("needs dimension n >= 3")
    two_star = 2.0 * n / (n - 2.0)
    if not 2.0 < q < two_star:
        raise ValueError(f"q must lie in (2, {two_star})")
    expo = (q - 2.0) / q + ((two_star - q) / (two_star * q)) ** 2
    return 576.0 * (n - 1.0) ** 2 / (n - 2.0) ** 2 * volume ** expo * 2.0 ** ((5.0 * q - 8.0) / (2.0 * q - 4.0))


SERIES_TOL = 1e-12  # the kernel series stop once a term drops below this


def kernel_bound_constant(c: float, sigma: float) -> float:
    """Uniform bound on the feedback kernels: sum of (c+sigma)^(i+1) 4^i/(i!)^2.

    Terms decay factorially; summation stops when the next term drops
    below :data:`SERIES_TOL`.  Raises on overflow before convergence.
    """
    lam = c + sigma
    if not lam > 0:
        raise ValueError("c + sigma must be positive")
    term = lam
    total = term
    i = 0
    while term >= SERIES_TOL:
        i += 1
        term = term * lam * 4.0 / (i * i)
        total += term
        if not math.isfinite(total) or total > 1e300:
            raise OverflowError(f"kernel bound series overflowed; last partial sum {total:.6g}")
        if i > 100000:
            raise RuntimeError("kernel bound series failed to converge")
    return total


def closed_loop_forcing_gain(c: float) -> float:
    """In-domain gain of the stabilized closed loop: min(8*sqrt2/pi, 2*sqrt2/min(1,c))."""
    if not c > 0:
        raise ValueError("c must be positive")
    s2 = math.sqrt(2.0)
    return min(8.0 * s2 / math.pi, 2.0 * s2 / min(1.0, c))


def closed_loop_iss_bound(t, u0_sup, f_sup, d0_sup, d1_sup, c: float, sigma: float):
    """Exponential ISS envelope of the backstepping closed loop.

    (1+M) * ((1+M) u0_sup e^(-sigma t) + C f_sup + d0_sup + d1_sup) with
    M the kernel bound constant and C the closed-loop forcing gain;
    ``t`` and the sups may be arrays.
    """
    if not (c > 0 and sigma > 0):
        raise ValueError("c and sigma must be positive")
    _check_sups(t, u0_sup, f_sup, d0_sup, d1_sup)
    m = kernel_bound_constant(c, sigma)
    cgain = closed_loop_forcing_gain(c)
    return (1.0 + m) * ((1.0 + m) * u0_sup * np.exp(-sigma * t)
                        + cgain * f_sup + d0_sup + d1_sup)


def small_gain_boundary(m_mins) -> float:
    """Small-gain constant of a boundary-coupled chain: min of the trace minima."""
    m_mins = list(m_mins)
    if not m_mins:
        raise ValueError("need at least one subsystem")
    if any(not m > 0 for m in m_mins):  # a NaN fails too
        raise ValueError("boundary trace minima must be positive")
    return min(m_mins)


def small_gain_domain(per_subsystem, volume: float, c_s: float, c_p: float,
                      q: float = math.inf) -> float:
    """Small-gain constant of a domain-coupled chain.

    ``per_subsystem`` is a sequence of (a_min, c_min); each subsystem
    contributes its Dirichlet in-domain coefficient tau_j, and the chain
    constant must satisfy 1/gain >= geometry * tau_j for every link, so
    the largest tau_j is the binding one.
    """
    taus = []
    for a_min, c_min in per_subsystem:
        if a_min <= 0:
            raise ValueError("a_min must be positive")
        taus.append(dirichlet_tau(a_min, c_min, c_s, c_p))
    if not taus:
        raise ValueError("need at least one subsystem")
    return 1.0 / (geometry_factor(volume, q) * max(taus))


def open_chain_coefficient(gain: float, j: int) -> float:
    """Partial geometric sum 1 + 1/gain + ... + 1/gain^(j-1), by summation."""
    if j < 1:
        raise ValueError("chain position must be >= 1")
    total = 0.0
    p = 1.0
    for _ in range(j):
        total += p
        p /= gain
    return total


def cascade_bound(j: int, phi_j, input_sup, d_sups, gain: float, c_min_j: float, t,
                  mode: str):
    """Bound for subsystem j of a chain coupled on the boundary or over the domain.

    ``input_sup`` is the sup of subsystem 1's external input (Robin:
    boundary data; Dirichlet: forcing), ``d_sups`` the per-subsystem
    boundary sups (length j for open chains, k for cycles; zeros for a
    Robin chain).  Open chains telescope the initial-data constant
    against the inputs; cycles need gain > 1, take no input and bound
    every subsystem by gain/(gain-1) times the largest initial sup plus
    the boundary tail.  A positive ``c_min_j`` multiplies the
    initial-data term by its decay envelope (the spatial form); zero
    selects the space-time form.  ``t`` and the sups may be arrays.
    """
    _check_sups(phi_j, input_sup, t, *d_sups)
    decay = np.exp(-c_min_j * t) if c_min_j > 0 else 1.0
    if mode == "open":
        if len(d_sups) != j:
            raise ValueError("open chain needs one boundary sup per upstream subsystem")
        tail = sum(d_sups[i - 1] / gain ** (j - i) for i in range(1, j + 1))
        return open_chain_coefficient(gain, j) * phi_j * decay + input_sup / gain ** j + tail
    if mode == "cycle":
        if gain <= 1:
            raise ValueError("small-gain condition violated")
        k = len(d_sups)
        tail = sum(d_sups[i - 1] / gain ** (k - i) for i in range(1, k + 1))
        gk = gain ** k
        return gain / (gain - 1.0) * phi_j * decay + gk / (gk - 1.0) * tail
    raise ValueError(f"unknown mode {mode!r}")
