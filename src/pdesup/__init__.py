"""Numerical lab for parabolic PDEs with boundary and in-domain disturbances.

Simulates interval/rectangle initial-boundary-value problems with Robin
or Dirichlet data, evaluates explicit sup-norm stability constants, and
machine-checks simulated trajectories against RKES/ISS/decay envelopes,
backstepping closed-loop bounds and cascade small-gain bounds.
"""

from .core import (
    DIRICHLET,
    ROBIN,
    Domain,
    SpatialGrid,
    Trajectory,
    diff_trajectory,
    grid_1d,
    grid_2d,
    interval,
    rectangle,
    sup_norm_spacetime,
)
from .expressions import Expression, ParseError, parse_expression

__all__ = [
    "DIRICHLET",
    "ROBIN",
    "Domain",
    "Expression",
    "ParseError",
    "SpatialGrid",
    "Trajectory",
    "diff_trajectory",
    "grid_1d",
    "grid_2d",
    "interval",
    "parse_expression",
    "rectangle",
    "sup_norm_spacetime",
]

__version__ = "0.1.0"
