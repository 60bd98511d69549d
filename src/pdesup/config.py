"""Scenario-file parsing.

Scenario files are flat INI text with sections [domain], [grid],
[coefficients], [initial], [reaction], [disturbances], [boundary],
[cascade], [check]; every function-valued entry is an expression string
over x[, y] and t (radians, dimensionless).  See the README for the key
reference and examples.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, replace
from pathlib import Path

from .cascade import CascadeSpec, SubsystemSpec, build_cascade
from .core import SpatialGrid, grid_1d, grid_2d
from .expressions import Expression, ParseError, parse_expression
from .solver import (
    BoundarySpec,
    Coefficients,
    ConfigError,
    ReactionTerm,
    Scenario,
    growth_exponent_cap,
    make_scenario,
    reaction_log_poly,
    reaction_odd_cubic,
    reaction_zero,
)


def load_config(path) -> configparser.ConfigParser:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cp.optionxform = str
    try:
        cp.read_string(p.read_text(encoding="utf-8"))
    except configparser.Error as e:
        raise ConfigError(f"config parse error: {e}") from None
    return cp


def _space(cp) -> tuple:
    """The coordinate variables of the config's domain: x, plus y on a rectangle."""
    rect = cp.get("domain", "kind", fallback="interval").strip() == "rectangle"
    return ("x", "y") if rect else ("x",)


def _expr(cp, section, key, default=None, variables=None) -> Expression | None:
    """The expression under ``key``, over exactly the variables its
    evaluation supplies: by default the domain's coordinates and t."""
    text = cp.get(section, key, fallback=default)
    if text is None:
        return None
    try:
        return parse_expression(text, variables or _space(cp) + ("t",))
    except ParseError as e:
        raise ConfigError(f"[{section}] {key}: {e}") from None


def _float(cp, section, key, default=None) -> float | None:
    if not cp.has_option(section, key):
        return default
    raw = cp.get(section, key).strip()
    if raw.lower() in ("inf", "infinity"):
        return math.inf
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: not a number: {raw!r}") from None


def _finite(cp, section, key, default) -> float | None:
    v = _float(cp, section, key, default)
    if v is not None and not math.isfinite(v):
        raise ConfigError(f"[{section}] {key}: not a finite number: {v!r}")
    return v


def _int(cp, section, key, default=None) -> int | None:
    v = _finite(cp, section, key, default)
    if v is None:
        return None
    if v != int(v):
        raise ConfigError(f"[{section}] {key}: must be an integer, got {v!r}")
    return int(v)


def _positive(cp, section, key, default) -> float | None:
    v = _float(cp, section, key, default)
    if v is not None and not (math.isfinite(v) and v > 0):
        raise ConfigError(f"[{section}] {key}: must be positive and finite, got {v!r}")
    return v


def _exponent(cp, section, key) -> float:
    """An integrability exponent: greater than 2, or inf (the default)."""
    q = _float(cp, section, key, math.inf)
    if not q > 2:
        raise ConfigError(f"[{section}] {key}: must exceed 2 (or be inf), got {q!r}")
    return q


def _at_least_3(cp, section, key, default) -> int | None:
    """A node count, the refinement levels a convergence slope needs, or
    the dimension of a super-linear gain."""
    n = _int(cp, section, key, default)
    if n is not None and n < 3:
        raise ConfigError(f"[{section}] {key}: must be at least 3, got {n}")
    return n


def checked_tol(tol: float | None, name: str) -> float | None:
    """A check tolerance: None (each check's default), or finite and non-negative."""
    if tol is not None and not (math.isfinite(tol) and tol >= 0):
        raise ConfigError(f"{name}: must be finite and non-negative, got {tol!r}")
    return tol


def _bounds(cp, lo_key, hi_key) -> tuple[float, float]:
    lo = _float(cp, "domain", lo_key, 0.0)
    hi = _float(cp, "domain", hi_key, 1.0)
    if not lo < hi:
        raise ConfigError(f"[domain] {hi_key}: must exceed {lo_key}, got {lo!r}, {hi!r}")
    return lo, hi


def grid_from_config(cp) -> SpatialGrid:
    kind = cp.get("domain", "kind", fallback="interval").strip()
    x_lo, x_hi = _bounds(cp, "x_lo", "x_hi")
    n_x = _at_least_3(cp, "grid", "n_x", 101)
    if kind == "interval":
        return grid_1d(n_x, x_lo, x_hi)
    if kind == "rectangle":
        y_lo, y_hi = _bounds(cp, "y_lo", "y_hi")
        return grid_2d(n_x, _at_least_3(cp, "grid", "n_y", n_x), x_lo, x_hi, y_lo, y_hi)
    raise ConfigError(f"unknown domain kind {kind!r}")


# the catalog reactions by kind, each a function of its scale
_CATALOG = {"zero": lambda scale: reaction_zero(), "log_poly": reaction_log_poly,
            "odd_cubic": reaction_odd_cubic}


def _catalog_reaction(cp, key, kind, scale) -> ReactionTerm:
    """The catalog reaction ``kind``, refused under ``key`` where the growth
    exponent it implies exceeds the domain's cap."""
    reaction = _CATALOG[kind](scale)
    dim = len(_space(cp))
    cap = growth_exponent_cap(dim)
    if reaction.growth_exponent > cap:
        raise ConfigError(f"{key}: {kind} implies growth exponent {reaction.growth_exponent}, "
                          f"outside [1, {cap}] for dimension {dim}")
    return reaction


def reaction_from_config(cp) -> ReactionTerm:
    kind = cp.get("reaction", "kind", fallback="zero").strip()
    scale = _finite(cp, "reaction", "scale", 1.0)
    if kind in _CATALOG:
        return _catalog_reaction(cp, "[reaction] kind", kind, scale)
    if kind == "custom":
        expr = _expr(cp, "reaction", "expr", variables=_space(cp) + ("t", "u"))
        if expr is None:
            raise ConfigError("custom reaction needs expr")
        lam = _finite(cp, "reaction", "lambda", 1.0)
        c0 = _positive(cp, "reaction", "c0", 1.0)
        try:
            monotone = cp.getboolean("reaction", "monotone", fallback=False)
        except ValueError:
            raw = cp.get("reaction", "monotone")
            raise ConfigError(f"[reaction] monotone: not a boolean: {raw!r}") from None
        return ReactionTerm("custom", scale=scale, expr=expr, growth_exponent=lam,
                            growth_constant=c0, monotone=monotone)
    raise ConfigError(f"unknown reaction kind {kind!r}")


def coefficients_from_config(cp) -> Coefficients:
    return Coefficients(
        a=_expr(cp, "coefficients", "a", "1", _space(cp)),
        c=_expr(cp, "coefficients", "c", "0", _space(cp)),
        m=_expr(cp, "coefficients", "m", "1", _space(cp)),
        declared_a_min=_positive(cp, "coefficients", "a_min", None),
        declared_c_min=_finite(cp, "coefficients", "c_min", None),
        declared_m_min=_positive(cp, "coefficients", "m_min", None),
    )


def _boundary_expr(cp, grid, d_key) -> Expression:
    """One d(x[,y],t) expression; intervals may give d_left/d_right instead.

    Separate endpoint expressions are joined by linear interpolation in
    x, which is exact at the two nodes where the value is used.
    """
    lk, rk = d_key + "_left", d_key + "_right"
    if cp.has_option("disturbances", lk) or cp.has_option("disturbances", rk):
        if grid.dim != 1:
            raise ConfigError("d_left/d_right are for interval domains only")
        left = cp.get("disturbances", lk, fallback="0")
        right = cp.get("disturbances", rk, fallback="0")
        lo, hi = grid.domain.x_lo, grid.domain.x_hi
        span = hi - lo
        text = (f"(({left}))*(({hi!r})-x)/({span!r})"
                f"+(({right}))*(x-({lo!r}))/({span!r})")
        try:
            return parse_expression(text, ("x", "t"))
        except ParseError as e:
            raise ConfigError(f"[disturbances] d_left/d_right: {e}") from None
    return _expr(cp, "disturbances", d_key, "0")


def scenario_from_config(cp) -> Scenario:
    """Assemble the (single-system) scenario a config file describes."""
    grid = grid_from_config(cp)
    dt = _positive(cp, "grid", "dt", 1e-3)
    horizon = _positive(cp, "grid", "T", 1.0)
    kind = cp.get("boundary", "kind", fallback="dirichlet").strip().lower()
    f = _expr(cp, "disturbances", "f", "0")
    d = _boundary_expr(cp, grid, "d")
    u0 = _expr(cp, "initial", "u0", "0", _space(cp))
    return make_scenario(grid, horizon, dt, coefficients_from_config(cp),
                         reaction_from_config(cp), f, BoundarySpec(kind, d), u0)


def rkes_pair_from_config(cp) -> tuple[Scenario, Scenario]:
    """The two scenarios of a relative-stability check: (f,d) and (f2,d2).

    They differ in their data alone, so the second is the first with f2
    and d2 swapped in: the config is parsed and the scenario made once.
    """
    first = scenario_from_config(cp)
    second = replace(first, forcing=_expr(cp, "disturbances", "f2", "0"),
                     boundary=replace(first.boundary,
                                      data=_boundary_expr(cp, first.grid, "d2")))
    return first, second


def backstep_data_from_config(cp) -> tuple[Expression, Expression]:
    """The closed loop's boundary data (d0 at x = 0, d1 beside the control at x = 1) over t."""
    return tuple(_expr(cp, "disturbances", key, "0", ("t",)) for key in ("d0", "d1"))


def cascade_from_config(cp, settings: CheckSettings | None = None) -> CascadeSpec:
    """The cascade of the [cascade] section; embedding constants and q come
    from ``settings`` (by default the config's own [check] section)."""
    if not cp.has_section("cascade"):
        raise ConfigError("config has no [cascade] section")
    grid = grid_from_config(cp)
    dt = _positive(cp, "grid", "dt", 1e-3)
    horizon = _positive(cp, "grid", "T", 1.0)
    k = _int(cp, "cascade", "k")
    if k is None:
        raise ConfigError("[cascade] needs k")
    topology = cp.get("cascade", "topology", fallback="").strip()
    subs = []
    shared = {name: _expr(cp, "cascade", name, default, _space(cp))
              for name, default in (("a", "1"), ("c", "0"), ("m", "1"))}
    for j in range(1, k + 1):
        # a_j, c_j, m_j override the shared a, c, m
        coeffs = Coefficients(**{name: _expr(cp, "cascade", f"{name}_{j}", None, _space(cp))
                                 or expr for name, expr in shared.items()})
        u0 = _expr(cp, "cascade", f"phi_{j}", "0", _space(cp))
        rx_kind = cp.get("cascade", f"reaction_{j}", fallback="zero").strip()
        if rx_kind not in _CATALOG:
            raise ConfigError(f"unknown cascade reaction {rx_kind!r}")
        reaction = _catalog_reaction(cp, f"[cascade] reaction_{j}", rx_kind, 1.0)
        subs.append(SubsystemSpec(coeffs, reaction, u0))
    external_d = _expr(cp, "cascade", "d")
    external_f = _expr(cp, "cascade", "f")
    boundary_exprs = None
    if topology.startswith("dirichlet"):
        boundary_exprs = [_expr(cp, "cascade", f"d_{j}", "0") for j in range(1, k + 1)]
    settings = settings or check_settings_from_config(cp)
    return build_cascade(subs, topology, grid, dt, horizon, external_d=external_d,
                         external_f=external_f, boundary_exprs=boundary_exprs,
                         q=settings.q, c_s=settings.c_s, c_p=settings.c_p)


@dataclass(frozen=True)
class CheckSettings:
    q: float = math.inf
    tol: float | None = None
    c_s: float | None = None
    c_p: float | None = None
    c: float | None = None
    sigma: float | None = None
    n: int | None = None
    exact: Expression | None = None
    refinements: int = 4


def check_settings_from_config(cp) -> CheckSettings:
    if not cp.has_section("check"):
        return CheckSettings()
    return CheckSettings(
        q=_exponent(cp, "check", "q"),
        tol=checked_tol(_float(cp, "check", "tol"), "[check] tol"),
        c_s=_positive(cp, "check", "c_s", None),
        c_p=_positive(cp, "check", "c_p", None),
        c=_positive(cp, "check", "c", None),
        sigma=_positive(cp, "check", "sigma", None),
        n=_at_least_3(cp, "check", "n", None),
        exact=_expr(cp, "check", "exact"),
        refinements=_at_least_3(cp, "check", "refinements", 4),
    )
