"""Seeded scenario generators for the benchmark workloads.

``build(workload, seed, size, workdir, configs_dir)`` writes scenario
files into ``workdir`` and returns the operations of one round.  An
operation is one ``pdesup`` command on one scenario file; the program only
ever sees the file, never the workload name.  Each operation names its
output check, carries the exact solution where there is one, and counts
its node-steps: grid nodes times Crank-Nicolson steps, summed over every
trajectory the command computes.

Every function-valued entry is written as text in the scenario grammar.
The checks in ``checks.py`` evaluate the same text with numpy, apart from
the program.
"""

from __future__ import annotations

import configparser
import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("cli-configs", "suite-1d", "cascade-1d", "rect-2d")
SIZES = ("full", "small")

# 2-D bound checks are conditional on supplied embedding constants.
C_S_2D = 1.0
C_P_2D = 1.0


@dataclass
class Operation:
    name: str
    command: str
    config: Path
    node_steps: int
    check: str                      # which checker in checks.py
    exact: str | None = None        # exact solution, for manufactured scenarios


def _f(v: float) -> str:
    return f"({float(v)!r})"


def _ini(sections: dict) -> str:
    lines = []
    for sec, items in sections.items():
        lines.append(f"[{sec}]")
        lines.extend(f"{k} = {v}" for k, v in items.items())
        lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# manufactured solutions: sums of modes  amp * g(t) * S(x[,y])


@dataclass(frozen=True)
class Mode:
    """One separable term; every field is grammar text except ``g0``."""

    g: str      # time factor
    gp: str     # its derivative
    g0: float   # its value at t = 0
    S: str      # spatial factor
    Sx: str     # dS/dx
    Sy: str     # dS/dy ("0" on intervals)
    lap: str    # S_xx + S_yy

    def term(self, part: str) -> str:
        return f"{self.g}*{part}"


TIME_PROFILES = ("decay", "wave", "offset")


def _time_factor(rng: random.Random, kind: str):
    """(g, g', g(0)) for a decaying, oscillating or offset time profile."""
    if kind == "decay":
        b = rng.uniform(0.2, 1.5)
        return f"exp(-{_f(b)}*t)", f"(-{_f(b)})*exp(-{_f(b)}*t)", 1.0
    w = rng.uniform(1.0, 3.0)
    if kind == "wave":
        q = rng.uniform(0.0, 1.0)
        return f"cos({_f(w)}*t+{_f(q)})", f"(-{_f(w)})*sin({_f(w)}*t+{_f(q)})", math.cos(q)
    return f"(1+0.5*sin({_f(w)}*t))", f"(0.5*{_f(w)})*cos({_f(w)}*t)", 1.0


def _reaction_text(kind: str, scale: float, u: str) -> str | None:
    """h(u) for the catalog and custom reactions, or None for zero."""
    s = _f(scale)
    return {
        "zero": None,
        "log_poly": f"{s}*({u})*ln(1+({u})^2)",
        "odd_cubic": f"{s}*({u})^3",
        "abs_square": f"{s}*({u})*abs({u})",
        "sat_cubic": f"{s}*({u})^3/(1+({u})^2)",
    }[kind]


# custom 2-D reactions and their growth exponents (<= 2 in two dimensions)
_CUSTOM_2D = {"abs_square": 2.0, "sat_cubic": 1.0}


def _solution(modes, a: str, ax: str, ay: str, c: str):
    """(u*, forcing) for u_t - div(a grad u) + c u = f without the reaction."""
    U = "+".join(m.term(m.S) for m in modes)
    parts = []
    for m in modes:
        parts.append(f"+{m.gp}*{m.S}")
        parts.append(f"-({ax})*{m.term(m.Sx)}")
        if m.Sy != "0":
            parts.append(f"-({ay})*{m.term(m.Sy)}")
        parts.append(f"-({a})*{m.term(m.lap)}")
        parts.append(f"+({c})*{m.term(m.S)}")
    return U, "".join(parts)[1:]


def _sine_mode(rng, amp, profile, cosine=False) -> Mode:
    k = rng.uniform(1.0, 2.0)
    p = rng.uniform(0.0, math.pi)
    g, gp, g0 = _time_factor(rng, profile)
    arg = f"{_f(k)}*x+{_f(p)}"
    if cosine:
        S, Sx = f"{_f(amp)}*cos({arg})", f"(-{_f(amp * k)})*sin({arg})"
        lap = f"(-{_f(amp * k * k)})*cos({arg})"
    else:
        S, Sx = f"{_f(amp)}*sin({arg})", f"{_f(amp * k)}*cos({arg})"
        lap = f"(-{_f(amp * k * k)})*sin({arg})"
    return Mode(g, gp, g0, S, Sx, "0", lap)


def _initial_text(modes) -> str:
    return "+".join(f"{_f(m.g0)}*{m.S}" for m in modes if m.g0 != 0.0) or "0"


def _boundary_1d(modes, kind, a, m0, U):
    if kind == "dirichlet":
        return {"d": U}
    flux = "+".join(m.term(m.Sx) for m in modes)
    return {"d_left": f"-({a})*({flux})+{_f(m0)}*({U})",
            "d_right": f"({a})*({flux})+{_f(m0)}*({U})"}


def _suite_1d(rng: random.Random, size: str, workdir: Path) -> list[Operation]:
    n_iss, n_rkes = (8, 2) if size == "full" else (2, 1)
    n_x = 81
    dt = 2.5e-3
    ops = []
    reactions = ("zero", "log_poly", "odd_cubic")
    for i in range(n_iss + n_rkes):
        rkes = i >= n_iss
        kind = ("robin", "dirichlet")[i % 2]
        reaction = reactions[(i // 2) % 3]
        scale = rng.uniform(0.5, 2.0)
        steps = 320 if size == "full" else 40
        T = steps * dt
        a0, a1 = rng.uniform(0.6, 1.5), rng.uniform(0.0, 0.5)
        c0, c1 = rng.uniform(0.5, 2.0), rng.uniform(0.0, 1.0)
        m0 = rng.uniform(0.5, 2.0)
        a, c = f"{_f(a0)}+{_f(a1)}*x", f"{_f(c0)}+{_f(c1)}*x^2"
        modes = [_sine_mode(rng, rng.uniform(0.5, 1.2), TIME_PROFILES[i % 3])]
        U, f_lin = _solution(modes, a, _f(a1), "0", c)
        h = _reaction_text(reaction, scale, U)
        sections = {
            "domain": {"kind": "interval", "x_lo": "0", "x_hi": "1"},
            "grid": {"n_x": str(n_x), "dt": repr(dt), "T": repr(T)},
            "coefficients": {"a": a, "c": c, "m": _f(m0)},
            "initial": {"u0": _initial_text(modes)},
            "reaction": {"kind": reaction, "scale": repr(scale)},
            "disturbances": {"f": f_lin + (f"+{h}" if h else ""),
                             **_boundary_1d(modes, kind, a, m0, U)},
            "boundary": {"kind": kind},
            "check": {"q": "inf"},
        }
        if rkes:
            # second solution: same initial data, one more mode that starts at 0
            extra = _sine_mode(rng, rng.uniform(0.1, 0.5), "wave", cosine=True)
            w2 = rng.uniform(1.0, 3.0)
            extra = Mode(f"sin({_f(w2)}*t)", f"{_f(w2)}*cos({_f(w2)}*t)", 0.0,
                         extra.S, extra.Sx, "0", extra.lap)
            modes2 = modes + [extra]
            U2, f2_lin = _solution(modes2, a, _f(a1), "0", c)
            h2 = _reaction_text(reaction, scale, U2)
            bd2 = {k.replace("d", "d2", 1): v
                   for k, v in _boundary_1d(modes2, kind, a, m0, U2).items()}
            sections["disturbances"].update({"f2": f2_lin + (f"+{h2}" if h2 else ""), **bd2})
            command, check, work = "verify-rkes", "verdict", 2
        else:
            command, check, work = "verify-iss", "iss_exact", 1
        name = f"{command}-{i:02d}-{kind}-{reaction}"
        path = workdir / f"{name}.ini"
        path.write_text(_ini(sections), encoding="utf-8")
        ops.append(Operation(name, command, path, work * n_x * steps, check,
                             U if check == "iss_exact" else None))
    return ops


# ---------------------------------------------------------------------------
# rectangles


def _rect_mode(rng, kind, amp, lx, ly, profile) -> Mode:
    if kind == "robin":
        # cosine modes: zero normal derivative on all four sides (corners
        # included), so d = m u is one expression over the whole boundary
        kx, ky = math.pi / lx, math.pi / ly
        X, Y = f"cos({_f(kx)}*x)", f"cos({_f(ky)}*y)"
        dX, dY = f"(-{_f(kx)})*sin({_f(kx)}*x)", f"(-{_f(ky)})*sin({_f(ky)}*y)"
    else:
        kx, ky = rng.uniform(1.0, 3.0), rng.uniform(1.0, 3.0)
        px, py = rng.uniform(0, math.pi), rng.uniform(0, math.pi)
        X, Y = f"sin({_f(kx)}*x+{_f(px)})", f"sin({_f(ky)}*y+{_f(py)})"
        dX = f"{_f(kx)}*cos({_f(kx)}*x+{_f(px)})"
        dY = f"{_f(ky)}*cos({_f(ky)}*y+{_f(py)})"
    g, gp, g0 = _time_factor(rng, profile)
    S = f"{_f(amp)}*{X}*{Y}"
    return Mode(g, gp, g0, S, f"{_f(amp)}*{dX}*{Y}", f"{_f(amp)}*{X}*{dY}",
                f"(-{_f(kx * kx + ky * ky)})*{S}")


def _rect_2d(rng: random.Random, size: str, workdir: Path) -> list[Operation]:
    # (grid nodes per edge, steps, reaction) per operation; linear cases on
    # large grids, custom monotone reactions on small ones
    if size == "full":
        plan = [(81, 100, "zero"), (81, 100, "zero"), (61, 120, "zero"),
                (41, 60, "abs_square"), (41, 60, "sat_cubic")]
    else:
        plan = [(81, 10, "zero"), (41, 6, "abs_square")]
    ops = []
    for i, (n, steps, reaction) in enumerate(plan):
        kind = ("robin", "dirichlet")[i % 2]
        lx = rng.choice((1.0, 1.25)) if reaction == "zero" else 1.0
        ly = 1.0
        dt = 5e-3
        T = steps * dt
        nonlinear = reaction != "zero"
        scale = rng.uniform(0.5, 1.5)
        amp = rng.uniform(0.3, 0.7)
        a0, a1, a2 = rng.uniform(0.6, 1.2), rng.uniform(0.0, 0.3), rng.uniform(0.0, 0.3)
        c0, m0 = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
        a = f"{_f(a0)}+{_f(a1)}*x+{_f(a2)}*y"
        modes = [_rect_mode(rng, kind, amp, lx, ly, TIME_PROFILES[i % 3])]
        U, f_lin = _solution(modes, a, _f(a1), _f(a2), _f(c0))
        h = _reaction_text(reaction, scale, U)
        sections = {
            "domain": {"kind": "rectangle", "x_lo": "0", "x_hi": repr(lx),
                       "y_lo": "0", "y_hi": repr(ly)},
            "grid": {"n_x": str(n), "n_y": str(n), "dt": repr(dt), "T": repr(T)},
            "coefficients": {"a": a, "c": _f(c0), "m": _f(m0)},
            "initial": {"u0": _initial_text(modes)},
            "reaction": ({"kind": "zero"} if not nonlinear else
                         {"kind": "custom", "expr": _reaction_text(reaction, scale, "u"),
                          "lambda": repr(_CUSTOM_2D[reaction]),
                          "c0": repr(scale), "monotone": "true"}),
            "disturbances": {"f": f_lin + (f"+{h}" if h else ""),
                             "d": f"{_f(m0)}*({U})" if kind == "robin" else U},
            "boundary": {"kind": kind},
            "check": {"q": "inf", "c_s": repr(C_S_2D), "c_p": repr(C_P_2D)},
        }
        name = f"verify-iss-{i:02d}-rect{n}-{kind}-{reaction}"
        path = workdir / f"{name}.ini"
        path.write_text(_ini(sections), encoding="utf-8")
        ops.append(Operation(name, "verify-iss", path, n * n * steps, "iss_exact", U))
    return ops


# ---------------------------------------------------------------------------
# cascades


def _cascade_1d(rng: random.Random, size: str, workdir: Path) -> list[Operation]:
    topologies = ("robin-open", "robin-cycle", "dirichlet-open", "dirichlet-cycle")
    per_topology = 2 if size == "full" else 1
    n_x, dt = 61, 2e-3
    ops = []
    reactions = ("zero", "log_poly", "odd_cubic")
    for i in range(per_topology * len(topologies)):
        topology = topologies[i % len(topologies)]
        k = 3 if i < len(topologies) else 2
        steps = 300 if size == "full" else 30
        T = steps * dt
        robin = topology.startswith("robin")
        cycle = topology.endswith("cycle")
        cas = {"k": str(k), "topology": topology}
        for j in range(1, k + 1):
            # narrow ranges keep the Gauss-Seidel sweep and Newton counts,
            # and so the work of a round, nearly the same for every seed
            if robin:
                a, c = rng.uniform(0.8, 1.5), rng.uniform(0.8, 1.5)
                m = rng.uniform(2.0, 2.5)     # cycles need min m_j > 1
            else:
                # domain-coupled cycles need a small-gain constant above one
                a, c = (rng.uniform(4.5, 5.0), rng.uniform(3.5, 4.0)) if cycle else \
                       (rng.uniform(0.8, 1.5), rng.uniform(0.8, 1.5))
                m = 1.0
            phi = (f"{_f(rng.uniform(0.4, 0.8))}*sin({1 + j % 2}*pi*x"
                   f"+{_f(rng.uniform(0, 0.5))})")
            cas.update({f"a_{j}": _f(a), f"c_{j}": _f(c), f"m_{j}": _f(m),
                        f"phi_{j}": phi, f"reaction_{j}": reactions[(i + j) % 3]})
        if topology == "robin-open":
            cas["d"] = f"{_f(rng.uniform(0.1, 0.5))}*sin({_f(rng.uniform(0.5, 3.0))}*t)"
        if topology == "dirichlet-open":
            cas["f"] = (f"{_f(rng.uniform(0.2, 1.0))}*sin(pi*x)"
                        f"*cos({_f(rng.uniform(0.5, 3.0))}*t)")
        if not robin:
            for j in range(1, k + 1):
                cas[f"d_{j}"] = f"{_f(rng.uniform(0.0, 0.2))}*sin({_f(rng.uniform(0.5, 3.0))}*t)"
        sections = {
            "domain": {"kind": "interval", "x_lo": "0", "x_hi": "1"},
            "grid": {"n_x": str(n_x), "dt": repr(dt), "T": repr(T)},
            "cascade": cas,
        }
        name = f"cascade-{i:02d}-{topology}-k{k}"
        path = workdir / f"{name}.ini"
        path.write_text(_ini(sections), encoding="utf-8")
        ops.append(Operation(name, "cascade", path, k * n_x * steps, "cascade"))
    return ops


# ---------------------------------------------------------------------------
# the shipped configs


# (config file, command); the pairing the README gives, plus `simulate`
CLI_PAIRS = (
    ("heat_decay.ini", "verify-decay"),
    ("iss_robin.ini", "verify-iss"),
    ("rkes_explicit_pair.ini", "verify-rkes"),
    ("backstep.ini", "backstep"),
    ("cascade_robin_open.ini", "cascade"),
    ("convergence.ini", "convergence"),
    ("iss_robin.ini", "gains"),
    ("iss_robin.ini", "simulate"),
)


def read_ini(path: Path) -> configparser.ConfigParser:
    """A scenario file as the program reads it: inline comments, keys as written."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cp.optionxform = str
    cp.read_string(Path(path).read_text(encoding="utf-8"))
    return cp


def _node_steps_of(cp: configparser.ConfigParser, command: str) -> int:
    """Node-steps of every trajectory the command computes from this file."""
    n_x = cp.getint("grid", "n_x")
    n_y = cp.getint("grid", "n_y", fallback=1)
    dt = cp.getfloat("grid", "dt")
    T = cp.getfloat("grid", "T")
    steps = round(T / dt)
    if command in ("verify-decay", "verify-iss", "simulate", "backstep"):
        return n_x * n_y * steps
    if command == "verify-rkes":
        return 2 * n_x * n_y * steps
    if command == "cascade":
        return cp.getint("cascade", "k") * n_x * steps
    if command == "convergence":
        # space ladder halves h and dt together; time ladder runs on the
        # finest grid from dt0 = T/16 (see solver.convergence_order)
        r = cp.getint("check", "refinements", fallback=4)
        total = sum(((n_x - 1) * 2 ** lev + 1) * round(T / (dt / 2 ** lev)) for lev in range(r))
        finest = (n_x - 1) * 2 ** (r - 1) + 1
        total += sum(finest * 16 * 2 ** lev for lev in range(r))
        return total
    return 0  # gains: no trajectory


def _cli_configs(configs_dir: Path, size: str, workdir: Path) -> list[Operation]:
    ops = []
    for i, (fname, command) in enumerate(CLI_PAIRS):
        path = configs_dir / fname
        cp = read_ini(path)
        if size == "small":
            _shrink(cp, command)
            path = workdir / f"{i:02d}-{command}-{fname}"
            with path.open("w", encoding="utf-8") as fh:
                cp.write(fh)
        ops.append(Operation(f"{command}:{fname}", command, path,
                             _node_steps_of(cp, command), _CLI_CHECKS[command]))
    return ops


_CLI_CHECKS = {"verify-decay": "verdict", "verify-iss": "iss_config",
               "verify-rkes": "verdict", "backstep": "backstep", "cascade": "cascade",
               "convergence": "convergence", "gains": "gains", "simulate": "simulate"}


def _shrink(cp: configparser.ConfigParser, command: str) -> None:
    """Smallest size: the same scenario over a few steps (self-check only)."""
    if command == "convergence":
        cp.set("check", "refinements", "3")
        return
    dt = cp.getfloat("grid", "dt")
    cp.set("grid", "T", repr(10 * dt))
    if command == "backstep":
        cp.set("grid", "n_x", "21")


# ---------------------------------------------------------------------------


def warmup_operations(workload: str, workdir: Path, configs_dir: Path) -> list[Operation]:
    """Tiny inputs covering the commands of a workload, to pay first-call costs."""
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "cli-configs":
        ops = _cli_configs(configs_dir, "small", workdir)
        for op in ops:
            if op.command == "backstep":
                # a small kernel parameter keeps the 201x201 series short
                cp = read_ini(op.config)
                cp.set("check", "c", "0.5")
                cp.set("check", "sigma", "0.5")
                with op.config.open("w", encoding="utf-8") as fh:
                    cp.write(fh)
        return ops
    return build(workload, 0, "small", workdir, configs_dir)


def build(workload: str, seed: int, size: str, workdir: Path,
          configs_dir: Path) -> list[Operation]:
    """Write the scenario files of one round and return its operations."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "cli-configs":
        return _cli_configs(configs_dir, size, workdir)
    rng = random.Random(f"{workload}:{seed}")
    gen = {"suite-1d": _suite_1d, "cascade-1d": _cascade_1d, "rect-2d": _rect_2d}[workload]
    return gen(rng, size, workdir)
