"""Command-line experiment orchestration and CSV emission.

Commands: simulate, gains, verify-iss, verify-rkes, verify-decay,
backstep, cascade, convergence.  Exit codes: 0 all checks pass (or
nothing asserted), 1 a bound check failed, 2 configuration or parse
error, 3 numerical failure (a Newton step that fails, non-finite values,
a kernel series that fails its checks or overflows, or an array too
large for memory).

CSV outputs are byte-deterministic for a fixed config and version:
every float is the text of ``format(v, ".17g")``, UTF-8, LF line endings.
Trajectory CSVs are written at most 4096 values at a time, their text
computed by numpy arithmetic (:mod:`pdesup.floattext`), whatever the horizon.
"""

from __future__ import annotations

import argparse
import math
import sys
from itertools import repeat
from pathlib import Path

import numpy as np

from . import backstepping, cascade as cascade_mod, harness
from .config import (
    backstep_data_from_config,
    cascade_from_config,
    check_settings_from_config,
    checked_tol,
    load_config,
    rkes_pair_from_config,
    scenario_from_config,
)
from .core import DIRICHLET, ROBIN
from .expressions import ParseError, is_zero
from .gains import (
    closed_loop_forcing_gain,
    embedding_constants,
    geometry_factor,
    kernel_bound_constant,
    rkes_gains_dirichlet,
    rkes_gains_robin,
    sobolev_constants_1d,
    superlinear_gain,
)
from .solver import ConfigError, SolverError, TimeStepper, convergence_order

EXIT_PASS = 0
EXIT_BOUND_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERICAL = 3


def _fmt(v) -> str:
    return "nan" if v is None else format(float(v), ".17g")


def _column(values) -> list[str]:
    """Numbers (None reads as nan) printed as :func:`_fmt` prints them."""
    return list(map(format, np.asarray(values, dtype=float).ravel().tolist(), repeat(".17g")))


def _rows(*columns):
    """One CSV row (UTF-8 bytes) per index of equal-length columns of strings."""
    return map(str.encode, map((",".join(["{}"] * len(columns)) + "\n").format, *columns))


def _quote(text: str) -> str:
    """An RFC 4180 field: quoted when it holds a comma, a quote or a line break."""
    if any(ch in text for ch in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _write_csv(path: Path, header, chunks):
    """Write the header line, then each chunk (whole rows, bytes) as it comes."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        fh.writelines(chunks)


def _write_rows(path: Path, header, rows):
    """A small table given row by row; a column of str is written through :func:`_quote`."""
    columns = [[row[k] for row in rows] for k in range(len(header))]
    _write_csv(path, header, _rows(*(list(map(_quote, c)) if all(isinstance(v, str) for v in c)
                                     else _column(c) for c in columns)))


def _write_trajectory(path: Path, traj):
    """``t,x[,y],u`` rows, each number ``format(v, ".17g")``'s text, written by
    :func:`pdesup.floattext.csv_blocks` at most 4096 values at a time."""
    from .floattext import csv_blocks  # imported by the commands that write one

    g = traj.grid
    header, nodes = ("t", "x", "u"), _column(g.x)
    if g.dim == 2:  # x runs fastest, as in the row-major values
        header, nodes = ("t", "x", "y", "u"), [f"{x},{y}" for y in _column(g.y) for x in nodes]
    values = np.asarray(traj.values, dtype=float).reshape(len(traj.times), -1)
    _write_csv(path, header, csv_blocks(_column(traj.times), nodes, values))


def _write_report(path: Path, reports):
    """One row per check; a missing witness reads nan, and so does y in 1-D."""
    locs = [rep.worst_location or (math.nan, math.nan) for rep in reports]
    _write_csv(path, ("check", "verdict", "worst_margin", "witness_x", "witness_y",
                      "witness_t", "notes"), _rows(
        [rep.check for rep in reports],
        [rep.verdict for rep in reports],
        _column([rep.worst_margin for rep in reports]),
        _column([loc[0] for loc in locs]),
        _column([loc[1] if len(loc) == 3 else math.nan for loc in locs]),
        _column([loc[-1] for loc in locs]),
        [_quote(rep.notes) for rep in reports],
    ))


def _gain_set(scenario, settings):
    c_s, c_p = embedding_constants(scenario.dim, settings.c_s, settings.c_p)
    vol = scenario.grid.domain.volume
    if scenario.boundary.kind == ROBIN:
        return rkes_gains_robin(scenario.bounds, vol, c_s, settings.q)
    return rkes_gains_dirichlet(scenario.bounds, vol, c_s, c_p, settings.q)


def _exit_from_report(rep) -> int:
    if rep.verdict == harness.FAIL:
        return EXIT_BOUND_FAILED
    return EXIT_PASS


def _conclude(out: Path, label: str, rep) -> int:
    """Write ``report.csv``, print the verdict line and return the exit code."""
    _write_report(out / "report.csv", [rep])
    why = f"; {rep.notes}" if rep.notes else ""
    print(f"{label}: {rep.verdict} (worst margin {_fmt(rep.worst_margin)}{why})")
    return _exit_from_report(rep)


def _iss_gains(sc, settings):
    """The gain set ``check_iss`` needs, or None when it asserts nothing."""
    return _gain_set(sc, settings) if harness.iss_hypotheses_met(sc) else None


def _solve_iss(out: Path, sc, g, settings, keep: bool):
    """Solve ``sc``, check it against the ISS envelope and write
    ``supnorms.csv``, with the running data sups read off the rows the
    solve evaluated; returns the trajectory (None unless ``keep``: the
    sups are then recorded as it steps), the report and its per-sample sups."""
    record, running = harness.block_data_sups(sc.n_steps + 1, pair=False)
    sink, streamed = harness.sup_sink(sc.grid, sc.times())
    traj = TimeStepper(sc).solve(record, None if keep else sink)
    samples = traj.sample_sups() if keep else streamed()
    f_sups, d_sups = running()
    rep = harness.check_iss(samples, sc, g, settings.tol, f_sups=f_sups, d_sups=d_sups)
    sups = samples.sups
    bounds = rep.details.bound if len(rep.details) else np.full(sups.size, math.nan)
    _write_csv(out / "supnorms.csv", ("t", "sup_space", "running_sup_f", "running_sup_d",
                                      "bound", "margin"),
               _rows(*map(_column, (samples.times, sups, f_sups, d_sups, bounds, bounds - sups))))
    return traj, rep, sups


def cmd_simulate(cp, out: Path, settings) -> int:
    sc = scenario_from_config(cp)
    g = _iss_gains(sc, settings)  # a config error here comes before the solve
    traj, _, sups = _solve_iss(out, sc, g, settings, True)
    _write_trajectory(out / "trajectory.csv", traj)
    print(f"simulated {traj.n_samples} samples; final sup-norm {sups[-1]:.6g}")
    return EXIT_PASS


def cmd_gains(cp, out: Path, settings) -> int:
    c_s, c_p = sobolev_constants_1d()
    rows = [
        ("c_s_1d", c_s, "1-D embedding constant, norm+gradient form"),
        ("c_p_1d", c_p, "1-D embedding constant, zero-trace gradient form"),
    ]
    sc = scenario_from_config(cp)
    vol = sc.grid.domain.volume
    q = settings.q
    rows.append(("geometry_factor", geometry_factor(vol, q),
                 f"volume^((q-2)/q) * 2^((3q-4)/(2q-4)) at volume={_fmt(vol)}, q={_fmt(q)}"))
    defined = harness.rkes_gains_defined(sc)
    if defined:
        g = _gain_set(sc, settings)
        rows.append(("l_f", g.l_f, "in-domain sup-norm gain"))
        rows.append(("l_d", g.l_d, "boundary sup-norm gain"))
        rows.append(("decay_rate", g.decay_rate, "zero-input exponential rate"))
        if g.c_0 is not None:
            rows.append(("c_0", g.c_0, "combined Dirichlet in-domain constant"))
    if settings.c is not None and settings.sigma is not None:
        m = kernel_bound_constant(settings.c, settings.sigma)
        rows.append(("M", m, f"kernel series bound at c={_fmt(settings.c)}, "
                             f"sigma={_fmt(settings.sigma)}"))
        rows.append(("C", closed_loop_forcing_gain(settings.c),
                     "closed-loop in-domain gain"))
    if settings.n is not None:
        rows.append(("superlinear_gain", superlinear_gain(settings.n, vol),
                     f"flat-boundary in-domain gain at n={settings.n}, volume={_fmt(vol)}"))
    _write_rows(out / "gains.csv", ("name", "value", "provenance"), rows)
    for name, value, _ in rows:
        print(f"{name} = {_fmt(value)}")
    if not defined:
        print(f"no l_f, l_d, decay_rate: {harness.gains_undefined_note(sc)}")
    return EXIT_PASS


def cmd_verify_iss(cp, out: Path, settings) -> int:
    sc = scenario_from_config(cp)
    g = _iss_gains(sc, settings)
    return _conclude(out, "iss", _solve_iss(out, sc, g, settings, False)[1])


def cmd_verify_rkes(cp, out: Path, settings) -> int:
    sc1, sc2 = rkes_pair_from_config(cp)
    g = _gain_set(sc1, settings) if harness.rkes_gains_defined(sc1) else None
    record, running = harness.block_data_sups(sc1.n_steps + 1, pair=True)
    n = sc1.grid.n_nodes  # the pair steps as one stack: v1 and v2 side by side
    sink, difference = harness.sup_sink(sc1.grid, sc1.times(),
                                        lambda sl, states: states[:, :n] - states[:, n:])
    TimeStepper([sc1, sc2]).march(record, None, sink)
    f_sups, d_sups = running()
    return _conclude(out, "rkes", harness.check_rkes(difference(), (sc1, sc2), g, settings.tol,
                                                     f_sups=f_sups, d_sups=d_sups))


def cmd_verify_decay(cp, out: Path, settings) -> int:
    sc = scenario_from_config(cp)
    if sc.c_min_raw <= 0:
        raise ConfigError(f"[coefficients] c: decay check needs c_min > 0 "
                          f"(minimum {_fmt(sc.c_min_raw)})")
    for key, expr in (("f", sc.forcing), ("d", sc.boundary.data)):
        if not is_zero(expr):
            raise ConfigError(f"[disturbances] {key}: decay check needs zero disturbances")
    sink, streamed = harness.sup_sink(sc.grid, sc.times())
    TimeStepper(sc).solve(sink=sink)
    samples = streamed()  # its first sup is u0's
    rep = harness.check_decay(samples, sc.bounds.c_min, float(samples.sups[0]), settings.tol)
    return _conclude(out, "decay", rep)


def cmd_backstep(cp, out: Path, settings) -> int:
    if settings.c is None or settings.sigma is None:
        raise ConfigError("[check] needs c and sigma for the closed loop")
    sc = scenario_from_config(cp)
    if sc.dim != 1:
        raise ConfigError("[domain] kind: backstep needs the unit interval, not a rectangle")
    dom = sc.grid.domain
    for key, value, end in (("x_lo", dom.x_lo, 0.0), ("x_hi", dom.x_hi, 1.0)):
        if value != end:
            raise ConfigError(f"[domain] {key}: backstep needs {key} = {end:g}, got {value!r}")
    if sc.boundary.kind != DIRICHLET:  # the loop sets u(0) = d0 and u(1) = d1 + U
        raise ConfigError(f"[boundary] kind: backstep needs dirichlet, got {sc.boundary.kind}")
    # the loop steps u_t = u_xx + c u, c from [check]: refuse the plant keys it would ignore
    for key, expr, value in (("a", sc.coefficients.a, 1.0), ("c", sc.coefficients.c, 0.0)):
        if np.any(np.asarray(expr(x=sc.grid.x)) != value):
            raise ConfigError(f"[coefficients] {key}: backstep needs {key} = {value:g} on the "
                              "nodes (its plant is u_t = u_xx + c u, c from [check])")
    if not sc.reaction.is_zero:
        raise ConfigError(f"[reaction] kind: backstep needs zero, got {sc.reaction.kind}")
    if not is_zero(sc.boundary.data):
        raise ConfigError("[disturbances] d: backstep needs d = 0 (its data are d0 and d1)")
    res = backstepping.simulate_closed_loop(
        settings.c, settings.sigma, sc.u0, sc.forcing, *backstep_data_from_config(cp),
        sc.grid, sc.dt, sc.horizon, tol=settings.tol)
    _write_trajectory(out / "trajectory.csv", res.u)
    _write_trajectory(out / "trajectory_target.csv", res.w)
    m = kernel_bound_constant(settings.c, settings.sigma)
    _write_rows(out / "gains.csv", ("name", "value", "provenance"), [
        ("M", m, "kernel series bound"),
        ("C", closed_loop_forcing_gain(settings.c), "closed-loop in-domain gain"),
        ("max_kernel", res.kernel.triangle_max_abs(), "series kernel sup"),
    ])
    return _conclude(out, "closed loop", res.report)


def cmd_cascade(cp, out: Path, settings) -> int:
    spec = cascade_from_config(cp, settings)
    trajs = cascade_mod.simulate_cascade(spec)
    rep = cascade_mod.verify_cascade(spec, trajs, settings.tol)
    for j, tr in enumerate(trajs, start=1):
        _write_csv(out / f"supnorms_{j}.csv", ("t", "sup_space"),
                   _rows(_column(tr.times), _column(tr.sup_space_per_sample())))
    _write_report(out / "report.csv", [rep])
    print(f"cascade[{spec.topology}]: {rep.verdict} "
          f"(small-gain {_fmt(spec.small_gain)}; worst margin {_fmt(rep.worst_margin)})")
    return _exit_from_report(rep)


def cmd_convergence(cp, out: Path, settings) -> int:
    sc = scenario_from_config(cp)
    if settings.exact is None:
        raise ConfigError("[check] needs exact = <expression> for convergence")
    res = convergence_order(sc, settings.exact, settings.refinements)
    rows = [("space", h, e) for h, e in res.space_errors]
    rows += [("time", d, e) for d, e in res.time_errors]
    _write_rows(out / "convergence.csv", ("ladder", "step", "sup_error"), rows)
    _write_rows(out / "orders.csv", ("direction", "order"), [
        ("space", res.p_space), ("time", res.p_time)])
    print(f"orders: space {_fmt(res.p_space)}, time {_fmt(res.p_time)}")
    for name, errors in res.non_monotone:
        print(f"{name} errors do not decrease monotonically: {', '.join(map(_fmt, errors))}")
    return EXIT_PASS


_COMMANDS = {
    "simulate": cmd_simulate,
    "gains": cmd_gains,
    "verify-iss": cmd_verify_iss,
    "verify-rkes": cmd_verify_rkes,
    "verify-decay": cmd_verify_decay,
    "backstep": cmd_backstep,
    "cascade": cmd_cascade,
    "convergence": cmd_convergence,
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="pdesup",
        description="simulate disturbed parabolic PDEs and verify sup-norm stability bounds")
    p.add_argument("command", choices=sorted(_COMMANDS))
    p.add_argument("--config", required=True, help="scenario file (INI sections)")
    p.add_argument("--out", default="out", help="output directory for CSV artifacts")
    p.add_argument("--tol", type=float, default=None,
                   help="override the default check tolerance")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cp = load_config(args.config)
        settings = check_settings_from_config(cp)
        if args.tol is not None:
            from dataclasses import replace
            settings = replace(settings, tol=checked_tol(args.tol, "--tol"))
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        # overflow and NaN are caught where they matter (a non-finite
        # residual is a SolverError, a NaN margin fails), so numpy's
        # floating-point warnings would only repeat them on stderr
        with np.errstate(all="ignore"):
            return _COMMANDS[args.command](cp, out, settings)
    except (ConfigError, ParseError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (SolverError, OverflowError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as e:
        print(f"numerical failure: out of memory: {e}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
