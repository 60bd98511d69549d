"""Output checks, computed apart from the program.

Each checker reads the CSV files (and the printed summary) of one
operation and returns a list of problems; an empty list means the output
is correct.  Nothing here imports ``pdesup``: expressions are evaluated
with numpy from the same scenario text, gains and chain constants come
from their closed forms, and the backstepping kernel from
``scipy.special.iv``.  No check compares against stored program output.
"""

from __future__ import annotations

import configparser
import math
import re
from pathlib import Path

import numpy as np
from scipy.special import iv

from workloads import read_ini

# |sup_space - sup|u*|| <= EXACT_K (h^2 + dt^2) on every row: the scheme is
# second order in h and dt.  EXACT_K is several times the worst ratio
# measured over the workloads' seeds (see README), and on every grid the
# benchmark uses EXACT_K (h^2 + dt^2) stays below 1e-3.
EXACT_K = 1.5
REL = 1e-9          # closed-form constants and recomputed columns
ORDER_MIN = 1.9     # Crank-Nicolson orders in orders.csv
C_S_1D = 1.0 / math.sqrt(2.0)
C_P_1D = 2.0 / math.sqrt(math.pi)
SAMPLING = 10       # coefficient minima are sampled at 10x grid resolution

_NS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "ln": np.log, "sqrt": np.sqrt,
       "abs": np.abs, "min": np.minimum, "max": np.maximum, "pi": math.pi, "e": math.e}


def np_eval(text: str, shape=None, **env):
    """Evaluate scenario-grammar text with numpy ('^' is right-associative power)."""
    code = compile(text.replace("^", "**"), "<expr>", "eval")
    with np.errstate(all="ignore"):
        val = np.asarray(eval(code, {"__builtins__": {}}, {**_NS, **env}), dtype=float)
    return val if shape is None else np.broadcast_to(val, shape)


def _columns(path: Path) -> dict:
    lines = path.read_text(encoding="utf-8").splitlines()
    header, rows = lines[0].split(","), [ln.split(",") for ln in lines[1:]]
    cols = list(zip(*rows)) if rows else [()] * len(header)
    out = {}
    for name, col in zip(header, cols):
        try:
            out[name] = np.array([float(v) for v in col])
        except ValueError:
            out[name] = list(col)
    return out


def _trajectory_u(path: Path, geo: "Geometry"):
    """The u column of a trajectory CSV as (samples, nodes), or None if
    the row count is wrong.  The checks run in the process whose peak
    memory is measured, so the file is read with numpy's parser: read as
    Python strings, the 101k rows of ``simulate`` took 59 MiB, more than
    the 35 MiB the command itself adds."""
    u = np.loadtxt(path, delimiter=",", skiprows=1, usecols=2)
    if u.size != (geo.steps + 1) * geo.n_x:
        return None
    return u.reshape(geo.steps + 1, geo.n_x)


def _close(a, b, rel=REL) -> bool:
    a, b = np.asarray(a, float), np.asarray(b, float)
    return bool(np.all(np.abs(a - b) <= rel * np.maximum(1.0, np.abs(b))))


def _tol(bound, h, dt):
    """The method's stated check tolerance 1e-6 (1 + bound) + 10 (h^2 + dt^2)."""
    return 1e-6 * (1.0 + np.asarray(bound)) + 10.0 * (h * h + dt * dt)


# ---------------------------------------------------------------------------
# scenario geometry from the INI text


class Geometry:
    def __init__(self, cp: configparser.ConfigParser):
        self.dim = 2 if cp.get("domain", "kind", fallback="interval").strip() == "rectangle" else 1
        self.x_lo = cp.getfloat("domain", "x_lo", fallback=0.0)
        self.x_hi = cp.getfloat("domain", "x_hi", fallback=1.0)
        self.n_x = cp.getint("grid", "n_x", fallback=101)
        self.dt = cp.getfloat("grid", "dt", fallback=1e-3)
        self.steps = round(cp.getfloat("grid", "T", fallback=1.0) / self.dt)
        self.times = np.linspace(0.0, self.steps * self.dt, self.steps + 1)
        self.x = np.linspace(self.x_lo, self.x_hi, self.n_x)
        self.h = (self.x_hi - self.x_lo) / (self.n_x - 1)
        self.volume = self.x_hi - self.x_lo
        if self.dim == 2:
            self.y_lo = cp.getfloat("domain", "y_lo", fallback=0.0)
            self.y_hi = cp.getfloat("domain", "y_hi", fallback=1.0)
            self.n_y = cp.getint("grid", "n_y", fallback=self.n_x)
            self.h = max(self.h, (self.y_hi - self.y_lo) / (self.n_y - 1))
            self.volume *= self.y_hi - self.y_lo

    def nodes(self, factor=1):
        """Node coordinates (x, y or None), optionally refined by ``factor``."""
        x = np.linspace(self.x_lo, self.x_hi, factor * (self.n_x - 1) + 1)
        if self.dim == 1:
            return x, None
        y = np.linspace(self.y_lo, self.y_hi, factor * (self.n_y - 1) + 1)
        X, Y = np.meshgrid(x, y)
        return X, Y

    def boundary(self, factor=1):
        X, Y = self.nodes(factor)
        if Y is None:
            return X[[0, -1]], None
        mask = np.zeros(X.shape, bool)
        mask[0, :] = mask[-1, :] = mask[:, 0] = mask[:, -1] = True
        return X[mask], Y[mask]

    def env(self, X, Y):
        return {"x": X} if Y is None else {"x": X, "y": Y}


def _running_sup(text_at, times) -> np.ndarray:
    return np.maximum.accumulate([float(np.max(np.abs(text_at(t)))) for t in times])


def _coefficient_min(geo: Geometry, text: str, boundary=False) -> float:
    X, Y = geo.boundary(SAMPLING) if boundary else geo.nodes(SAMPLING)
    if boundary and Y is None:
        X = np.array([geo.x_lo, geo.x_hi])
    return float(np.min(np_eval(text, np.shape(X), **geo.env(X, Y))))


def _boundary_values(cp, geo: Geometry, key: str, t: float):
    """d at the boundary nodes; intervals may give d_left/d_right."""
    xb, yb = geo.boundary()
    sec = "disturbances"
    if cp.has_option(sec, key + "_left") or cp.has_option(sec, key + "_right"):
        left = np_eval(cp.get(sec, key + "_left", fallback="0"), (), x=geo.x_lo, t=t)
        right = np_eval(cp.get(sec, key + "_right", fallback="0"), (), x=geo.x_hi, t=t)
        return np.array([left, right])
    return np_eval(cp.get(sec, key, fallback="0"), xb.shape, t=t, **geo.env(xb, yb))


def iss_gains(cp, geo: Geometry):
    """(l_f, l_d, decay rate) in closed form for the scenario's boundary kind."""
    kind = cp.get("boundary", "kind", fallback="dirichlet").strip()
    c_s = cp.getfloat("check", "c_s", fallback=C_S_1D)
    c_p = cp.getfloat("check", "c_p", fallback=C_P_1D)
    co = "coefficients"
    a_min = _coefficient_min(geo, cp.get(co, "a", fallback="1"))
    c_min = _coefficient_min(geo, cp.get(co, "c", fallback="0"))
    geom = geo.volume * 2.0 ** 1.5          # geometry factor at q = inf
    if kind == "robin":
        m_min = _coefficient_min(geo, cp.get(co, "m", fallback="1"), boundary=True)
        return 2.0 * c_s * c_s / min(a_min, c_min) * geom, 1.0 / m_min, c_min
    tau = min(2.0 * c_s * c_s / min(a_min, c_min), c_p * c_p / a_min)
    return tau * geom, 1.0, c_min


# ---------------------------------------------------------------------------
# checkers: (config path, output dir, printed summary, exact solution) -> problems


def check_verdicts(outdir: Path) -> list[str]:
    path = outdir / "report.csv"
    if not path.is_file():
        return ["report.csv missing"]
    verdicts = _columns(path).get("verdict", [])
    if not verdicts:
        return ["report.csv has no verdict"]
    return [f"verdict {v!r}, not 'pass'" for v in verdicts if v != "pass"]


def _check_supnorms(cp, geo: Geometry, path: Path, exact: str | None) -> list[str]:
    """supnorms.csv against the envelope, the disturbance sups and u*."""
    if not path.is_file():
        return [f"{path.name} missing"]
    col = _columns(path)
    t, sup, bound = col["t"], col["sup_space"], col["bound"]
    problems = []
    if t.size != geo.steps + 1 or not _close(t, geo.times):
        return [f"{path.name}: times do not match 0, dt, ..., T"]
    if np.any(sup > bound):
        i = int(np.argmax(sup - bound))
        problems.append(f"{path.name}: sup_space {sup[i]!r} > bound {bound[i]!r} at t={t[i]!r}")
    X, Y = geo.nodes()
    f_text = cp.get("disturbances", "f", fallback="0")
    f_run = _running_sup(lambda s: np_eval(f_text, np.shape(X), t=s, **geo.env(X, Y)), t)
    d_run = _running_sup(lambda s: _boundary_values(cp, geo, "d", s), t)
    if not _close(col["running_sup_f"], f_run):
        problems.append(f"{path.name}: running_sup_f differs from the sup of f")
    if not _close(col["running_sup_d"], d_run):
        problems.append(f"{path.name}: running_sup_d differs from the sup of d")
    u0 = np_eval(cp.get("initial", "u0", fallback="0"), np.shape(X), **geo.env(X, Y))
    l_f, l_d, rate = iss_gains(cp, geo)
    expected = float(np.max(np.abs(u0))) * np.exp(-rate * t) + l_f * f_run + l_d * d_run
    if not _close(bound, expected):
        problems.append(f"{path.name}: bound column differs from the closed-form envelope")
    if exact is not None:
        ue = np.array([np.max(np.abs(np_eval(exact, np.shape(X), t=s, **geo.env(X, Y))))
                       for s in t])
        err = np.abs(sup - ue)
        lim = EXACT_K * (geo.h ** 2 + geo.dt ** 2)
        if np.any(err > lim):
            i = int(np.argmax(err))
            problems.append(f"{path.name}: |sup_space - sup|u*|| = {err[i]:.3e} > {lim:.3e} "
                            f"at t={t[i]!r}")
    return problems


def check_iss_exact(config, outdir, stdout, exact) -> list[str]:
    cp = read_ini(config)
    return check_verdicts(outdir) + _check_supnorms(cp, Geometry(cp), outdir / "supnorms.csv", exact)


def check_iss_config(config, outdir, stdout, exact) -> list[str]:
    cp = read_ini(config)
    return check_verdicts(outdir) + _check_supnorms(cp, Geometry(cp), outdir / "supnorms.csv", None)


def check_simulate(config, outdir, stdout, exact) -> list[str]:
    cp = read_ini(config)
    geo = Geometry(cp)
    problems = _check_supnorms(cp, geo, outdir / "supnorms.csv", None)
    path = outdir / "trajectory.csv"
    if not path.is_file():
        return problems + ["trajectory.csv missing"]
    u = _trajectory_u(path, geo)
    if u is None:
        return problems + ["trajectory.csv: wrong number of rows"]
    u0 = np_eval(cp.get("initial", "u0"), geo.x.shape, x=geo.x)
    if not _close(u[0], u0, 1e-12):
        problems.append("trajectory.csv: u(., 0) differs from u0")
    sup = _columns(outdir / "supnorms.csv")["sup_space"] if (outdir / "supnorms.csv").is_file() else None
    if sup is not None and not _close(np.max(np.abs(u), axis=1), sup, 1e-12):
        problems.append("supnorms.csv: sup_space differs from the sup of trajectory.csv")
    return problems


def check_gains(config, outdir, stdout, exact) -> list[str]:
    cp = read_ini(config)
    geo = Geometry(cp)
    path = outdir / "gains.csv"
    if not path.is_file():
        return ["gains.csv missing"]
    col = _columns(path)
    got = dict(zip(col["name"], col["value"]))
    l_f, l_d, rate = iss_gains(cp, geo)
    want = {"c_s_1d": C_S_1D, "c_p_1d": C_P_1D, "geometry_factor": geo.volume * 2.0 ** 1.5,
            "l_f": l_f, "l_d": l_d, "decay_rate": rate}
    problems = []
    for name, value in want.items():
        if name not in got:
            problems.append(f"gains.csv: {name} missing")
        elif not _close(got[name], value, 1e-12):
            problems.append(f"gains.csv: {name} = {got[name]!r}, closed form {value!r}")
    return problems


def kernel_max(lam: float, n_k: int = 201) -> float:
    """max over the triangle nodes of |lam y I1(z)/z|, z = sqrt(lam (x^2 - y^2))."""
    x = np.linspace(0.0, 1.0, n_k)
    X, Y = np.meshgrid(x, x, indexing="ij")
    tri = Y <= X + 1e-15
    z = np.sqrt(np.maximum(lam * (X * X - Y * Y), 0.0))
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(z > 0, iv(1, z) / z, 0.5)
    return float(np.max(np.abs(lam * Y * ratio)[tri]))


def check_backstep(config, outdir, stdout, exact) -> list[str]:
    cp = read_ini(config)
    geo = Geometry(cp)
    c, sigma = cp.getfloat("check", "c"), cp.getfloat("check", "sigma")
    lam = c + sigma
    problems = check_verdicts(outdir)
    path = outdir / "gains.csv"
    if not path.is_file():
        return problems + ["gains.csv missing"]
    col = _columns(path)
    got = dict(zip(col["name"], col["value"]))
    M = lam * float(iv(0, 4.0 * math.sqrt(lam)))
    C = min(8.0 * math.sqrt(2.0) / math.pi, 2.0 * math.sqrt(2.0) / min(1.0, c))
    want = {"M": M, "C": C, "max_kernel": kernel_max(lam)}
    for name, value in want.items():
        if name not in got or not _close(got[name], value):
            problems.append(f"gains.csv: {name} = {got.get(name)!r}, closed form {value!r}")
    traj = outdir / "trajectory.csv"
    if not traj.is_file() or not (outdir / "trajectory_target.csv").is_file():
        return problems + ["trajectory CSVs missing"]
    u = _trajectory_u(traj, geo)
    if u is None:
        return problems + ["trajectory.csv: wrong number of rows"]
    sup = np.max(np.abs(u), axis=1)
    t = geo.times
    dis = "disturbances"
    f_run = _running_sup(lambda s: np_eval(cp.get(dis, "f", fallback="0"), geo.x.shape,
                                           x=geo.x, t=s), t)
    d0 = np.maximum.accumulate(np.abs(np_eval(cp.get(dis, "d0", fallback="0"), t.shape, t=t)))
    d1 = np.maximum.accumulate(np.abs(np_eval(cp.get(dis, "d1", fallback="0"), t.shape, t=t)))
    bound = (1 + M) * ((1 + M) * sup[0] * np.exp(-sigma * t) + C * f_run + d0 + d1)
    if np.any(sup > bound + _tol(bound, geo.h, geo.dt)):
        problems.append("trajectory.csv: sup-norm exceeds the closed-loop envelope")
    return problems


def check_convergence(config, outdir, stdout, exact) -> list[str]:
    problems = []
    try:
        orders = _columns(outdir / "orders.csv")
        ladders = _columns(outdir / "convergence.csv")
    except FileNotFoundError as e:
        return [f"missing {Path(e.filename).name}"]
    got = dict(zip(orders["direction"], orders["order"]))
    for direction in ("space", "time"):
        p = got.get(direction)
        if p is None or not p >= ORDER_MIN:
            problems.append(f"orders.csv: {direction} order {p!r} < {ORDER_MIN}")
            continue
        sel = [i for i, d in enumerate(ladders["ladder"]) if d == direction]
        steps, errs = ladders["step"][sel], ladders["sup_error"][sel]
        if np.any(np.diff(errs) >= 0):
            problems.append(f"convergence.csv: {direction} errors do not decrease")
        elif math.isfinite(p):
            slope = np.polyfit(np.log(steps), np.log(errs), 1)[0]
            if not _close(p, slope, 1e-9):
                problems.append(f"orders.csv: {direction} order {p!r} is not the "
                                f"fitted slope {slope!r} of convergence.csv")
    return problems


def check_verdict_only(config, outdir, stdout, exact) -> list[str]:
    return check_verdicts(outdir)


# ---------------------------------------------------------------------------
# cascades


def cascade_small_gain(cp, geo: Geometry) -> float:
    cas = "cascade"
    k = cp.getint(cas, "k")
    topology = cp.get(cas, "topology").strip()

    def coef(name, j, default):
        return cp.get(cas, f"{name}_{j}", fallback=cp.get(cas, name, fallback=default))

    if topology.startswith("robin"):
        return min(_coefficient_min(geo, coef("m", j, "1"), boundary=True)
                   for j in range(1, k + 1))
    taus = []
    for j in range(1, k + 1):
        a = _coefficient_min(geo, coef("a", j, "1"))
        c = _coefficient_min(geo, coef("c", j, "0"))
        tau = C_P_1D ** 2 / a
        if c > 0:
            tau = min(2.0 * C_S_1D ** 2 / min(a, c), tau)
        taus.append(tau)
    return 1.0 / (geo.volume * 2.0 ** 1.5 * max(taus))


def check_cascade(config, outdir, stdout, exact) -> list[str]:
    cp = read_ini(config)
    geo = Geometry(cp)
    cas = "cascade"
    k = cp.getint(cas, "k")
    topology = cp.get(cas, "topology").strip()
    problems = check_verdicts(outdir)
    gain = cascade_small_gain(cp, geo)
    m = re.search(r"small-gain ([^;]+);", stdout)
    if m is None or not _close(float(m.group(1)), gain, 1e-12):
        problems.append(f"small-gain constant {m.group(1) if m else None}, closed form {gain!r}")
    t = geo.times
    xb = np.array([geo.x_lo, geo.x_hi])
    sups0 = [float(np.max(np.abs(np_eval(cp.get(cas, f"phi_{j}", fallback="0"),
                                         geo.x.shape, x=geo.x)))) for j in range(1, k + 1)]
    phis = np.maximum.accumulate(sups0)
    cycle = topology.endswith("cycle")

    def d_run(text):
        return _running_sup(lambda s: np_eval(text, xb.shape, x=xb, t=s), t)

    robin = topology.startswith("robin")
    if robin:
        ext = d_run(cp.get(cas, "d")) if topology == "robin-open" else 0.0 * t
    else:
        d_runs = [d_run(cp.get(cas, f"d_{j}", fallback="0")) for j in range(1, k + 1)]
        f_run = (_running_sup(lambda s: np_eval(cp.get(cas, "f"), geo.x.shape, x=geo.x, t=s), t)
                 if topology == "dirichlet-open" else 0.0 * t)
    for j in range(1, k + 1):
        path = outdir / f"supnorms_{j}.csv"
        if not path.is_file():
            problems.append(f"{path.name} missing")
            continue
        sup = _columns(path)["sup_space"]
        if sup.size != t.size:
            problems.append(f"{path.name}: wrong number of rows")
            continue
        c_min = _coefficient_min(geo, cp.get(cas, f"c_{j}", fallback=cp.get(cas, "c", fallback="0")))
        decay = np.exp(-c_min * t) if c_min > 0 else np.ones_like(t)
        if cycle:
            phi_coef = gain / (gain - 1.0) * phis[-1]
            if robin:
                rest = 0.0 * t
            else:
                gk = gain ** k
                rest = gk / (gk - 1.0) * sum(d_runs[i - 1] / gain ** (k - i) for i in range(1, k + 1))
        else:
            phi_coef = sum(gain ** -i for i in range(j)) * phis[j - 1]
            if robin:
                rest = ext / gain ** j
            else:
                rest = f_run / gain ** j + sum(d_runs[i - 1] / gain ** (j - i) for i in range(1, j + 1))
        spacetime = phi_coef + rest
        spatial = phi_coef * decay + rest
        running = np.maximum.accumulate(sup)
        if np.any(running > spacetime + _tol(spacetime, geo.h, geo.dt)):
            problems.append(f"{path.name}: space-time sup exceeds the chain bound")
        if np.any(sup > spatial + _tol(spatial, geo.h, geo.dt)):
            problems.append(f"{path.name}: spatial sup exceeds the decaying chain bound")
    return problems


CHECKERS = {
    "iss_exact": check_iss_exact,
    "iss_config": check_iss_config,
    "verdict": check_verdict_only,
    "simulate": check_simulate,
    "gains": check_gains,
    "backstep": check_backstep,
    "convergence": check_convergence,
    "cascade": check_cascade,
}
