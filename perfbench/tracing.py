"""Spans and counts around the public entry points of each pdesup module.

The traced run installs these wrappers after its warm-up; nothing in
``src/`` is changed.  A name that a caller imported with ``from ... import``
is wrapped in the caller's namespace, since that is where the call looks
it up.  Methods are wrapped on their class, which covers every caller.

Per layer the tracer keeps the number of calls, the inclusive time of the
outermost span (nested spans of the same layer are not counted twice) and
the self time (span time minus the time of spans opened inside it).
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(float)
        self._depth = defaultdict(int)
        self._stack = []          # [layer, start, time spent in child spans]

    def span(self, layer: str, fn, after=None):
        """Wrap ``fn`` in a span; ``after(result, args, kwargs, step_calls)``
        records counts, where step_calls is the number of stepper steps
        taken inside the span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entry = [layer, perf_counter(), 0.0]
            steps_before = tracer.calls["solver.step"]
            tracer.calls[layer] += 1
            tracer._depth[layer] += 1
            tracer._stack.append(entry)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - entry[1]
                tracer._stack.pop()
                tracer._depth[layer] -= 1
                tracer.self_time[layer] += duration - entry[2]
                if tracer._stack:
                    tracer._stack[-1][2] += duration
                if tracer._depth[layer] == 0:
                    tracer.inclusive[layer] += duration
            if after is not None:
                after(result, args, kwargs, tracer.calls["solver.step"] - steps_before)
            return result

        return wrapper

    def patch(self, owner, name: str, layer: str, after=None):
        setattr(owner, name, self.span(layer, getattr(owner, name), after))

    def install(self):
        """Wrap the entry points of every pdesup module."""
        import pdesup.backstepping as bs
        import pdesup.cascade as cas
        import pdesup.cli as cli
        import pdesup.config as config
        import pdesup.core as core
        import pdesup.expressions as expressions
        import pdesup.harness as harness
        import pdesup.solver as solver

        c = self.counts
        for name in ("load_config", "check_settings_from_config", "scenario_from_config",
                     "rkes_pair_from_config", "cascade_from_config"):
            self.patch(cli, name, "config")
        self.patch(config, "scenario_from_config", "config")
        for mod in (config, cas, bs, solver):
            self.patch(mod, "make_scenario", "solver.scenario")

        self.patch(expressions.Expression, "__call__", "expressions")

        self.patch(solver.TimeStepper, "__init__", "solver.assemble")
        self.patch(solver.TimeStepper, "solve", "solver.solve")
        self.patch(solver.TimeStepper, "step_values", "solver.step")
        self.patch(solver.ReactionTerm, "derivative", "solver.newton")
        self.patch(solver, "solve_banded", "solver.banded")
        self.patch(solver, "splu", "solver.lu")

        def samples(rep, args, kwargs, steps):
            c["harness.samples"] += rep.samples_checked

        for name in ("check_iss", "check_rkes", "check_decay"):
            self.patch(harness, name, "harness", samples)
        for name in ("running_sup_forcing", "running_sup_boundary"):
            self.patch(harness, name, "harness")

        def terms(kernel, args, kwargs, steps):
            c["backstepping.kernel_terms"] += kernel.terms_used

        def loop(res, args, kwargs, steps):
            c["backstepping.loop_step_calls"] += steps
            c["backstepping.loop_steps"] += res.u.n_samples - 1

        for name in ("kernel_series", "inverse_kernel_series"):
            self.patch(bs, name, "backstepping.kernel", terms)
        self.patch(bs, "transform_trajectory", "backstepping.transform")
        self.patch(bs, "simulate_closed_loop", "backstepping.loop", loop)

        def chain(trajs, args, kwargs, steps):
            c["cascade.step_calls"] += steps
            c["cascade.subsystem_steps"] += sum(tr.n_samples - 1 for tr in trajs)

        self.patch(cas, "simulate_cascade", "cascade.simulate", chain)
        self.patch(cas, "verify_cascade", "cascade.verify")

        def trajectory_bytes(_, args, kwargs, steps):
            values = kwargs.get("values", args[3] if len(args) > 3 else None)
            c["core.trajectory_bytes"] += getattr(values, "nbytes", 0)

        self.patch(core.Trajectory, "__init__", "core", trajectory_bytes)

    def metrics(self, rounds: int, written_bytes: int, rows_written: int,
                traced_wall_s: float) -> dict:
        """Per-round values of every per-layer metric."""
        inc, calls, c = self.inclusive, self.calls, self.counts
        total = {  # summed over the traced rounds
            "config.parse_s": (self.self_time["config"], "s"),
            "expressions.evals": (calls["expressions"], "count"),
            "expressions.eval_s": (inc["expressions"], "s"),
            "solver.scenario_s": (inc["solver.scenario"], "s"),
            "solver.assemblies": (calls["solver.assemble"], "count"),
            "solver.assemble_s": (inc["solver.assemble"], "s"),
            "solver.solve_s": (inc["solver.solve"], "s"),
            "solver.steps": (calls["solver.step"], "count"),
            "solver.step_s": (inc["solver.step"], "s"),
            "solver.banded_solves": (calls["solver.banded"], "count"),
            "solver.banded_s": (inc["solver.banded"], "s"),
            "solver.lu_factorizations": (calls["solver.lu"], "count"),
            "solver.lu_s": (inc["solver.lu"], "s"),
            "harness.check_s": (inc["harness"], "s"),
            "harness.samples_checked": (c["harness.samples"], "count"),
            "backstepping.kernel_s": (inc["backstepping.kernel"], "s"),
            "backstepping.kernel_terms": (c["backstepping.kernel_terms"], "count"),
            "backstepping.transform_s": (inc["backstepping.transform"], "s"),
            "backstepping.loop_s": (inc["backstepping.loop"], "s"),
            "cascade.simulate_s": (inc["cascade.simulate"], "s"),
            "cascade.verify_s": (inc["cascade.verify"], "s"),
            "core.trajectory_mb": (c["core.trajectory_bytes"], "MB"),
            "cli.self_s": (self.self_time["cli"], "s"),
            "cli.written_mb": (written_bytes, "MB"),
            "cli.rows_written": (rows_written, "count"),
        }
        # bytes become MB only after the division by rounds: every round
        # writes the same bytes, so the per-round figure is exact and runs
        # with different round counts give the same value to the last bit
        out = {name: {"value": value / rounds / (1e6 if unit == "MB" else 1), "unit": unit}
               for name, (value, unit) in total.items()}

        def ratio(a, b):
            return a / b if b else 0.0

        steps = calls["solver.step"]
        ratios = {
            "expressions.evals_per_step": (ratio(calls["expressions"], steps), "count"),
            "solver.step_us": (ratio(inc["solver.step"], steps) * 1e6, "us"),
            "solver.newton_iters_per_step": (ratio(calls["solver.newton"], steps), "count"),
            "backstepping.control_sweeps_per_step": (
                ratio(c["backstepping.loop_step_calls"], c["backstepping.loop_steps"]), "count"),
            "cascade.sweeps_per_step": (
                ratio(c["cascade.step_calls"], c["cascade.subsystem_steps"]), "count"),
            "trace.wall_s": (traced_wall_s, "s"),
        }
        out.update({name: {"value": v, "unit": u} for name, (v, u) in ratios.items()})
        return out
