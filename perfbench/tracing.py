"""Per-layer tracing of the fairsched package, applied from outside.

``Tracer.install()`` replaces selected public functions with timing wrappers
in every fairsched module namespace that holds them (``cli`` imported
``simulate_allocation`` by name, ``distributed`` imported
``project_feasible`` and ``solve_maxmin``), and wraps ``values`` on every
``CostModel`` class that defines it. ``uninstall()`` puts the originals
back. Spans stay in memory, aggregated per (name, parent) into count, total
and self time; self time is the span's duration minus that of its traced
children. A few counters are read off return values: solver iterations and
floor shrinks, distributed rounds, simulated steps.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict

# span name -> (module, attribute) of the function to wrap
FUNCTIONS = {
    "config.load_config": ("fairsched.config", "load_config"),
    "sensors.build_cost_curve": ("fairsched.sensors", "build_cost_curve"),
    "sensors.steady_state_filter_cov": ("fairsched.sensors", "steady_state_filter_cov"),
    "allocation.project_feasible": ("fairsched.allocation", "project_feasible"),
    "allocation.solve_maxmin": ("fairsched.allocation", "solve_maxmin"),
    "allocation.check_equilibrium": ("fairsched.allocation", "check_equilibrium"),
    "simulate.simulate_allocation": ("fairsched.simulate", "simulate_allocation"),
    "distributed.solve_distributed": ("fairsched.distributed", "solve_distributed"),
    "distributed.compare_with_centralized": ("fairsched.distributed", "compare_with_centralized"),
    "cli.main": ("fairsched.cli", "main"),
    "cli.run_solve": ("fairsched.cli", "run_solve"),
    "cli.run_simulate": ("fairsched.cli", "run_simulate"),
    "cli.run_distributed": ("fairsched.cli", "run_distributed"),
}
VALUES_SPAN = "sensors.values"


class Tracer:
    """Span aggregates and counters of the fairsched calls made while installed."""

    def __init__(self):
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # (name, parent) -> [count, total_s, self_s]
        self.counts = defaultdict(int)
        self._stack = []  # open spans: [name, child_s]
        self._patched = []  # (owner, attribute, original)
        self._paused = False

    # -- recording -----------------------------------------------------------

    def _wrap(self, name, fn):
        stack, spans = self._stack, self.spans
        on_enter, on_result = _ENTER_HOOKS.get(name), _RESULT_HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            if on_enter is not None:
                on_enter(self)
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                entry = spans[(name, stack[-1][0] if stack else None)]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    @contextlib.contextmanager
    def paused(self):
        """Leave the calls made inside the block, such as the benchmark's own checks, untraced."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def is_open(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every listed function that exists; missing ones are skipped."""
        modules = [m for key, m in list(sys.modules.items()) if key == "fairsched" or key.startswith("fairsched.")]
        for name, (module_name, attr) in FUNCTIONS.items():
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                continue
            traced = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, traced)
        cost_model = getattr(sys.modules.get("fairsched.allocation"), "CostModel", None)
        for cls in _class_tree(cost_model) if cost_model is not None else ():
            if "values" in vars(cls):
                self._patch(cls, "values", self._wrap(VALUES_SPAN, vars(cls)["values"]))

    def _patch(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- aggregates ----------------------------------------------------------

    def calls(self, name: str) -> int:
        return sum(v[0] for (n, _), v in self.spans.items() if n == name)

    def total(self, name: str) -> float:
        return sum(v[1] for (n, _), v in self.spans.items() if n == name)

    def self_time(self, prefix: str) -> float:
        """Self time of every span whose name starts with ``prefix``."""
        return sum(v[2] for (n, _), v in self.spans.items() if n.startswith(prefix))

    def span_lines(self) -> list[str]:
        """One line per (name, parent), largest total time first."""
        rows = sorted(self.spans.items(), key=lambda item: -item[1][1])
        return [f"{name} <- {parent or '-'}: {count} calls, {total:.4f} s total, {own:.4f} s self"
                for (name, parent), (count, total, own) in rows]


def _class_tree(cls):
    yield cls
    for sub in cls.__subclasses__():
        yield from _class_tree(sub)


def _count_rebuild(tracer):
    # a curve built while a solve is running is an on-demand rebuild
    if tracer.is_open("allocation.solve_maxmin"):
        tracer.counts["curve_rebuilds"] += 1


def _count_solve(tracer, result):
    _, trace = result
    tracer.counts["solve_iterations"] += int(trace.iterations[-1])
    tracer.counts["outer_shrinks"] += len(trace.outer_events)


def _count_rounds(tracer, result):
    tracer.counts["distributed_rounds"] += len(result[2])


def _count_steps(tracer, result):
    tracer.counts["simulate_steps"] += sum(r.horizon for r in result)


_ENTER_HOOKS = {"sensors.build_cost_curve": _count_rebuild}
_RESULT_HOOKS = {
    "allocation.solve_maxmin": _count_solve,
    "distributed.solve_distributed": _count_rounds,
    "simulate.simulate_allocation": _count_steps,
}


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics, as {name: (value, unit)}; ratios over no work read 0."""
    t, c = tracer, tracer.counts

    def per(total, count, scale=1.0):
        return scale * total / count if count else 0.0

    values_calls, project_calls = t.calls(VALUES_SPAN), t.calls("allocation.project_feasible")
    rounds, steps = c["distributed_rounds"], c["simulate_steps"]
    return {
        "config.load_s": (t.total("config.load_config"), "s"),
        "sensors.build_curve.calls": (t.calls("sensors.build_cost_curve"), "count"),
        "sensors.build_curve.s": (t.total("sensors.build_cost_curve"), "s"),
        "sensors.curve_rebuilds": (c["curve_rebuilds"], "count"),
        "sensors.filter_cov.calls": (t.calls("sensors.steady_state_filter_cov"), "count"),
        "sensors.filter_cov.s": (t.total("sensors.steady_state_filter_cov"), "s"),
        "sensors.values.calls": (values_calls, "count"),
        "sensors.values.us_per_call": (per(t.total(VALUES_SPAN), values_calls, 1e6), "us"),
        "allocation.project.calls": (project_calls, "count"),
        "allocation.project.us_per_call": (per(t.total("allocation.project_feasible"), project_calls, 1e6), "us"),
        "allocation.solve.iterations": (c["solve_iterations"], "count"),
        "allocation.solve.outer_shrinks": (c["outer_shrinks"], "count"),
        "allocation.solve.self_s": (t.self_time("allocation.solve_maxmin"), "s"),
        "allocation.check_equilibrium.s": (t.total("allocation.check_equilibrium"), "s"),
        "simulate.steps": (steps, "count"),
        "simulate.steps_per_s": (per(steps, t.total("simulate.simulate_allocation")), "1/s"),
        "simulate.self_s": (t.self_time("simulate."), "s"),
        "distributed.rounds": (rounds, "count"),
        "distributed.us_per_round": (per(t.total("distributed.solve_distributed"), rounds, 1e6), "us"),
        "distributed.self_s": (t.self_time("distributed."), "s"),
        "cli.self_s": (t.self_time("cli."), "s"),
    }
