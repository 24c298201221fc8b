"""Layer tracing: wraps accelflow's public functions from outside.

Each layer function is wrapped at the module that calls it (for example
``accelflow.flow.evaluate_control`` and ``accelflow.export.evaluate_control``),
and the oracle callables are wrapped on every problem that
``ProblemConfig.build`` returns. Nothing inside ``src/`` changes, and
nothing is wrapped while the benchmark measures end-to-end metrics.

A span is (name, start, end, parent, op). A layer's self time is its span's
duration minus the part that its child spans cover. Counts and self times
are aggregated online for every traced pass; raw spans are kept in memory
for the first traced pass only and written out when the run ends.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import time
from array import array
from typing import Any, Callable, Optional

#: layer function -> the accelflow modules whose binding of it is called.
#: A refactor that moves one of these shows up as a missing binding
#: (install fails) or as an unreached one (the coverage self-test fails),
#: never as a silent zero.
BINDINGS: dict[str, tuple[str, ...]] = {
    "control.evaluate_control": ("flow", "export"),
    "metric.metric_matrix": ("control",),
    "metric.metric_solve": ("control",),
    "metric.shift_to_floor": ("metric",),
    "metric.quasi_newton_update": ("flow",),
    "clf.clf_value": ("control", "flow", "verify"),
    "clf.lie_derivative": ("flow", "verify"),
    "flow.initial_state": ("cli",),
    "flow.integrate": ("cli",),
    "export.write_trajectory_csv": ("cli",),
    "export.read_trajectory_csv": ("cli",),
    "export.trajectory_from_arrays": ("cli",),
    "export.write_iterates_csv": ("cli",),
    "export.flow_summary": ("cli",),
    "export.discrete_summary": ("cli",),
    "export.write_summary_json": ("cli",),
    "export.write_compare_csv": ("cli",),
    "verify.run_checks": ("cli",),
    "verify.check_dissipation": ("verify",),
    "verify.check_adjoint_consistency": ("verify",),
    "verify.check_singular_arc": ("verify",),
    "verify.check_stationarity": ("verify", "cli"),
    "discrete.heavy_ball_iterate": ("cli",),
    "discrete.nesterov_one_step_iterate": ("cli",),
    "discrete.nesterov_two_step_iterate": ("cli",),
    "discrete.cg_iterate": ("cli",),
    "discrete.exact_line_search_alpha": ("cli",),
    "config.load_config": ("cli",),
}

#: bindings outside the defining module that no workload calls through;
#: the completeness self-test accepts exactly these besides BINDINGS
UNCALLED: dict[str, tuple[str, ...]] = {
    # imported for accelerated_newton_iterate, which no workload runs
    "metric.metric_matrix": ("discrete",),
    "metric.metric_solve": ("discrete",),
    "metric.quasi_newton_update": ("discrete",),
}

ORACLE_FIELDS = ("value", "gradient", "hessian")
PROBLEM_BUILD = "config.ProblemConfig.build"
ROOT = "cli"

#: spans kept for export; aggregation continues past this
SPAN_CAP = 2_000_000


def layer_names() -> list[str]:
    """Every span name the tracer can produce, root first."""
    return ([ROOT, PROBLEM_BUILD]
            + [f"objective.{f}" for f in ORACLE_FIELDS] + list(BINDINGS))


class Tracer:
    """Spans, counts and self times for the wrapped layers."""

    def __init__(self) -> None:
        self.names = layer_names()
        self._index = {n: i for i, n in enumerate(self.names)}
        self.binding_calls: dict[str, int] = {}
        self._restore: list[tuple[Any, str, Any]] = []
        self._stack: list[list] = []
        self._record = False
        self._op = -1
        self._next_span = 0
        self._t0 = 0.0
        self.dropped = 0
        self.span_id = array("q")
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_op = array("i")
        self.new_pass()

    # -- aggregation ------------------------------------------------------

    def new_pass(self) -> None:
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)

    def pass_stats(self) -> dict[str, dict[str, float]]:
        return {n: {"calls": self.calls[i], "self_s": self.self_s[i]}
                for i, n in enumerate(self.names)}

    def record_spans(self, on: bool) -> None:
        """Keep raw spans from now on (True) or stop keeping them (False)."""
        if on and not self._record:
            self._t0 = time.perf_counter()
        self._record = on

    def _enter(self, idx: int) -> list:
        sid = self._next_span
        self._next_span += 1
        parent = self._stack[-1][3] if self._stack else -1
        frame = [idx, time.perf_counter(), 0.0, sid, parent]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        top = self._stack.pop()
        if top is not frame:
            raise RuntimeError("span stack out of order")
        idx, start, child, sid, parent = frame
        dur = end - start
        self.calls[idx] += 1
        self.self_s[idx] += dur - child
        if self._stack:
            self._stack[-1][2] += dur
        if self._record:
            if len(self.span_id) < SPAN_CAP:
                self.span_id.append(sid)
                self.span_name.append(idx)
                self.span_start.append(start - self._t0)
                self.span_end.append(end - self._t0)
                self.span_parent.append(parent)
                self.span_op.append(self._op)
            else:
                self.dropped += 1

    def run_op(self, op_index: int, fn: Callable[[], Any]) -> Any:
        """Run one op under the root span."""
        self._op = op_index
        frame = self._enter(self._index[ROOT])
        try:
            return fn()
        finally:
            self._exit(frame)
            self._op = -1

    def wrap(self, fn: Callable, name: str,
             binding: Optional[str] = None) -> Callable:
        idx = self._index[name]
        key = binding or name
        self.binding_calls.setdefault(key, 0)
        counts = self.binding_calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts[key] += 1
            frame = self._enter(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(frame)

        return traced

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Patch every binding in BINDINGS and ProblemConfig.build."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        for name, callers in BINDINGS.items():
            home, func = name.split(".")
            original = getattr(_module(home), func)
            for caller in callers:
                mod = _module(caller)
                bound = getattr(mod, func, None)
                if bound is not original:
                    self.uninstall()
                    raise LookupError(
                        f"accelflow.{caller}.{func} is not {name}; the layer "
                        f"moved, update perfbench/tracing.py BINDINGS")
                self._patch(mod, func,
                            self.wrap(original, name, f"{caller}.{func}"))
        config = _module("config")
        build = self.wrap(config.ProblemConfig.build, PROBLEM_BUILD)

        def traced_build(problem_config):
            instance = build(problem_config)
            oracle = dataclasses.replace(instance.oracle, **{
                f: self.wrap(getattr(instance.oracle, f), f"objective.{f}")
                for f in ORACLE_FIELDS})
            return dataclasses.replace(instance, oracle=oracle)

        self._patch(config.ProblemConfig, "build", traced_build)

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- export -----------------------------------------------------------

    def write_spans(self, path: str, op_ids: list[str]) -> int:
        """Write the kept spans as CSV; returns how many were written."""
        with open(path, "w") as fh:
            fh.write("span,name,start_s,end_s,parent,op\n")
            for k in range(len(self.span_id)):
                op = self.span_op[k]
                fh.write(f"{self.span_id[k]},{self.names[self.span_name[k]]},"
                         f"{self.span_start[k]:.9f},{self.span_end[k]:.9f},"
                         f"{self.span_parent[k]},"
                         f"{op_ids[op] if op >= 0 else ''}\n")
        return len(self.span_id)


def _module(name: str):
    return importlib.import_module(f"accelflow.{name}")


def unlisted_bindings() -> list[str]:
    """Bindings of layer functions in accelflow modules, other than the
    defining one, that the tracer neither wraps nor lists as uncalled: a
    call site added by a refactor."""
    modules = {m: _module(m) for m in
               ("objective", "control", "metric", "clf", "flow", "export",
                "verify", "discrete", "config", "cli")}
    found = []
    for name in BINDINGS:
        home, func = name.split(".")
        original = getattr(modules[home], func)
        known = {home, *BINDINGS[name], *UNCALLED.get(name, ())}
        for mod_name, mod in modules.items():
            if mod.__dict__.get(func) is original and mod_name not in known:
                found.append(f"{mod_name}.{func}")
    return found
