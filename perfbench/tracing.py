"""Layer spans recorded from outside the program.

The benchmark times each layer by swapping the layer's public entry
points for thin wrappers that open a span, call the original, and
add counts read from the arguments and the result.  Nothing under
``src/`` is edited, and :meth:`Hooks.uninstall` puts every original
back.

A span records its name, start, end, parent span and the request it
belongs to.  Spans stay in memory (up to a cap, with a drop count)
and are written out once, at the end of the run.  Per-name totals and
per-layer self times are kept exactly whatever the cap: a span's self
time is its duration minus the time its child spans cover.

``repro.obs`` is not used for this: its spans carry neither a request
id nor a parent-span id, and installing its registry switches on the
program's own instrumentation, which would change what is measured.
"""

from __future__ import annotations

import functools
import json
import math
from collections import Counter, defaultdict
from time import perf_counter

import repro.experiments.compare as compare_mod
import repro.model.outer as outer_mod
import repro.planner as planner_pkg
import repro.scenarios.compile as compile_mod
import repro.scenarios.generator as generator_mod
from repro.model.diagnostics import ConvergenceTrace
from repro.planner.search import PlanEvaluator
from repro.testbed.locks import LockManager, LockRequestOutcome
from repro.testbed.system import CaratSimulation
from repro.testbed.telemetry import Telemetry

#: Every attribute the benchmark may patch, as ``(owner, name)``.
TARGETS = (
    (compile_mod, "compile_workload"),
    (generator_mod, "sample_one"),
    (planner_pkg, "plan"),
    (PlanEvaluator, "point"),
    (PlanEvaluator, "solution"),
    (outer_mod, "solve_model_batch"),
    (outer_mod, "solve_outer_batch"),
    (outer_mod, "solve_exact_batch"),
    (outer_mod, "solve_schweitzer_batch"),
    (compare_mod, "compare_spec"),
    (CaratSimulation, "run"),
    (LockManager, "request"),
    (Telemetry, "sample"),
)

_MARK = "__perfbench_hook__"


def installed_hooks() -> list[str]:
    """Names of the targets that currently hold a benchmark hook."""
    return [f"{getattr(owner, '__name__', owner)}.{name}"
            for owner, name in TARGETS
            if getattr(getattr(owner, name), _MARK, False)]


class Recorder:
    """In-memory span store with exact per-name and per-layer totals."""

    def __init__(self, span_cap: int = 100_000):
        self.span_cap = span_cap
        self.spans: list[tuple] = []
        self.dropped = 0
        self.request = -1
        self.counts: Counter = Counter()
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self._stack: list[list] = []
        self._next_id = 1
        self.origin = perf_counter()

    def enter(self, name: str) -> None:
        self._stack.append([self._next_id, name, perf_counter(), 0.0])
        self._next_id += 1

    def exit(self) -> None:
        end = perf_counter()
        span_id, name, start, child_s = self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name.partition(".")[0]] += duration - child_s
        if len(self.spans) < self.span_cap:
            self.spans.append((span_id, parent[0] if parent else 0,
                               self.request, name, start, end))
        else:
            self.dropped += 1

    def inside(self, name: str) -> bool:
        """Whether a span called *name* is open on the stack."""
        return any(frame[1] == name for frame in self._stack)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span_id, parent, request, name, start, end in self.spans:
                out.write(json.dumps({
                    "id": span_id, "parent": parent, "request": request,
                    "name": name,
                    "start_ms": (start - self.origin) * 1e3,
                    "end_ms": (end - self.origin) * 1e3}) + "\n")


class Capture:
    """Simulations returned during the current request.

    ``compare_spec`` returns a residual report, not the simulator's
    measurement; the output checks need the exact counts, so the
    hook on ``CaratSimulation.run`` keeps each ``(measurement,
    simulation)`` pair here until the request collects it.
    """

    def __init__(self) -> None:
        self.runs: list[tuple] = []

    def take(self) -> list[tuple]:
        runs, self.runs = self.runs, []
        return runs


class Hooks:
    """Install and remove the benchmark's wrappers.

    With ``recorder=None`` only the capture hook on
    ``CaratSimulation.run`` goes in: it times nothing and adds one
    Python call per simulation.  With a recorder every target in
    :data:`TARGETS` is wrapped.
    """

    def __init__(self, capture: Capture, recorder: Recorder | None = None):
        self.capture = capture
        self.recorder = recorder
        self._saved: list[tuple] = []

    def __enter__(self) -> Hooks:
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        rec = self.recorder
        self._patch(CaratSimulation, "run", self._simulation_run)
        if rec is None:
            return
        self._patch(compile_mod, "compile_workload",
                    self._span("scenarios.compile_workload"))
        self._patch(generator_mod, "sample_one",
                    self._span("scenarios.sample_one"))
        self._patch(planner_pkg, "plan", self._plan)
        self._patch(PlanEvaluator, "point", self._memo)
        self._patch(PlanEvaluator, "solution", self._memo)
        self._patch(outer_mod, "solve_model_batch",
                    self._span("model.solve_model_batch"))
        self._patch(outer_mod, "solve_outer_batch", self._outer)
        self._patch(outer_mod, "solve_exact_batch", self._exact)
        self._patch(outer_mod, "solve_schweitzer_batch", self._schweitzer)
        self._patch(compare_mod, "compare_spec",
                    self._span("experiments.compare_spec"))
        self._patch(LockManager, "request", self._lock_request)
        self._patch(Telemetry, "sample",
                    self._span("testbed.telemetry_sample"))

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name: str, make) -> None:
        original = owner.__dict__[name] if isinstance(owner, type) \
            else getattr(owner, name)
        wrapper = make(original)
        setattr(wrapper, _MARK, True)
        self._saved.append((owner, name, original))
        setattr(owner, name, wrapper)

    # -- wrapper factories -----------------------------------------------

    def _span(self, name: str):
        rec = self.recorder

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                rec.enter(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    rec.exit()
            return wrapper
        return make

    def _simulation_run(self, fn):
        rec, capture = self.recorder, self.capture

        @functools.wraps(fn)
        def wrapper(sim_self):
            if rec is None:
                measurement = fn(sim_self)
                capture.runs.append((measurement, sim_self))
                return measurement
            rec.enter("testbed.run")
            try:
                measurement = fn(sim_self)
            finally:
                rec.exit()
            capture.runs.append((measurement, sim_self))
            counts = rec.counts
            config = sim_self.config
            counts["testbed.runs"] += 1
            counts["testbed.simulated_ms"] += (config.warmup_ms
                                               + config.duration_ms)
            counts["testbed.events"] += sim_self.sim._steps
            for site in measurement.sites.values():
                counts["testbed.commits"] += sum(
                    site.commits_by_type.values())
                counts["testbed.aborts"] += sum(
                    site.aborts_by_type.values())
                counts["testbed.deadlocks_local"] += site.local_deadlocks
                counts["testbed.deadlocks_global"] += site.global_deadlocks
            return measurement
        return wrapper

    def _lock_request(self, fn):
        rec = self.recorder
        blocked = LockRequestOutcome.BLOCKED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec.enter("testbed.lock_request")
            try:
                outcome = fn(*args, **kwargs)
            finally:
                rec.exit()
            if outcome is blocked:
                rec.counts["testbed.lock_waits"] += 1
            return outcome
        return wrapper

    def _plan(self, fn):
        rec = self.recorder

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec.counts["planner.calls"] += 1
            rec.enter("planner.plan")
            try:
                return fn(*args, **kwargs)
            finally:
                rec.exit()
        return wrapper

    def _memo(self, fn):
        """``PlanEvaluator.point`` / ``.solution``: a call for an MPL
        the evaluator already solved is a memo hit."""
        rec = self.recorder

        @functools.wraps(fn)
        def wrapper(evaluator, mpl):
            if mpl in evaluator.evaluated():
                rec.counts["planner.memo_hits"] += 1
            return fn(evaluator, mpl)
        return wrapper

    def _outer(self, fn):
        """``solve_outer_batch``: attach a convergence trace to every
        model that has none, so per-phase wall time and the iteration
        outcome are read back even when the batch raises."""
        rec = self.recorder

        @functools.wraps(fn)
        def wrapper(models):
            models = list(models)
            traces = []
            for model in models:
                if model._diag is None:
                    model._diag = ConvergenceTrace()
                traces.append(model._diag)
            rec.counts["model.batch_calls"] += 1
            rec.counts["model.points"] += len(models)
            if rec.inside("planner.plan"):
                rec.counts["planner.solves"] += len(models)
            rec.enter("model.solve_outer_batch")
            try:
                return fn(models)
            finally:
                rec.exit()
                for trace in traces:
                    rec.counts["model.outer_iterations"] += \
                        trace.iterations or 0
                    rec.counts["model.converged"] += bool(trace.converged)
                    for phase, ms in trace.phase_totals().items():
                        rec.counts[f"model.phase.{phase}_ms"] += ms
        return wrapper

    def _exact(self, fn):
        rec = self.recorder

        @functools.wraps(fn)
        def wrapper(demands, delay, populations):
            rec.enter("queueing.exact")
            try:
                result = fn(demands, delay, populations)
            finally:
                rec.exit()
            batch = demands.shape[0] if demands.ndim == 3 else 1
            rec.counts["queueing.exact_calls"] += 1
            rec.counts["queueing.lattice_points"] += batch * math.prod(
                int(p) + 1 for p in populations)
            return result
        return wrapper

    def _schweitzer(self, fn):
        rec = self.recorder

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec.enter("queueing.schweitzer")
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.exit()
            rec.counts["queueing.schweitzer_calls"] += 1
            rec.counts["queueing.inner_iterations"] += int(
                result.iterations.sum())
            return result
        return wrapper
