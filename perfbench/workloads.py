"""The benchmark's workloads: request cycles, execution and checks.

A workload is a *cycle*: a list of requests made from the seed alone.
A run executes the cycle front to back as one closed-loop client (the
next request starts when the previous one returns), and repeats it
until its time is up, always finishing the cycle it is in.

* ``solve-mix`` -- model only.  Scenarios are the four paper
  workloads and the first three samples of the ``mb4-jitter``,
  ``ub-imbalanced`` and ``skew-heavy`` families at family seed 2; the
  skew-heavy ones hold the non-converging points known at the seed
  commit (``skew-heavy-s2-i002`` fails at n=12 and n=16).  The run's
  seed orders the requests.  Each scenario gives a ``sweep`` request
  (one cold ``solve_model_batch`` over n = 4, 8, 12, 16, 20) and a
  ``plan`` request (``repro.planner.plan`` on the scenario's mix at
  its own transaction size: optimum search plus an abort-probability
  SLO verdict, no what-if fan-out, no disk cache).
* ``compare-low`` / ``compare-high`` -- ``compare_spec`` requests (a
  B=1 solve plus a simulation with telemetry), six simulator seeds
  per point.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import traceback
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any

import repro.experiments.compare as compare_mod
import repro.model.outer as outer_mod
import repro.planner as planner_pkg
import repro.scenarios.compile as compile_mod
import repro.scenarios.generator as generator_mod
from repro.errors import ConvergenceError, SimulationError
from repro.model.parameters import paper_sites
from repro.model.workload import STANDARD_WORKLOADS
from repro.planner.spec import PlanSpec, SloSpec
from repro.scenarios.spec import builtin_scenario

WORKLOADS = ("solve-mix", "compare-low", "compare-high")

SWEEP_GRID = (4, 8, 12, 16, 20)
PAPER_WORKLOADS = ("LB8", "MB4", "MB8", "UB6")
#: Scenario families and the number of samples drawn from each.
FAMILIES = (("mb4-jitter", 3), ("ub-imbalanced", 3), ("skew-heavy", 3))
#: One family seed for every run: a scenario set drawn per run would
#: make runs incomparable (one non-converging skew-heavy sweep costs
#: ~10 s against a ~130 ms median), and seed 2 holds the known
#: non-converging points, kept as the baseline failures.
FAMILY_SEED = 2
PLAN_MPL_MAX = 12
PLAN_SLO = SloSpec(abort_probability=0.1)

COMPARE_POINTS = {
    "compare-low": (("MB4", 4), ("MB4", 8), ("LB8", 4), ("LB8", 8)),
    "compare-high": (("MB8", 16), ("MB8", 20), ("UB6", 20)),
}
#: (warm-up, measured) simulated milliseconds per compare request.
COMPARE_WINDOW_MS = {
    "compare-low": (10_000.0, 60_000.0),
    "compare-high": (10_000.0, 120_000.0),
}
COMPARE_REPLICAS = 6


@dataclass(frozen=True)
class Request:
    kind: str        #: "sweep", "plan" or "compare"
    label: str
    payload: Any


@dataclass
class Outcome:
    kind: str
    label: str
    latency_s: float
    #: None, or "convergence", "simulation", "check" or "error".
    failure: str | None = None
    problems: list[str] = field(default_factory=list)
    digest: Any = None
    simulated_s: float = 0.0
    xput_residuals: list[float] = field(default_factory=list)


def build_cycle(workload: str, seed: int) -> list[Request]:
    """The workload's request cycle for *seed* (same seed, same list)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(seed)
    if workload == "solve-mix":
        return _solve_mix_cycle(rng)
    warmup_ms, duration_ms = COMPARE_WINDOW_MS[workload]
    cycle = []
    for name, n in COMPARE_POINTS[workload]:
        for _ in range(COMPARE_REPLICAS):
            cycle.append(Request(
                "compare", f"{name} n={n}",
                (STANDARD_WORKLOADS[name](n), rng.randrange(1, 2**31),
                 warmup_ms, duration_ms)))
    rng.shuffle(cycle)
    return cycle


def _solve_mix_cycle(rng: random.Random) -> list[Request]:
    specs = [builtin_scenario(name) for name in PAPER_WORKLOADS]
    for name, count in FAMILIES:
        specs += generator_mod.sample_family(
            generator_mod.family(name), FAMILY_SEED, count)
    rng.shuffle(specs)
    sites = paper_sites()
    cycle = []
    for spec in specs:
        configs = tuple(compile_mod.compile_model(spec, sites=sites, n=n)
                        for n in SWEEP_GRID)
        cycle.append(Request("sweep", spec.name, configs))
        cycle.append(Request("plan", spec.name, PlanSpec(
            workload=compile_mod.compile_workload(spec),
            mpl_max=PLAN_MPL_MAX, slo=PLAN_SLO)))
    return cycle


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


def execute(request: Request, capture, recorder=None) -> Outcome:
    """Run one request, time it, then check and digest its output.

    Entry points are looked up on their modules at call time, so the
    traced run's wrappers see every call.  With a *recorder* the call
    (not the checks) runs inside a ``bench.request`` root span.
    """
    if recorder is not None:
        recorder.request += 1
        recorder.enter("bench.request")
    start = perf_counter()
    failure = value = None
    try:
        if request.kind == "sweep":
            value = outer_mod.solve_model_batch(request.payload)
        elif request.kind == "plan":
            value = planner_pkg.plan(request.payload, jobs=1,
                                     use_cache=False)
        else:
            workload, sim_seed, warmup_ms, duration_ms = request.payload
            value = compare_mod.compare_spec(
                workload, seed=sim_seed, warmup_ms=warmup_ms,
                duration_ms=duration_ms)
    except ConvergenceError as exc:
        failure, value = "convergence", exc
    except SimulationError as exc:
        failure, value = "simulation", exc
    except Exception as exc:  # keep the run going; report it
        traceback.print_exc()
        failure, value = "error", exc
    outcome = Outcome(request.kind, request.label,
                      perf_counter() - start, failure)
    if failure == "error":
        outcome.problems.append(f"{type(value).__name__}: {value}")
    if recorder is not None:
        recorder.exit()
    runs = capture.take()
    if failure is not None:
        outcome.digest = {"failed": failure,
                          "error": type(value).__name__}
        return outcome
    if request.kind == "sweep":
        _check_sweep(outcome, value)
    elif request.kind == "plan":
        _check_plan(outcome, value)
    else:
        _check_compare(outcome, value, runs)
    if outcome.problems and outcome.failure is None:
        outcome.failure = "check"
    return outcome


# ---------------------------------------------------------------------------
# output checks and digests
# ---------------------------------------------------------------------------


def _r6(x: float) -> float:
    return round(float(x), 6)


def _finite_nonneg(x) -> bool:
    return x is not None and math.isfinite(x) and x >= 0.0


def solution_problems(solution) -> list[str]:
    """Why a converged model solution is not physical (empty if it is)."""
    problems = []
    for name, site in sorted(solution.sites.items()):
        for center, u in (("cpu", site.cpu_utilization),
                          ("disk", site.disk_utilization)):
            if not (_finite_nonneg(u) and u < 1.0):
                problems.append(f"site {name} {center} utilisation {u}")
        x = site.transaction_throughput_per_s
        if not (_finite_nonneg(x) and x > 0.0):
            problems.append(f"site {name} throughput {x}")
        for chain, result in site.chains.items():
            for label in ("throughput_per_s", "cycle_response_ms",
                          "abort_probability", "lock_wait_ms",
                          "remote_wait_ms", "commit_wait_ms"):
                value = getattr(result, label)
                if not _finite_nonneg(value):
                    problems.append(
                        f"site {name} chain {chain.value} {label} {value}")
    return problems


def _solution_digest(solution) -> list:
    sites = []
    for name, site in sorted(solution.sites.items()):
        chains = [[chain.value, _r6(r.throughput_per_s),
                   _r6(r.cycle_response_ms), _r6(r.abort_probability)]
                  for chain, r in sorted(site.chains.items(),
                                         key=lambda kv: kv[0].value)]
        sites.append([name, _r6(site.cpu_utilization),
                      _r6(site.disk_utilization), chains])
    return [solution.iterations, sites]


def _check_sweep(outcome: Outcome, solutions) -> None:
    for solution in solutions:
        if not solution.converged:
            outcome.failure = "convergence"
        outcome.problems += solution_problems(solution)
    outcome.digest = [_solution_digest(s) for s in solutions]


def _check_plan(outcome: Outcome, result) -> None:
    point = result.optimum.point
    if not point.converged:
        outcome.failure = "convergence"
    if not (_finite_nonneg(point.throughput_per_s)
            and point.throughput_per_s > 0.0):
        outcome.problems.append(f"optimum throughput "
                                f"{point.throughput_per_s}")
    if not _finite_nonneg(point.response_ms):
        outcome.problems.append(f"optimum response {point.response_ms}")
    if not (_finite_nonneg(point.abort_probability)
            and point.abort_probability <= 1.0):
        outcome.problems.append(
            f"optimum abort probability {point.abort_probability}")
    if point.mpl not in result.optimum.grid:
        outcome.problems.append(f"optimum MPL {point.mpl} off the grid")
    for entry in result.bottlenecks:
        if not _finite_nonneg(entry.residence_share):
            outcome.problems.append(
                f"bottleneck {entry.site}/{entry.center} share "
                f"{entry.residence_share}")
    outcome.digest = [point.mpl, _r6(point.throughput_per_s),
                      _r6(point.response_ms),
                      _r6(point.abort_probability),
                      result.optimum.solves,
                      [v.max_mpl for v in result.slo]]


def simulation_problems(measurement, simulation) -> list[str]:
    """Why a simulator measurement is not sane (empty if it is).

    Every deadlock has its own victim transaction, but a deadlock is
    counted when it is detected and the victim's abort only when its
    rollback ends; in between, the abort reply may still be crossing
    the network.  So a deadlock counted in the window has its abort
    counted too, unless the victim was still unfinished at the
    horizon: deadlocks <= aborts + unfinished transactions.
    """
    problems = []
    aborts = deadlocks = 0
    for name, site in sorted(measurement.sites.items()):
        commits = sum(site.commits_by_type.values())
        if commits <= 0:
            problems.append(f"site {name}: no commits")
        counts = (list(site.commits_by_type.values())
                  + list(site.aborts_by_type.values())
                  + [site.local_deadlocks, site.global_deadlocks,
                     site.lock_waits, site.disk_ios])
        if any(c < 0 for c in counts):
            problems.append(f"site {name}: negative count in {counts}")
        aborts += sum(site.aborts_by_type.values())
        deadlocks += site.local_deadlocks + site.global_deadlocks
    unfinished = len(simulation.registry)
    if deadlocks > aborts + unfinished:
        problems.append(f"{deadlocks} deadlocks > {aborts} aborts + "
                        f"{unfinished} unfinished transactions")
    return problems


def _measurement_digest(measurement, simulation) -> list:
    sites = []
    for name, site in sorted(measurement.sites.items()):
        sites.append([
            name,
            [site.commits_by_type[b] for b in sorted(
                site.commits_by_type, key=lambda b: b.value)],
            [site.aborts_by_type[b] for b in sorted(
                site.aborts_by_type, key=lambda b: b.value)],
            site.local_deadlocks, site.global_deadlocks,
            site.lock_waits, site.disk_ios])
    return [simulation.sim._steps, sites]


def _check_compare(outcome: Outcome, report: dict, runs: list) -> None:
    if not report["model"]["converged"]:
        outcome.failure = "convergence"
    rows = []
    for row in report["rows"]:
        for side in ("measured", "predicted"):
            if not _finite_nonneg(row[side]):
                outcome.problems.append(
                    f"{row['site']} {row['metric']} {side} {row[side]}")
        metric, predicted = row["metric"], row["predicted"]
        if metric.endswith("_utilization") and not predicted < 1.0:
            outcome.problems.append(
                f"{row['site']} predicted {metric} {predicted}")
        if metric == "tr_xput_per_s":
            if not predicted > 0.0:
                outcome.problems.append(
                    f"{row['site']} predicted throughput {predicted}")
            if row["residual"] is not None:
                outcome.xput_residuals.append(abs(row["residual"]))
        rows.append([row["site"], row["base"], metric,
                     _r6(row["predicted"])])
    if len(runs) != 1:
        outcome.problems.append(f"{len(runs)} simulations, expected 1")
        outcome.digest = rows
        return
    measurement, simulation = runs[0]
    outcome.problems += simulation_problems(measurement, simulation)
    config = simulation.config
    outcome.simulated_s = (config.warmup_ms + config.duration_ms) / 1e3
    outcome.digest = [report["model"]["iterations"], rows,
                      _measurement_digest(measurement, simulation)]


def digest(outcomes: list[Outcome]) -> str:
    """Short hash of the outputs of *outcomes*, in order."""
    items = [[o.kind, o.label, o.digest] for o in outcomes]
    text = json.dumps(items, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
