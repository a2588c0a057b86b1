"""Benchmark worker: one fresh interpreter that sets up and runs a workload.

``run.py`` starts it with the environment pinned and reads JSON lines
from its standard output: ``{"event": "ready", ...}`` once the first
request is ready, then ``{"event": "result", ...}`` at the end.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
from time import perf_counter


def emit(record: dict) -> None:
    print(json.dumps(record), flush=True)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least a
    share *q* of the values at or below it.

    Unlike interpolating definitions it does not move when a run
    repeats its cycle once more, so runs of one and of two cycles
    estimate the same quantity.
    """
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_pass(workloads, cycle, capture, seconds: float,
             max_requests: int, recorder=None):
    """Run whole cycles until *seconds* have passed (or, when
    *max_requests* is set, until that many requests have run)."""
    outcomes = []
    start = perf_counter()
    while True:
        for request in cycle:
            outcomes.append(workloads.execute(request, capture, recorder))
            if max_requests and len(outcomes) >= max_requests:
                return outcomes, perf_counter() - start
        if not max_requests and perf_counter() - start >= seconds:
            return outcomes, perf_counter() - start


def latency_metrics(outcomes) -> dict:
    """Per-type p50/p90 (ms), and their geometric mean over types."""
    by_kind: dict[str, list[float]] = {}
    for outcome in outcomes:
        by_kind.setdefault(outcome.kind, []).append(
            outcome.latency_s * 1e3)
    metrics = {}
    for q, tag in ((0.5, "p50"), (0.9, "p90")):
        values = []
        for kind, latencies in sorted(by_kind.items()):
            value = percentile(latencies, q)
            metrics[f"{kind}_{tag}_ms"] = value
            values.append(value)
        metrics[f"{tag}_ms"] = math.exp(
            sum(math.log(v) for v in values) / len(values))
    metrics["samples"] = {k: len(v) for k, v in sorted(by_kind.items())}
    return metrics


def summarize(workloads, outcomes, wall_s: float, cycle_len: int) -> dict:
    first = outcomes[:cycle_len]
    failures: dict[str, int] = {}
    for outcome in outcomes:
        if outcome.failure:
            failures[outcome.failure] = failures.get(outcome.failure, 0) + 1
    problems = [f"{o.kind} {o.label}: {p}"
                for o in outcomes for p in o.problems]
    digests = [workloads.digest(outcomes[i:i + cycle_len])
               for i in range(0, len(outcomes) - cycle_len + 1, cycle_len)]
    if len(set(digests)) > 1:
        problems.append(f"repeated cycles gave different outputs: "
                        f"{digests}")
    summary = {
        "attempted": len(outcomes),
        "failed": sum(failures.values()),
        "failures": failures,
        "problems": problems,
        "wall_s": wall_s,
        "req_per_s": len(outcomes) / wall_s,
        "digest": workloads.digest(first),
        "metrics": latency_metrics(outcomes),
        "requests": [[o.kind, o.label, o.latency_s * 1e3, o.failure]
                     for o in outcomes],
    }
    summary["metrics"]["error_rate"] = summary["failed"] / len(outcomes)
    compares = [o for o in outcomes if o.kind == "compare"]
    if compares:
        summary["metrics"]["sim_speed_x"] = (
            sum(o.simulated_s for o in compares)
            / sum(o.latency_s for o in compares))
        residuals = [r for o in first for r in o.xput_residuals]
        summary["metrics"]["xput_residual_pct"] = (
            100.0 * sum(residuals) / len(residuals) if residuals else 0.0)
    return summary


def layer_metrics(rec, setup: dict, untraced: dict, traced: dict) -> dict:
    """The per-layer metrics from one traced pass."""
    c, total, self_s = rec.counts, rec.total_s, rec.self_s

    def ratio(num, den):
        return num / den if den else 0.0

    run_s = total["testbed.run"]
    metrics = {
        "cli.import_s": setup["import_s"],
        "cli.modules_loaded": setup["modules_loaded"],
        "scenarios.sample_ms": total["scenarios.sample_one"] * 1e3,
        "scenarios.compile_ms": total["scenarios.compile_workload"] * 1e3,
        "planner.calls": c["planner.calls"],
        "planner.self_ms": self_s["planner"] * 1e3,
        "planner.solves": c["planner.solves"],
        "planner.memo_hits": c["planner.memo_hits"],
        "planner.solves_per_plan": ratio(c["planner.solves"],
                                         c["planner.calls"]),
        "model.batch_calls": c["model.batch_calls"],
        "model.batch_ms": total["model.solve_outer_batch"] * 1e3,
        "model.self_ms": self_s["model"] * 1e3,
        "model.points": c["model.points"],
        "model.outer_iterations": c["model.outer_iterations"],
        "model.iterations_per_point": ratio(c["model.outer_iterations"],
                                            c["model.points"]),
        "model.converged_ratio": ratio(c["model.converged"],
                                       c["model.points"]),
    }
    for phase in ("demands", "mva", "absorb", "abort", "lock", "remote",
                  "tms"):
        metrics[f"model.phase.{phase}_ms"] = c[f"model.phase.{phase}_ms"]
    metrics.update({
        "queueing.exact_calls": c["queueing.exact_calls"],
        "queueing.exact_ms": total["queueing.exact"] * 1e3,
        "queueing.schweitzer_calls": c["queueing.schweitzer_calls"],
        "queueing.schweitzer_ms": total["queueing.schweitzer"] * 1e3,
        "queueing.inner_iterations": c["queueing.inner_iterations"],
        "queueing.lattice_points": c["queueing.lattice_points"],
        "testbed.run_ms": run_s * 1e3,
        "testbed.events": c["testbed.events"],
        "testbed.events_per_s": ratio(c["testbed.events"], run_s),
        "testbed.events_per_commit": ratio(c["testbed.events"],
                                           c["testbed.commits"]),
        "testbed.commits": c["testbed.commits"],
        "testbed.aborts": c["testbed.aborts"],
        "testbed.commit_ratio": ratio(
            c["testbed.commits"], c["testbed.commits"] + c["testbed.aborts"]),
        "testbed.lock_requests": rec.calls["testbed.lock_request"],
        "testbed.lock_request_ms": total["testbed.lock_request"] * 1e3,
        "testbed.lock_waits": c["testbed.lock_waits"],
        "testbed.deadlocks_local": c["testbed.deadlocks_local"],
        "testbed.deadlocks_global": c["testbed.deadlocks_global"],
        "testbed.telemetry_samples": rec.calls["testbed.telemetry_sample"],
        "testbed.telemetry_ms": total["testbed.telemetry_sample"] * 1e3,
        "experiments.compare_self_ms": self_s["experiments"] * 1e3,
        "trace.req_per_s": traced["req_per_s"],
        "trace.untraced_req_per_s": untraced["req_per_s"],
        "trace.overhead_pct": 100.0 * (
            untraced["req_per_s"] / traced["req_per_s"] - 1.0),
    })
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--requests", type=int, default=0,
                        help="run this many requests per pass instead "
                             "of timing whole cycles (self-test)")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)

    before = len(sys.modules)
    start = perf_counter()
    import repro.cli  # noqa: F401  (what every CLI call pays)
    setup = {"import_s": perf_counter() - start,
             "modules_loaded": len(sys.modules) - before}
    import tracing
    import workloads

    cycle = workloads.build_cycle(args.workload, args.seed)
    emit({"event": "ready", "cycle": len(cycle), **setup})
    if args.setup_only:
        return 0

    capture = tracing.Capture()
    result = {"event": "result", "setup": setup, "cycle": len(cycle)}
    if args.trace == 0:
        with tracing.Hooks(capture):
            outcomes, wall = run_pass(workloads, cycle, capture,
                                      args.seconds, args.requests)
        result["untraced"] = summarize(workloads, outcomes, wall,
                                       min(len(cycle), len(outcomes)))
    else:
        # Same work twice: one untraced cycle for the overhead
        # baseline, then the workload rebuilt and run once under the
        # span wrappers.
        limit = args.requests or len(cycle)
        with tracing.Hooks(capture):
            outcomes, wall = run_pass(workloads, cycle, capture, 0.0, limit)
        untraced = summarize(workloads, outcomes, wall, len(outcomes))
        recorder = tracing.Recorder()
        with tracing.Hooks(capture, recorder):
            traced_cycle = workloads.build_cycle(args.workload, args.seed)
            outcomes, wall = run_pass(workloads, traced_cycle, capture,
                                      0.0, limit, recorder)
        traced = summarize(workloads, outcomes, wall, len(outcomes))
        if traced["digest"] != untraced["digest"]:
            traced["problems"].append(
                f"traced outputs differ from untraced: "
                f"{traced['digest']} != {untraced['digest']}")
        result.update(untraced=untraced, traced=traced,
                      layers=layer_metrics(recorder, setup, untraced,
                                           traced),
                      self_ms={layer: s * 1e3 for layer, s in
                               sorted(recorder.self_s.items())},
                      spans=len(recorder.spans),
                      spans_dropped=recorder.dropped)
        if args.spans_out:
            recorder.write_jsonl(args.spans_out)
    result["hooks_left"] = tracing.installed_hooks()
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
