"""Perf-baseline suite: machine-readable ``BENCH_*.json`` and the CI
regression gate.

The suite runs a fixed set of model-only experiment sweeps — one per
paper figure/table family — through the content-addressed result cache
twice (cold, then warm) and records, per experiment:

* wall time of the cold and warm runs (ms),
* total fixed-point iterations of the model sweep (deterministic, the
  real algorithmic-regression signal) and per-``n`` detail,
* total Schweitzer inner iterations, and
* cache hit/miss counts and the hit rate of the batch.

It also times the MVA kernels (``BENCH_kernels.json``).  Every
producer — this suite, ``benchmarks/outer_bench.py`` and the
``CARAT_BENCH_EMIT`` pytest hook — writes the same
:class:`BenchRecord`, and one comparator gates every record against
the committed baseline in ``benchmarks/baselines/``: :data:`GATES`
names each gated metric with its direction, tolerance class and
absolute noise floor.  Deterministic counters carry the strict
``tolerance`` (default 25%); wall-time metrics use a separate, looser
``time_tolerance`` because shared CI runners are noisy.  Semantics are
documented in docs/diagnostics.md.
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, NamedTuple

from repro.experiments.cache import CacheStats, ResultCache, clear_memory
from repro.experiments.catalog import experiment
from repro.experiments.runner import ExperimentResult

__all__ = [
    "BENCH_SCHEMA",
    "GATES",
    "SUITE",
    "BenchRecord",
    "Gate",
    "add_perf_arguments",
    "compare_records",
    "gate_records",
    "load_records",
    "main",
    "run",
    "run_kernel_bench",
    "run_suite",
    "write_records",
]

#: Bump when the record layout changes incompatibly.
BENCH_SCHEMA = 2

#: Batch size of the kernel microbenchmark's stacked-grid solve.
KERNEL_BATCH = 64

#: Experiments benchmarked by the suite: one per figure/table family
#: (fig5 covers the LB8 sweep behind Figures 5-7, fig8 the MB4 sweep
#: behind Figures 8-10 and Table 5, tab3/tab4 the MB8/UB6 tables).
SUITE = ("fig5", "fig8", "tab3", "tab4")


class Gate(NamedTuple):
    """How one metric is gated.

    ``timed`` metrics use the time tolerance, the others the strict
    one; ``floor`` is absolute slack in the metric's own unit
    (scheduler jitter: a warm cache hit takes ~2 ms, and a 1 ms blip
    is not a 50% regression).
    """

    higher_is_better: bool
    timed: bool
    floor: float = 0.0


_COUNTER = Gate(higher_is_better=False, timed=False)
#: 100 ms for the ``*_ms`` metrics, 100 µs for the ``*_us`` ones.
_WALL = Gate(higher_is_better=False, timed=True, floor=100.0)
_SPEEDUP = Gate(higher_is_better=True, timed=True)

#: Every gated metric; all other metrics are recorded but not gated.
GATES: dict[str, Gate] = {
    "model_iterations": _COUNTER,
    "mva_inner_iterations": _COUNTER,
    "batch_outer_iterations": _COUNTER,
    "cache_hit_rate": Gate(higher_is_better=True, timed=False),
    "wall_ms_cold": _WALL,
    "wall_ms_warm": _WALL,
    "batch_ms": _WALL,
    "single_exact_us": _WALL,
    "single_approx_us": _WALL,
    "batch_per_solve_us": _WALL,
    "batch_speedup": _SPEEDUP,
    "speedup": _SPEEDUP,
}


@dataclass(frozen=True)
class BenchRecord:
    """One benchmark's measurements.

    ``metrics`` holds the numbers (those named in :data:`GATES` are
    gated); ``detail`` holds what was run and any breakdowns.
    """

    name: str
    metrics: dict[str, float]
    detail: dict[str, Any] = field(default_factory=dict)
    schema: int = BENCH_SCHEMA

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> BenchRecord:
        known = set(cls.__dataclass_fields__)
        return cls(**{k: v for k, v in data.items() if k in known})


def _trace_totals(result: ExperimentResult) -> tuple[int, int, dict[str, int]]:
    """(outer iterations, MVA inner iterations, per-n outer) from the
    traces attached to a result's sweep points."""
    outer = 0
    inner = 0
    by_n: dict[str, int] = {}
    seen: set[int] = set()
    for point in result.points:
        if point.n in seen or not point.model_trace:
            continue
        seen.add(point.n)
        summary = point.model_trace["summary"]
        outer += int(summary["iterations"] or 0)
        inner += int(summary["mva_inner_iterations_total"] or 0)
        by_n[str(point.n)] = int(summary["iterations"] or 0)
    return outer, inner, by_n


def run_suite(
    names: tuple[str, ...] = SUITE,
    cache_dir: str | os.PathLike | None = None,
    repeats: int = 2,
) -> list[BenchRecord]:
    """Run the perf suite (model-only, traced, cached cold+warm).

    Each repetition uses a private cache so the cold pass always
    computes and the warm pass is always served; wall times take the
    best of *repeats* repetitions (scheduler noise only ever slows a
    run down).  *cache_dir* overrides the scratch location (a temp
    directory by default).
    """
    from repro.experiments.cache import fetch_or_run

    records: list[BenchRecord] = []
    with tempfile.TemporaryDirectory(dir=cache_dir) as scratch:
        for name in names:
            spec = experiment(name)
            stats = CacheStats()
            best_cold = float("inf")
            best_warm = float("inf")
            result: ExperimentResult | None = None
            for rep in range(max(1, repeats)):
                cache = ResultCache(Path(scratch) / f"{name}-{rep}")
                clear_memory()
                t0 = time.perf_counter()
                result = fetch_or_run(
                    spec, run_simulation=False, trace=True, cache=cache, stats=stats
                )
                t1 = time.perf_counter()
                # Warm pass: drop the in-memory layer so the hit
                # exercises the on-disk path the CLI and benchmarks
                # actually use.
                clear_memory()
                fetch_or_run(
                    spec, run_simulation=False, trace=True, cache=cache, stats=stats
                )
                t2 = time.perf_counter()
                best_cold = min(best_cold, (t1 - t0) * 1e3)
                best_warm = min(best_warm, (t2 - t1) * 1e3)

            assert result is not None
            outer, inner, by_n = _trace_totals(result)
            metrics: dict[str, float] = {
                "points": len(result.points),
                "model_iterations": outer,
                "mva_inner_iterations": inner,
                "wall_ms_cold": best_cold,
                "wall_ms_warm": best_warm,
                "cache_hits": stats.hits,
                "cache_misses": stats.misses,
                "cache_hit_rate": stats.hit_rate,
            }
            records.append(BenchRecord(name, metrics, {"iterations_by_n": by_n}))
    return records


def _kernel_networks(batch: int):
    """A deterministic site-shaped network grid for the microbenchmark:
    three queueing + four delay centers, six chains, populations
    cycling 1-4 across the batch (the paper's site networks are this
    shape and size)."""
    from repro.queueing.centers import CenterKind, ServiceCenter
    from repro.queueing.network import ClosedNetwork

    chains = tuple(f"w{k}" for k in range(6))
    centers = []
    for ci, cname in enumerate(("cpu", "disk", "log")):
        demands = {ch: 0.8 + 0.21 * ci + 0.09 * ki for ki, ch in enumerate(chains)}
        centers.append(ServiceCenter(cname, CenterKind.QUEUEING, demands))
    for di, cname in enumerate(("lw", "rw", "cw", "ut")):
        demands = {ch: 5.0 + 1.7 * di + 0.33 * ki for ki, ch in enumerate(chains)}
        centers.append(ServiceCenter(cname, CenterKind.DELAY, demands))
    return [
        ClosedNetwork(
            centers=tuple(centers),
            populations={ch: 1 + (b + ki) % 4 for ki, ch in enumerate(chains)},
        )
        for b in range(batch)
    ]


def run_kernel_bench(batch: int = KERNEL_BATCH, repeats: int = 3) -> BenchRecord:
    """Time the MVA kernels: one exact solve, a Schweitzer loop over
    *batch* networks, and the same batch as one stacked call.

    Timings take the best of *repeats* repetitions (noise only ever
    slows a run down); the loop and the batch solve the *same*
    networks, so ``batch_speedup`` — the per-solve gain of one stacked
    :func:`~repro.queueing.mva_approx.solve_mva_approx_batch` call
    over looping :func:`~repro.queueing.mva_approx.solve_mva_approx` —
    is a like-for-like comparison through the public dict-based
    adapters.
    """
    from repro.queueing.mva_approx import solve_mva_approx, solve_mva_approx_batch
    from repro.queueing.mva_exact import solve_mva_exact

    networks = _kernel_networks(batch)
    best_exact = best_loop = best_batch = float("inf")
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        solve_mva_exact(networks[0])
        t1 = time.perf_counter()
        best_exact = min(best_exact, (t1 - t0) * 1e6)

        t0 = time.perf_counter()
        for network in networks:
            solve_mva_approx(network)
        t1 = time.perf_counter()
        best_loop = min(best_loop, (t1 - t0) * 1e6 / batch)

        t0 = time.perf_counter()
        solve_mva_approx_batch(networks)
        t1 = time.perf_counter()
        best_batch = min(best_batch, (t1 - t0) * 1e6)

    per_solve = best_batch / batch
    metrics = {
        "single_exact_us": best_exact,
        "single_approx_us": best_loop,
        "batch_us": best_batch,
        "batch_per_solve_us": per_solve,
        "batch_speedup": best_loop / per_solve,
    }
    return BenchRecord("kernels", metrics, {"batch_size": batch})


def write_records(
    records: list[BenchRecord], directory: str | os.PathLike
) -> list[Path]:
    """Write one ``BENCH_<name>.json`` per record; return the paths."""
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for record in records:
        path = out / f"BENCH_{record.name}.json"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(record.to_dict(), handle, indent=2, sort_keys=True, default=str)
            handle.write("\n")
        paths.append(path)
    return paths


def load_records(directory: str | os.PathLike) -> dict[str, BenchRecord]:
    """Load every ``BENCH_*.json`` in *directory*, keyed by name.

    A file of another schema is skipped (it cannot be compared).
    """
    records: dict[str, BenchRecord] = {}
    root = Path(directory)
    if not root.is_dir():
        return records
    for path in sorted(root.glob("BENCH_*.json")):
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        if data.get("schema") != BENCH_SCHEMA:
            continue
        record = BenchRecord.from_dict(data)
        records[record.name] = record
    return records


def compare_records(
    current: dict[str, BenchRecord],
    baseline: dict[str, BenchRecord],
    tolerance: float = 0.25,
    time_tolerance: float | None = None,
) -> list[str]:
    """Regression messages for *current* vs *baseline* (empty = pass).

    Each metric in :data:`GATES` that the baseline records is gated:
    a lower-is-better metric regresses when it exceeds
    ``ref * (1 + tol) + floor``, a higher-is-better one when it falls
    below ``ref * (1 - tol) - floor``.  ``tol`` is *tolerance* for
    counters and *time_tolerance* (defaulting to *tolerance*) for wall
    times.  A benchmark or gated metric present in the baseline but
    missing from the run is a regression; new benchmarks are ignored
    (they become gated once the baseline is updated).
    """
    if time_tolerance is None:
        time_tolerance = tolerance
    problems: list[str] = []
    for name, base in sorted(baseline.items()):
        record = current.get(name)
        if record is None:
            problems.append(f"{name}: benchmark missing from this run")
            continue
        for metric, gate in GATES.items():
            if metric not in base.metrics:
                continue
            if metric not in record.metrics:
                problems.append(f"{name}: {metric} missing from this run")
                continue
            value = record.metrics[metric]
            ref = base.metrics[metric]
            tol = time_tolerance if gate.timed else tolerance
            if gate.higher_is_better:
                limit = ref * (1.0 - tol) - gate.floor
                failed = value < limit
            else:
                limit = ref * (1.0 + tol) + gate.floor
                failed = value > limit
            if failed:
                problems.append(
                    f"{name}: {metric} regressed {value:.4g} vs baseline "
                    f"{ref:.4g} (limit {limit:.4g})"
                )
    return problems


def add_perf_arguments(parser: argparse.ArgumentParser) -> None:
    """The options shared by every perf entry point."""
    parser.add_argument(
        "--output-dir",
        default=None,
        help="directory for the fresh BENCH_*.json files (default: don't write)",
    )
    parser.add_argument(
        "--baseline-dir",
        default="benchmarks/baselines",
        help="committed baseline to compare against",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail (exit 1) on regression against the baseline",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline directory with this run's records",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed relative regression on deterministic counters (default 0.25)",
    )
    parser.add_argument(
        "--time-tolerance",
        type=float,
        default=None,
        help=(
            "allowed relative wall-time regression (default: same as "
            "--tolerance; CI uses a looser value for runner noise)"
        ),
    )


def gate_records(records: list[BenchRecord], args: argparse.Namespace) -> int:
    """Print, write and gate *records* as the perf options in *args*
    ask; return the exit status.

    Only the baseline records named like one of *records* are gated,
    so each entry point checks its own part of a shared baseline
    directory.
    """
    for record in records:
        shown = ", ".join(f"{k} {v:.4g}" for k, v in sorted(record.metrics.items()))
        print(f"BENCH {record.name}: {shown}")
    if args.output_dir:
        for path in write_records(records, args.output_dir):
            print(f"wrote {path}")
    if args.update_baseline:
        for path in write_records(records, args.baseline_dir):
            print(f"wrote {path}")
        return 0
    if not args.check:
        return 0
    current = {r.name: r for r in records}
    baseline = {
        name: record
        for name, record in load_records(args.baseline_dir).items()
        if name in current
    }
    if not baseline:
        print(
            f"no baseline under {args.baseline_dir}; run with "
            f"--update-baseline first"
        )
        return 1
    problems = compare_records(current, baseline, args.tolerance, args.time_tolerance)
    for problem in problems:
        print(f"REGRESSION {problem}")
    if problems:
        return 1
    print(
        f"perf gate passed ({len(baseline)} baselines, "
        f"tolerance {args.tolerance:.0%})"
    )
    return 0


def run(args: argparse.Namespace) -> int:
    """Run the suite and the kernel microbenchmark, then gate them."""
    return gate_records(run_suite() + [run_kernel_bench()], args)


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.experiments.perf`` entry point."""
    parser = argparse.ArgumentParser(
        prog="repro-perf",
        description=(
            "Run the perf-baseline suite, emit BENCH_*.json, and "
            "optionally gate against a committed baseline."
        ),
    )
    add_perf_arguments(parser)
    return run(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
