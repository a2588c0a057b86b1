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

``write_records`` emits one ``BENCH_<exp>.json`` per experiment; the
first set is committed under ``benchmarks/baselines/`` and CI compares
a fresh run against it, failing on more than ``tolerance`` (default
25%) relative regression.  Wall-time metrics use a separate, looser
``time_tolerance`` because shared CI runners are noisy; the iteration
counters are deterministic and carry the strict gate.  Semantics are
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
from typing import Any

from repro.experiments.cache import CacheStats, ResultCache, clear_memory
from repro.experiments.catalog import experiment
from repro.experiments.runner import ExperimentResult

__all__ = [
    "BENCH_SCHEMA",
    "KERNEL_SCHEMA",
    "SUITE",
    "BenchRecord",
    "KernelBenchRecord",
    "run_suite",
    "run_kernel_bench",
    "write_records",
    "load_records",
    "compare_records",
    "write_kernel_record",
    "load_kernel_record",
    "compare_kernel_records",
    "main",
]

#: Bump when the record layout changes incompatibly.
BENCH_SCHEMA = 1

#: Schema tag of the MVA-kernel microbenchmark record.  A *string*, so
#: :func:`load_records` (which keys on ``schema == BENCH_SCHEMA``)
#: never mistakes ``BENCH_kernels.json`` for an experiment record.
KERNEL_SCHEMA = "kernel-1"

#: Batch size of the kernel microbenchmark's stacked-grid solve.
KERNEL_BATCH = 64

#: Absolute slack for the microsecond-scale kernel timings (scheduler
#: jitter; same role as :data:`TIME_NOISE_FLOOR_MS` for the suite).
KERNEL_NOISE_FLOOR_US = 100.0

#: Experiments benchmarked by the suite: one per figure/table family
#: (fig5 covers the LB8 sweep behind Figures 5-7, fig8 the MB4 sweep
#: behind Figures 8-10 and Table 5, tab3/tab4 the MB8/UB6 tables).
SUITE = ("fig5", "fig8", "tab3", "tab4")

#: Metrics gated with the strict (deterministic-counter) tolerance;
#: lower is better.
COUNTER_METRICS = ("model_iterations", "mva_inner_iterations")

#: Wall-time metrics gated with the looser time tolerance; lower is
#: better.
TIME_METRICS = ("wall_ms_cold", "wall_ms_warm")

#: Absolute slack added to wall-time thresholds: differences below
#: this are scheduler jitter (a warm cache hit takes ~2 ms; a 1 ms
#: blip is not a 50% regression).
TIME_NOISE_FLOOR_MS = 100.0


@dataclass(frozen=True)
class BenchRecord:
    """One experiment's perf measurements."""

    name: str
    points: int
    model_iterations: int
    mva_inner_iterations: int
    wall_ms_cold: float
    wall_ms_warm: float
    cache_hits: int
    cache_misses: int
    cache_hit_rate: float
    iterations_by_n: dict[str, int] = field(default_factory=dict)
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
            records.append(
                BenchRecord(
                    name=name,
                    points=len(result.points),
                    model_iterations=outer,
                    mva_inner_iterations=inner,
                    wall_ms_cold=best_cold,
                    wall_ms_warm=best_warm,
                    cache_hits=stats.hits,
                    cache_misses=stats.misses,
                    cache_hit_rate=stats.hit_rate,
                    iterations_by_n=by_n,
                )
            )
    return records


@dataclass(frozen=True)
class KernelBenchRecord:
    """MVA-kernel microbenchmark: single solves and the batched grid.

    ``batch_speedup`` is the per-solve gain of one stacked
    :func:`~repro.queueing.mva_approx.solve_mva_approx_batch` call over
    looping :func:`~repro.queueing.mva_approx.solve_mva_approx` across
    the same networks — the number the vectorized kernels exist for.
    """

    single_exact_us: float
    single_approx_us: float
    batch_size: int
    batch_us: float
    batch_per_solve_us: float
    batch_speedup: float
    name: str = "kernels"
    schema: str = KERNEL_SCHEMA

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> KernelBenchRecord:
        known = set(cls.__dataclass_fields__)
        return cls(**{k: v for k, v in data.items() if k in known})


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
        demands = {ch: 0.8 + 0.21 * ci + 0.09 * ki
                   for ki, ch in enumerate(chains)}
        centers.append(ServiceCenter(cname, CenterKind.QUEUEING, demands))
    for di, cname in enumerate(("lw", "rw", "cw", "ut")):
        demands = {ch: 5.0 + 1.7 * di + 0.33 * ki
                   for ki, ch in enumerate(chains)}
        centers.append(ServiceCenter(cname, CenterKind.DELAY, demands))
    return [
        ClosedNetwork(
            centers=tuple(centers),
            populations={ch: 1 + (b + ki) % 4
                         for ki, ch in enumerate(chains)},
        )
        for b in range(batch)
    ]


def run_kernel_bench(
    batch: int = KERNEL_BATCH, repeats: int = 3
) -> KernelBenchRecord:
    """Time the MVA kernels: one exact solve, a Schweitzer loop over
    *batch* networks, and the same batch as one stacked call.

    Timings take the best of *repeats* repetitions (noise only ever
    slows a run down); the loop and the batch solve the *same*
    networks, so the speedup is a like-for-like comparison through the
    public dict-based adapters.
    """
    from repro.queueing.mva_approx import (solve_mva_approx,
                                           solve_mva_approx_batch)
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
    return KernelBenchRecord(
        single_exact_us=best_exact,
        single_approx_us=best_loop,
        batch_size=batch,
        batch_us=best_batch,
        batch_per_solve_us=per_solve,
        batch_speedup=best_loop / per_solve,
    )


def write_kernel_record(
    record: KernelBenchRecord, directory: str | os.PathLike
) -> Path:
    """Write ``BENCH_kernels.json``; return the path."""
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"BENCH_{record.name}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_kernel_record(
    directory: str | os.PathLike,
) -> KernelBenchRecord | None:
    """Load ``BENCH_kernels.json`` from *directory*, if present."""
    path = Path(directory) / "BENCH_kernels.json"
    if not path.is_file():
        return None
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    if data.get("schema") != KERNEL_SCHEMA:
        return None
    return KernelBenchRecord.from_dict(data)


def compare_kernel_records(
    current: KernelBenchRecord,
    baseline: KernelBenchRecord,
    time_tolerance: float = 0.25,
) -> list[str]:
    """Regression messages for the kernel microbenchmark (empty =
    pass): per-solve timings must not exceed the baseline by more than
    *time_tolerance* plus the noise floor, and the batch speedup must
    not fall more than *time_tolerance* below it."""
    problems: list[str] = []
    for metric in ("single_exact_us", "single_approx_us",
                   "batch_per_solve_us"):
        value = getattr(current, metric)
        ref = getattr(baseline, metric)
        if ref <= 0:
            continue
        if value > ref * (1.0 + time_tolerance) + KERNEL_NOISE_FLOOR_US:
            problems.append(
                f"kernels: {metric} regressed {value:.1f} vs baseline "
                f"{ref:.1f} (+{100.0 * (value / ref - 1.0):.0f}%, "
                f"allowed +{100.0 * time_tolerance:.0f}%)"
            )
    if current.batch_speedup < baseline.batch_speedup * (1.0 - time_tolerance):
        problems.append(
            f"kernels: batch_speedup regressed "
            f"{current.batch_speedup:.1f}x vs baseline "
            f"{baseline.batch_speedup:.1f}x"
        )
    return problems


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
            json.dump(record.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        paths.append(path)
    return paths


def load_records(directory: str | os.PathLike) -> dict[str, BenchRecord]:
    """Load every ``BENCH_*.json`` in *directory*, keyed by name."""
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

    Counter metrics regress when they exceed the baseline by more than
    *tolerance*; wall-time metrics use *time_tolerance* (defaulting to
    *tolerance*) plus an absolute noise floor; the cache hit rate
    regresses when it falls more than *tolerance* below the baseline.
    A benchmark present in the baseline but missing from the run is a
    regression; new benchmarks are ignored (they become gated once the
    baseline is updated).
    """
    if time_tolerance is None:
        time_tolerance = tolerance
    problems: list[str] = []
    for name, base in sorted(baseline.items()):
        record = current.get(name)
        if record is None:
            problems.append(f"{name}: benchmark missing from this run")
            continue
        for metric in COUNTER_METRICS + TIME_METRICS:
            timed = metric in TIME_METRICS
            tol = time_tolerance if timed else tolerance
            slack = TIME_NOISE_FLOOR_MS if timed else 0.0
            value = getattr(record, metric)
            ref = getattr(base, metric)
            if ref <= 0:
                continue
            if value > ref * (1.0 + tol) + slack:
                msg = (
                    f"{name}: {metric} regressed {value:.1f} vs "
                    f"baseline {ref:.1f} "
                    f"(+{100.0 * (value / ref - 1.0):.0f}%, "
                    f"allowed +{100.0 * tol:.0f}%)"
                )
                problems.append(msg)
        if record.cache_hit_rate < base.cache_hit_rate * (1.0 - tolerance):
            msg = (
                f"{name}: cache_hit_rate regressed "
                f"{record.cache_hit_rate:.2f} vs baseline "
                f"{base.cache_hit_rate:.2f}"
            )
            problems.append(msg)
    return problems


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.experiments.perf`` / ``repro perf`` entry."""
    parser = argparse.ArgumentParser(
        prog="repro-perf",
        description=(
            "Run the perf-baseline suite, emit BENCH_*.json, and "
            "optionally gate against a committed baseline."
        ),
    )
    parser.add_argument(
        "--output-dir", default=None, help="write fresh BENCH_*.json files here"
    )
    parser.add_argument("--baseline-dir", default="benchmarks/baselines")
    parser.add_argument(
        "--check", action="store_true", help="exit 1 on regression vs the baseline"
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline with this run",
    )
    parser.add_argument("--tolerance", type=float, default=0.25)
    parser.add_argument(
        "--time-tolerance",
        type=float,
        default=None,
        help="wall-time tolerance (default: --tolerance)",
    )
    parser.add_argument(
        "--suite", nargs="+", default=list(SUITE), help="experiment ids to benchmark"
    )
    parser.add_argument(
        "--no-kernels",
        action="store_true",
        help="skip the MVA-kernel microbenchmark",
    )
    args = parser.parse_args(argv)

    records = run_suite(tuple(args.suite))
    for record in records:
        line = (
            f"BENCH {record.name}: cold {record.wall_ms_cold:.0f} ms, "
            f"warm {record.wall_ms_warm:.0f} ms, "
            f"{record.model_iterations} model iterations, "
            f"cache hit rate {record.cache_hit_rate:.2f} "
            f"({record.cache_hits} hits / {record.cache_misses} misses)"
        )
        print(line)
    kernel = None if args.no_kernels else run_kernel_bench()
    if kernel is not None:
        line = (
            f"BENCH kernels: exact {kernel.single_exact_us:.0f} us, "
            f"approx {kernel.single_approx_us:.0f} us, batched "
            f"B={kernel.batch_size} {kernel.batch_per_solve_us:.0f} "
            f"us/solve ({kernel.batch_speedup:.1f}x)"
        )
        print(line)
    if args.output_dir:
        for path in write_records(records, args.output_dir):
            print(f"wrote {path}")
        if kernel is not None:
            print(f"wrote {write_kernel_record(kernel, args.output_dir)}")
    if args.update_baseline:
        for path in write_records(records, args.baseline_dir):
            print(f"wrote {path}")
        if kernel is not None:
            print(
                f"wrote {write_kernel_record(kernel, args.baseline_dir)}")
        return 0
    if args.check:
        baseline = load_records(args.baseline_dir)
        if not baseline:
            msg = (
                f"no baseline under {args.baseline_dir}; run with "
                f"--update-baseline first"
            )
            print(msg)
            return 1
        problems = compare_records(
            {r.name: r for r in records},
            baseline,
            tolerance=args.tolerance,
            time_tolerance=args.time_tolerance,
        )
        kernel_baseline = load_kernel_record(args.baseline_dir)
        if kernel is not None and kernel_baseline is not None:
            problems += compare_kernel_records(
                kernel,
                kernel_baseline,
                time_tolerance=(args.time_tolerance
                                if args.time_tolerance is not None
                                else args.tolerance),
            )
        for problem in problems:
            print(f"REGRESSION {problem}")
        if problems:
            return 1
        msg = (
            f"perf gate passed ({len(baseline)} baselines, "
            f"tolerance {args.tolerance:.0%})"
        )
        print(msg)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
