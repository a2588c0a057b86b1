"""Outer fixed-point benchmark: the scalar oracle vs. the tensor engine.

Times one experiment's cold model sweep two ways — point by point
through the pre-tensor scalar solver kept as a test oracle
(``tests/oracles/``), and as one batched
:func:`~repro.model.outer.solve_outer_batch` call — and records the
result as ``BENCH_outer.json`` (schema ``outer-1``).  The scalar arm
lives here, next to the oracle, because nothing under ``src/`` may
import test code.

Run from the repository root::

    PYTHONPATH=src python -m benchmarks.outer_bench --check \
        --time-tolerance 1.0 --output-dir perf-artifacts

``--check`` gates the fresh record against the committed baseline in
``benchmarks/baselines/``: ``batch_outer_iterations`` is deterministic
and carries the strict ``--tolerance``; ``batch_ms`` and ``speedup``
are wall-time measures and use ``--time-tolerance`` (plus the
absolute noise floor for ``batch_ms``).
"""

from __future__ import annotations

import argparse
import json
import os
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any

from repro.experiments.catalog import experiment
from repro.experiments.perf import TIME_NOISE_FLOOR_MS
from repro.model.outer import solve_outer_batch
from repro.model.parameters import paper_sites
from repro.model.solver import CaratModel, ModelConfig
from tests.oracles.solver_reference import ReferenceCaratModel

__all__ = [
    "OUTER_SCHEMA",
    "OuterBenchRecord",
    "run_outer_bench",
    "write_outer_record",
    "load_outer_record",
    "compare_outer_records",
    "main",
]

#: Schema tag of the outer-fixed-point benchmark record.  A *string*,
#: like the kernel record's: ``BENCH_outer.json`` must never be
#: mistaken for an experiment record by
#: :func:`repro.experiments.perf.load_records`.
OUTER_SCHEMA = "outer-1"

#: Experiment whose cold sweep the outer benchmark times (tab3 is the
#: MB8 distributed-update sweep — the heaviest of the suite).
OUTER_SWEEP = "tab3"


@dataclass(frozen=True)
class OuterBenchRecord:
    """Outer fixed-point benchmark: scalar reference vs. tensor engine.

    ``scalar_ms`` times the sweep solved point by point through the
    scalar oracle
    (:class:`~tests.oracles.solver_reference.ReferenceCaratModel`);
    ``batch_ms`` times the same sweep as one
    :func:`~repro.model.outer.solve_outer_batch` call.  ``speedup`` is
    their ratio — the number the tensorized outer loop exists for.
    ``batch_outer_iterations`` sums each grid point's fixed-point
    iterations from the batched solve; it is deterministic and carries
    the strict gate (the batched program must not take extra
    iterations to converge).
    """

    sweep: str
    batch_points: int
    scalar_ms: float
    batch_ms: float
    speedup: float
    batch_outer_iterations: int
    name: str = "outer"
    schema: str = OUTER_SCHEMA

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> OuterBenchRecord:
        known = set(cls.__dataclass_fields__)
        return cls(**{k: v for k, v in data.items() if k in known})


def run_outer_bench(
    sweep: str = OUTER_SWEEP, repeats: int = 3
) -> OuterBenchRecord:
    """Time one experiment's cold sweep both ways: sequential scalar
    solves through the reference oracle vs. one batched tensor
    program.

    Both paths solve the *same* models (same workloads, sites and
    solver options) from cold starts, so the speedup is a
    like-for-like measure of the tensorized outer loop.  Timings take
    the best of *repeats* repetitions.
    """
    spec = experiment(sweep)
    sites = paper_sites()
    workloads = [spec.workload_factory(n) for n in spec.sweep]

    def configs():
        return [
            ModelConfig(workload=workload, sites=sites,
                        max_iterations=1000)
            for workload in workloads
        ]

    best_scalar = best_batch = float("inf")
    solutions = None
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        for config in configs():
            ReferenceCaratModel(config).solve()
        t1 = time.perf_counter()
        best_scalar = min(best_scalar, (t1 - t0) * 1e3)

        t0 = time.perf_counter()
        solutions = solve_outer_batch(
            [CaratModel(config) for config in configs()])
        t1 = time.perf_counter()
        best_batch = min(best_batch, (t1 - t0) * 1e3)

    assert solutions is not None
    return OuterBenchRecord(
        sweep=sweep,
        batch_points=len(workloads),
        scalar_ms=best_scalar,
        batch_ms=best_batch,
        speedup=best_scalar / best_batch if best_batch > 0 else 0.0,
        batch_outer_iterations=sum(s.iterations for s in solutions),
    )


def write_outer_record(
    record: OuterBenchRecord, directory: str | os.PathLike
) -> Path:
    """Write ``BENCH_outer.json``; return the path."""
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"BENCH_{record.name}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_outer_record(
    directory: str | os.PathLike,
) -> OuterBenchRecord | None:
    """Load ``BENCH_outer.json`` from *directory*, if present."""
    path = Path(directory) / "BENCH_outer.json"
    if not path.is_file():
        return None
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    if data.get("schema") != OUTER_SCHEMA:
        return None
    return OuterBenchRecord.from_dict(data)


def compare_outer_records(
    current: OuterBenchRecord,
    baseline: OuterBenchRecord,
    tolerance: float = 0.25,
    time_tolerance: float | None = None,
) -> list[str]:
    """Regression messages for the outer benchmark (empty = pass).

    ``batch_outer_iterations`` is deterministic and gated with the
    strict *tolerance*; ``batch_ms`` and ``speedup`` are wall-time
    measures and use *time_tolerance* (plus the noise floor for the
    absolute timing).
    """
    if time_tolerance is None:
        time_tolerance = tolerance
    problems: list[str] = []
    iters = current.batch_outer_iterations
    ref_iters = baseline.batch_outer_iterations
    if ref_iters > 0 and iters > ref_iters * (1.0 + tolerance):
        problems.append(
            f"outer: batch_outer_iterations regressed {iters} vs "
            f"baseline {ref_iters} "
            f"(+{100.0 * (iters / ref_iters - 1.0):.0f}%, "
            f"allowed +{100.0 * tolerance:.0f}%)"
        )
    allowed_ms = baseline.batch_ms * (1.0 + time_tolerance) + TIME_NOISE_FLOOR_MS
    if baseline.batch_ms > 0 and current.batch_ms > allowed_ms:
        problems.append(
            f"outer: batch_ms regressed {current.batch_ms:.1f} vs "
            f"baseline {baseline.batch_ms:.1f} "
            f"(+{100.0 * (current.batch_ms / baseline.batch_ms - 1.0):.0f}%, "
            f"allowed +{100.0 * time_tolerance:.0f}%)"
        )
    if current.speedup < baseline.speedup * (1.0 - time_tolerance):
        problems.append(
            f"outer: speedup regressed {current.speedup:.1f}x vs "
            f"baseline {baseline.speedup:.1f}x"
        )
    return problems


def main(argv: list[str] | None = None) -> int:
    """``python -m benchmarks.outer_bench`` entry point."""
    parser = argparse.ArgumentParser(
        prog="outer_bench",
        description=(
            "Time the scalar oracle against the batched outer engine, "
            "emit BENCH_outer.json, and optionally gate against the "
            "committed baseline."
        ),
    )
    parser.add_argument(
        "--output-dir", default=None, help="write a fresh BENCH_outer.json here"
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
    args = parser.parse_args(argv)

    record = run_outer_bench()
    print(
        f"BENCH outer: {record.sweep} sweep "
        f"({record.batch_points} points) scalar "
        f"{record.scalar_ms:.0f} ms, batched {record.batch_ms:.0f} ms "
        f"({record.speedup:.1f}x, "
        f"{record.batch_outer_iterations} outer iterations)"
    )
    if args.output_dir:
        print(f"wrote {write_outer_record(record, args.output_dir)}")
    if args.update_baseline:
        print(f"wrote {write_outer_record(record, args.baseline_dir)}")
        return 0
    if args.check:
        baseline = load_outer_record(args.baseline_dir)
        if baseline is None:
            print(
                f"no outer baseline under {args.baseline_dir}; run with "
                f"--update-baseline first"
            )
            return 1
        problems = compare_outer_records(
            record,
            baseline,
            tolerance=args.tolerance,
            time_tolerance=args.time_tolerance,
        )
        for problem in problems:
            print(f"REGRESSION {problem}")
        if problems:
            return 1
        print(f"outer gate passed (tolerance {args.tolerance:.0%})")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
