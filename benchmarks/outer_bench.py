"""Outer fixed-point benchmark: the scalar oracle vs. the tensor engine.

Times one experiment's cold model sweep two ways — point by point
through the pre-tensor scalar solver kept as a test oracle
(``tests/oracles/``), and as one batched
:func:`~repro.model.outer.solve_outer_batch` call — and records the
result as ``BENCH_outer.json``, a
:class:`~repro.experiments.perf.BenchRecord` like every other
benchmark.  The scalar arm lives here, next to the oracle, because
nothing under ``src/`` may import test code.

Run from the repository root::

    PYTHONPATH=src python -m benchmarks.outer_bench --check \
        --time-tolerance 1.0 --output-dir perf-artifacts

``--check`` gates the fresh record against ``BENCH_outer.json`` in
the committed baseline ``benchmarks/baselines/`` with the one
comparator, :func:`~repro.experiments.perf.compare_records`.
"""

from __future__ import annotations

import argparse
import time

from repro.experiments.catalog import experiment
from repro.experiments.perf import BenchRecord, add_perf_arguments, gate_records
from repro.model.outer import solve_outer_batch
from repro.model.parameters import paper_sites
from repro.model.solver import CaratModel, ModelConfig
from tests.oracles.solver_reference import ReferenceCaratModel

__all__ = ["OUTER_SWEEP", "run_outer_bench", "main"]

#: Experiment whose cold sweep the outer benchmark times (tab3 is the
#: MB8 distributed-update sweep — the heaviest of the suite).
OUTER_SWEEP = "tab3"


def run_outer_bench(sweep: str = OUTER_SWEEP, repeats: int = 3) -> BenchRecord:
    """Time one experiment's cold sweep both ways: sequential scalar
    solves through the reference oracle vs. one batched tensor
    program.

    ``scalar_ms`` times the sweep solved point by point through
    :class:`~tests.oracles.solver_reference.ReferenceCaratModel`;
    ``batch_ms`` times the same sweep as one
    :func:`~repro.model.outer.solve_outer_batch` call, and ``speedup``
    is their ratio — the number the tensorized outer loop exists for.
    Both paths solve the *same* models (same workloads, sites and
    solver options) from cold starts.  ``batch_outer_iterations`` sums
    each grid point's fixed-point iterations from the batched solve;
    it is deterministic and carries the strict gate (the batched
    program must not take extra iterations to converge).  Timings take
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
    metrics = {
        "scalar_ms": best_scalar,
        "batch_ms": best_batch,
        "speedup": best_scalar / best_batch if best_batch > 0 else 0.0,
        "batch_outer_iterations": sum(s.iterations for s in solutions),
    }
    detail = {"sweep": sweep, "batch_points": len(workloads)}
    return BenchRecord("outer", metrics, detail)


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
    add_perf_arguments(parser)
    return gate_records([run_outer_bench()], parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
