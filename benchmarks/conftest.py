"""Fixtures for the reproduction benchmarks.

Run with ``pytest benchmarks/ --benchmark-only``.  Set
``CARAT_BENCH_FULL=1`` for paper-length simulation windows (20 minutes
of simulated time per operating point instead of 4).

Sweep results are served from the content-addressed on-disk cache
(:mod:`repro.experiments.cache`; location ``$CARAT_CACHE_DIR``, else
``~/.cache/carat-qnm``), so re-running a benchmark session with
unchanged inputs skips the simulations entirely.  Set
``CARAT_BENCH_JOBS=N`` to fan the sweep points of cache misses out
across N worker processes (see docs/parallel.md).

Set ``CARAT_BENCH_EMIT=<dir>`` to write one ``BENCH_<test>.json``
per benchmark after the session: the same record ``repro perf`` writes
(:class:`repro.experiments.perf.BenchRecord`), with the wall-time
stats as metrics and each benchmark's ``extra_info`` as detail
(docs/diagnostics.md).
"""

from __future__ import annotations

import os
import re

import pytest

from repro.experiments.perf import BenchRecord, write_records
from repro.model.parameters import paper_sites


def bench_record(bench, session_cache) -> BenchRecord:
    """The record of one pytest-benchmark entry: its wall-time stats
    as (ungated) metrics; its group, ``extra_info`` and the session's
    result-cache counts as detail."""
    # Depending on the pytest-benchmark version the entry exposes the
    # Stats object directly or wrapped in a Metadata.
    stats = getattr(bench.stats, "stats", bench.stats)
    metrics = {
        "wall_ms_min": stats.min * 1e3,
        "wall_ms_mean": stats.mean * 1e3,
        "wall_ms_stddev": stats.stddev * 1e3,
        "rounds": stats.rounds,
    }
    detail = {
        "group": bench.group,
        "extra_info": dict(bench.extra_info),
        "session_cache": session_cache,
    }
    name = re.sub(r"[^A-Za-z0-9_.-]+", "_", bench.name).strip("_")
    return BenchRecord(name, metrics, detail)


def pytest_sessionfinish(session, exitstatus):
    """Emit BENCH_*.json records when ``CARAT_BENCH_EMIT`` is set."""
    out_dir = os.environ.get("CARAT_BENCH_EMIT")
    bench_session = getattr(session.config, "_benchmarksession", None)
    if not out_dir or bench_session is None:
        return
    from repro.experiments.bench import SESSION_CACHE_STATS
    cache_info = {
        "hits": SESSION_CACHE_STATS.hits,
        "misses": SESSION_CACHE_STATS.misses,
        "hit_rate": SESSION_CACHE_STATS.hit_rate,
    }
    write_records(
        [bench_record(bench, cache_info)
         for bench in bench_session.benchmarks
         # An errored or skipped benchmark has no stats.
         if getattr(bench, "stats", None) is not None],
        out_dir)


@pytest.fixture(scope="session")
def bench_sites():
    """The paper's two-node configuration."""
    return paper_sites()


@pytest.fixture(scope="session")
def sim_window():
    """(warmup_ms, duration_ms) for the simulator runs."""
    if os.environ.get("CARAT_BENCH_FULL", "") == "1":
        return 60_000.0, 1_200_000.0
    return 20_000.0, 240_000.0
