"""Tests for the one benchmark record and regression gate
(:mod:`repro.experiments.perf`) and its producers: the perf suite,
the kernel microbenchmark and the simulator benchmark, the outer
fixed-point benchmark
(``benchmarks/outer_bench.py``) and the ``CARAT_BENCH_EMIT`` pytest
hook (``benchmarks/conftest.py``).
"""

import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from benchmarks import outer_bench
from benchmarks.conftest import bench_record
from benchmarks.outer_bench import run_outer_bench
from repro.experiments import cache as cache_mod
from repro.experiments import perf as perf_mod
from repro.experiments.perf import (BENCH_SCHEMA, GATES, BenchRecord,
                                    compare_records, load_records,
                                    run_kernel_bench, run_sim_bench,
                                    run_suite, write_records)

BASELINES = Path(__file__).resolve().parents[2] / "benchmarks" / "baselines"


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("CARAT_CACHE_DIR", str(tmp_path / "cache"))
    cache_mod.clear_memory()
    yield
    cache_mod.clear_memory()


def _suite(name="fig5", **metrics):
    base = dict(points=10, model_iterations=100, mva_inner_iterations=500,
                wall_ms_cold=1_000.0, wall_ms_warm=2.0, cache_hits=1,
                cache_misses=1, cache_hit_rate=0.5)
    return BenchRecord(name, {**base, **metrics},
                       {"iterations_by_n": {"4": 40, "8": 60}})


def _kernels(**metrics):
    base = dict(single_exact_us=500.0, single_approx_us=1_500.0,
                batch_us=8_000.0, batch_per_solve_us=125.0,
                batch_speedup=12.0)
    return BenchRecord("kernels", {**base, **metrics}, {"batch_size": 64})


def _sim(**metrics):
    base = dict(sim_events=60_000, sim_commits=100,
                sim_events_per_commit=600.0, sim_wall_ms=400.0,
                sim_events_per_s=150_000.0)
    return BenchRecord("sim", {**base, **metrics},
                       {"workload": "MB8", "n": 8, "seed": 1,
                        "warmup_ms": 10_000.0, "duration_ms": 120_000.0})


def _outer(**metrics):
    base = dict(scalar_ms=500.0, batch_ms=150.0, speedup=3.3,
                batch_outer_iterations=150)
    return BenchRecord("outer", {**base, **metrics},
                       {"sweep": "tab3", "batch_points": 5})


def _problems(make, changed, base=None, **kw):
    """Gate findings for *make*'s record with the *changed* metrics,
    against the record with *base* metrics (default: unchanged)."""
    ref = make(**(base or {}))
    return compare_records({ref.name: make(**changed)}, {ref.name: ref},
                           **kw)


def _worse(record, factor):
    """Every gated metric of *record* moved *factor* in its bad
    direction."""
    return {m: v / factor if GATES[m].higher_is_better else v * factor
            for m, v in record.metrics.items() if m in GATES}


class TestBenchRecord:
    def test_round_trip(self):
        record = _suite()
        clone = BenchRecord.from_dict(record.to_dict())
        assert clone == record
        assert clone.schema == BENCH_SCHEMA

    def test_from_dict_ignores_unknown_keys(self):
        data = _suite().to_dict()
        data["added_in_a_future_schema"] = 42
        assert BenchRecord.from_dict(data) == _suite()


class TestWriteLoad:
    def test_round_trip(self, tmp_path):
        """Every producer's record shares one directory and loader."""
        records = [_suite("fig5"), _suite("tab3"), _kernels(), _outer()]
        paths = write_records(records, tmp_path)
        assert [p.name for p in paths] == [
            "BENCH_fig5.json", "BENCH_tab3.json", "BENCH_kernels.json",
            "BENCH_outer.json"]
        assert load_records(tmp_path) == {r.name: r for r in records}

    def test_wrong_schema_skipped(self, tmp_path):
        data = _suite().to_dict()
        data["schema"] = BENCH_SCHEMA + 1
        (tmp_path / "BENCH_fig5.json").write_text(json.dumps(data))
        assert load_records(tmp_path) == {}

    def test_missing_directory_is_empty(self, tmp_path):
        assert load_records(tmp_path / "nope") == {}


class TestCompare:
    def test_within_tolerance_passes(self):
        assert _problems(_suite, _worse(_suite(), 1.1)) == []

    def test_counter_regression_detected(self):
        [problem] = _problems(_suite, {"model_iterations": 200})
        assert "model_iterations" in problem

    def test_zero_baseline_is_gated(self):
        """A counter whose baseline is 0 is gated like any other."""
        [problem] = _problems(_suite, {"mva_inner_iterations": 1},
                              base={"mva_inner_iterations": 0})
        assert "mva_inner_iterations" in problem

    def test_time_noise_floor_absorbs_jitter(self):
        """A 1 ms warm blip is scheduler noise, not a regression."""
        assert _problems(_suite, {"wall_ms_warm": 50.0},
                         tolerance=0.01) == []

    def test_large_time_regression_detected(self):
        problems = _problems(_suite, {"wall_ms_cold": 2_000.0})
        assert any("wall_ms_cold" in p for p in problems)

    def test_time_tolerance_separate_from_counters(self):
        assert _problems(_suite, {"wall_ms_cold": 2_000.0},
                         time_tolerance=1.5) == []
        assert len(_problems(_suite, {"model_iterations": 200},
                             time_tolerance=5.0)) == 1

    def test_missing_benchmark_is_regression(self):
        problems = compare_records({}, {"fig5": _suite()})
        assert problems == ["fig5: benchmark missing from this run"]

    def test_gated_metric_missing_from_run(self):
        current = BenchRecord("outer", {"batch_ms": 150.0})
        problems = compare_records({"outer": current}, {"outer": _outer()})
        assert "outer: speedup missing from this run" in problems

    def test_hit_rate_regression(self):
        """Higher is better, at the strict tolerance."""
        [problem] = _problems(_suite, {"cache_hit_rate": 0.0},
                              time_tolerance=1.0)
        assert "cache_hit_rate" in problem

    def test_new_benchmark_ignored(self):
        base = {"fig5": _suite()}
        current = {"fig5": _suite(), "extra": _suite("extra")}
        assert compare_records(current, base) == []

    def test_ungated_metrics_ignored(self):
        assert _problems(_outer, {"scalar_ms": 1e9}) == []
        assert _problems(_suite, {"points": 10**6,
                                  "cache_misses": 10**6}) == []


class TestRunSuite:
    def test_fig5_record_populated(self, tmp_path):
        [record] = run_suite(("fig5",), cache_dir=tmp_path, repeats=1)
        m = record.metrics
        assert record.name == "fig5"
        assert m["points"] > 0
        assert m["model_iterations"] > 0
        assert m["wall_ms_cold"] > 0.0
        assert m["wall_ms_warm"] > 0.0
        # Cold pass misses, warm pass hits: one of each per repetition.
        assert m["cache_hits"] == m["cache_misses"] == 1
        assert m["cache_hit_rate"] == pytest.approx(0.5)
        by_n = record.detail["iterations_by_n"]
        assert by_n
        assert sum(by_n.values()) == m["model_iterations"]


class _ProducerRecord:
    """The record contract, checked once per producer (``make``)."""

    def test_record_round_trip(self):
        record = self.make()
        assert BenchRecord.from_dict(record.to_dict()) == record

    def test_write_load_round_trip(self, tmp_path):
        record = self.make()
        [path] = write_records([record], tmp_path)
        assert path.name == f"BENCH_{record.name}.json"
        assert load_records(tmp_path) == {record.name: record}

    def test_load_ignores_wrong_schema(self, tmp_path):
        data = self.make().to_dict()
        data["schema"] = BENCH_SCHEMA - 1
        (tmp_path / "BENCH_x.json").write_text(json.dumps(data))
        assert load_records(tmp_path) == {}

    def test_compare_within_tolerance_passes(self):
        assert _problems(self.make, _worse(self.make(), 1.1)) == []


class TestKernelBench(_ProducerRecord):
    make = staticmethod(_kernels)

    def test_run_kernel_bench_populated(self):
        record = run_kernel_bench(batch=4, repeats=1)
        m = record.metrics
        assert record.name == "kernels"
        assert record.detail == {"batch_size": 4}
        assert m["single_exact_us"] > 0.0
        assert m["single_approx_us"] > 0.0
        assert m["batch_per_solve_us"] == pytest.approx(m["batch_us"] / 4)
        assert m["batch_speedup"] > 0.0

    def test_compare_flags_slow_per_solve(self):
        changed = {"batch_per_solve_us": 1_000.0}
        [problem] = _problems(_kernels, changed)
        assert "batch_per_solve_us" in problem
        assert _problems(_kernels, changed, time_tolerance=10.0) == []

    def test_compare_flags_lost_speedup(self):
        [problem] = _problems(_kernels, {"batch_speedup": 2.0})
        assert "batch_speedup" in problem

    def test_noise_floor_absorbs_microsecond_jitter(self):
        assert _problems(_kernels, {"single_exact_us": 120.0},
                         base={"single_exact_us": 50.0},
                         time_tolerance=0.01) == []


class TestSimBench(_ProducerRecord):
    make = staticmethod(_sim)

    def test_run_sim_bench_populated(self):
        record = run_sim_bench(repeats=1)
        m = record.metrics
        assert record.name == "sim"
        assert record.detail["workload"] == "MB8"
        assert m["sim_events"] > 0
        assert m["sim_commits"] > 0
        assert m["sim_events_per_commit"] == pytest.approx(
            m["sim_events"] / m["sim_commits"])
        assert m["sim_events_per_s"] == pytest.approx(
            m["sim_events"] / m["sim_wall_ms"] * 1e3)

    def test_compare_flags_more_events_per_commit(self):
        changed = {"sim_events_per_commit": 800.0}
        [problem] = _problems(_sim, changed, time_tolerance=10.0)
        assert "sim_events_per_commit" in problem

    def test_compare_flags_slow_event_loop(self):
        [problem] = _problems(_sim, {"sim_wall_ms": 1_000.0})
        assert "sim_wall_ms" in problem


class TestOuterBench(_ProducerRecord):
    make = staticmethod(_outer)

    def test_run_outer_bench_populated(self):
        record = run_outer_bench(sweep="fig5", repeats=1)
        m = record.metrics
        assert record.name == "outer"
        assert record.detail == {"sweep": "fig5", "batch_points": 5}
        assert m["scalar_ms"] > 0.0
        assert m["batch_ms"] > 0.0
        assert m["speedup"] == pytest.approx(m["scalar_ms"] / m["batch_ms"])
        assert m["batch_outer_iterations"] > 0

    def test_compare_flags_iteration_regression(self):
        changed = {"batch_outer_iterations": 300}
        [problem] = _problems(_outer, changed, time_tolerance=5.0)
        assert "batch_outer_iterations" in problem

    def test_compare_flags_lost_speedup(self):
        [problem] = _problems(_outer, {"speedup": 1.2})
        assert "speedup" in problem

    def test_noise_floor_absorbs_small_blip(self):
        assert _problems(_outer, {"batch_ms": 120.0},
                         base={"batch_ms": 50.0},
                         time_tolerance=0.01) == []


class TestBenchEmit:
    def test_record_round_trips(self, tmp_path):
        """The ``CARAT_BENCH_EMIT`` record loads like any other."""
        stats = SimpleNamespace(min=0.5, mean=0.75, stddev=0.125,
                                rounds=3)
        bench = SimpleNamespace(
            name="test_bench_fig5[x]", group="fig5",
            stats=SimpleNamespace(stats=stats),
            extra_info={"throughput_tps": 1.25})
        cache_info = {"hits": 2, "misses": 1, "hit_rate": 2 / 3}
        record = bench_record(bench, cache_info)
        assert record.name == "test_bench_fig5_x"
        assert record.metrics == {"wall_ms_min": 500.0,
                                  "wall_ms_mean": 750.0,
                                  "wall_ms_stddev": 125.0, "rounds": 3}
        assert record.detail == {"group": "fig5",
                                 "extra_info": {"throughput_tps": 1.25},
                                 "session_cache": cache_info}
        write_records([record], tmp_path)
        assert load_records(tmp_path) == {record.name: record}


class TestMain:
    @pytest.fixture
    def canned_suite(self, monkeypatch):
        monkeypatch.setattr(perf_mod, "run_suite",
                            lambda *a, **kw: [_suite()])
        monkeypatch.setattr(perf_mod, "run_kernel_bench",
                            lambda *a, **kw: _kernels())
        monkeypatch.setattr(perf_mod, "run_sim_bench",
                            lambda *a, **kw: _sim())
        monkeypatch.setattr(outer_bench, "run_outer_bench",
                            lambda *a, **kw: _outer())

    def test_update_then_check_passes(self, tmp_path, canned_suite,
                                      capsys):
        baseline_dir = str(tmp_path / "baselines")
        for main in (perf_mod.main, outer_bench.main):
            assert main(["--update-baseline",
                         "--baseline-dir", baseline_dir]) == 0
        for main in (perf_mod.main, outer_bench.main):
            assert main(["--check", "--baseline-dir", baseline_dir]) == 0
        out = capsys.readouterr().out
        assert "perf gate passed (3 baselines" in out
        assert "perf gate passed (1 baselines" in out
        # Each entry point gates only its own records.
        assert "missing" not in out

    def test_check_without_baseline_fails(self, tmp_path, canned_suite):
        for main in (perf_mod.main, outer_bench.main):
            assert main(["--check", "--baseline-dir",
                         str(tmp_path / "none")]) == 1

    def test_output_dir_writes_records(self, tmp_path, canned_suite):
        out = tmp_path / "out"
        assert perf_mod.main(["--output-dir", str(out)]) == 0
        assert outer_bench.main(["--output-dir", str(out)]) == 0
        assert set(load_records(out)) == {"fig5", "kernels", "sim",
                                          "outer"}

    @staticmethod
    def _check_after(tmp_path, monkeypatch, capsys, module, attr,
                     before, after):
        """Exit status and output of ``--check`` on the *after* run
        against a baseline written from the *before* run."""
        baseline_dir = str(tmp_path / "baselines")
        monkeypatch.setattr(module, attr, lambda *a, **kw: before)
        assert module.main(["--update-baseline",
                            "--baseline-dir", baseline_dir]) == 0
        monkeypatch.setattr(module, attr, lambda *a, **kw: after)
        status = module.main(["--check", "--baseline-dir", baseline_dir])
        return status, capsys.readouterr().out

    def test_kernel_regression_fails_check(self, tmp_path, monkeypatch,
                                           capsys, canned_suite):
        status, out = self._check_after(
            tmp_path, monkeypatch, capsys, perf_mod, "run_kernel_bench",
            _kernels(), _kernels(batch_speedup=1.0))
        assert status == 1
        assert "batch_speedup" in out

    def test_outer_regression_fails_check(self, tmp_path, monkeypatch,
                                          capsys, canned_suite):
        status, out = self._check_after(
            tmp_path, monkeypatch, capsys, outer_bench, "run_outer_bench",
            _outer(), _outer(batch_outer_iterations=999, speedup=1.0))
        assert status == 1
        assert "batch_outer_iterations" in out
        assert "speedup" in out

    def test_sim_regression_fails_check(self, tmp_path, monkeypatch,
                                        capsys, canned_suite):
        status, out = self._check_after(
            tmp_path, monkeypatch, capsys, perf_mod, "run_sim_bench",
            _sim(), _sim(sim_events_per_commit=900.0))
        assert status == 1
        assert "sim_events_per_commit" in out

    def test_zero_baseline_regression_fails_check(
            self, tmp_path, monkeypatch, capsys, canned_suite):
        status, out = self._check_after(
            tmp_path, monkeypatch, capsys, perf_mod, "run_suite",
            [_suite(mva_inner_iterations=0)],
            [_suite(mva_inner_iterations=1)])
        assert status == 1
        assert "mva_inner_iterations" in out

    def test_committed_baseline_matches_schema(self):
        """Every committed ``BENCH_*.json`` loads under the one schema
        (none is silently skipped), and the suite is covered."""
        files = sorted(BASELINES.glob("BENCH_*.json"))
        baseline = load_records(BASELINES)
        assert len(baseline) == len(files)
        assert set(perf_mod.SUITE) <= set(baseline)
        for name in perf_mod.SUITE:
            assert baseline[name].metrics["model_iterations"] > 0

    def test_every_gate_is_in_a_committed_baseline(self):
        """No dead gate: each metric in GATES is recorded somewhere."""
        recorded = set()
        for record in load_records(BASELINES).values():
            recorded |= set(record.metrics)
        assert set(GATES) <= recorded

    def test_committed_kernel_baseline_loads(self):
        """The batched speedup the kernels were landed for."""
        record = load_records(BASELINES)["kernels"]
        assert record.metrics["batch_speedup"] >= 10.0

    def test_committed_sim_baseline_loads(self):
        """The simulator benchmark is gated from the committed record,
        and its deterministic counters match a fresh run."""
        record = load_records(BASELINES)["sim"]
        fresh = run_sim_bench(repeats=1)
        for metric in ("sim_events", "sim_commits"):
            assert record.metrics[metric] == fresh.metrics[metric]

    def test_committed_outer_baseline_loads(self):
        """The >=3x batched-sweep speedup the tensorized outer loop
        was landed for."""
        record = load_records(BASELINES)["outer"]
        assert record.metrics["speedup"] >= 3.0
        assert record.metrics["batch_outer_iterations"] > 0
