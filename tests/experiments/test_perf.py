"""Tests for the perf-baseline suite and regression gate
(:mod:`repro.experiments.perf`) and for the outer fixed-point
benchmark that times the scalar oracle (``benchmarks/outer_bench.py``).
"""

import json

import pytest

from benchmarks import outer_bench
from benchmarks.outer_bench import (OUTER_SCHEMA, OuterBenchRecord,
                                    compare_outer_records,
                                    load_outer_record, run_outer_bench,
                                    write_outer_record)
from repro.experiments import cache as cache_mod
from repro.experiments import perf as perf_mod
from repro.experiments.perf import (BENCH_SCHEMA, KERNEL_SCHEMA,
                                    BenchRecord, KernelBenchRecord,
                                    compare_kernel_records,
                                    compare_records, load_kernel_record,
                                    load_records, run_kernel_bench,
                                    run_suite, write_kernel_record,
                                    write_records)


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("CARAT_CACHE_DIR", str(tmp_path / "cache"))
    cache_mod.clear_memory()
    yield
    cache_mod.clear_memory()


def _record(name="fig5", **overrides):
    kwargs = dict(name=name, points=10, model_iterations=100,
                  mva_inner_iterations=500, wall_ms_cold=1_000.0,
                  wall_ms_warm=2.0, cache_hits=1, cache_misses=1,
                  cache_hit_rate=0.5,
                  iterations_by_n={"4": 40, "8": 60})
    kwargs.update(overrides)
    return BenchRecord(**kwargs)


def _kernel_record(**overrides):
    kwargs = dict(single_exact_us=500.0, single_approx_us=1_500.0,
                  batch_size=64, batch_us=8_000.0,
                  batch_per_solve_us=125.0, batch_speedup=12.0)
    kwargs.update(overrides)
    return KernelBenchRecord(**kwargs)


def _outer_record(**overrides):
    kwargs = dict(sweep="tab3", batch_points=5, scalar_ms=500.0,
                  batch_ms=150.0, speedup=3.3,
                  batch_outer_iterations=150)
    kwargs.update(overrides)
    return OuterBenchRecord(**kwargs)


class TestBenchRecord:
    def test_round_trip(self):
        record = _record()
        clone = BenchRecord.from_dict(record.to_dict())
        assert clone == record
        assert clone.schema == BENCH_SCHEMA

    def test_from_dict_ignores_unknown_keys(self):
        data = _record().to_dict()
        data["added_in_a_future_schema"] = 42
        assert BenchRecord.from_dict(data) == _record()


class TestWriteLoad:
    def test_round_trip(self, tmp_path):
        records = [_record("fig5"), _record("tab3")]
        paths = write_records(records, tmp_path)
        assert [p.name for p in paths] == ["BENCH_fig5.json",
                                          "BENCH_tab3.json"]
        loaded = load_records(tmp_path)
        assert loaded == {"fig5": records[0], "tab3": records[1]}

    def test_wrong_schema_skipped(self, tmp_path):
        data = _record().to_dict()
        data["schema"] = BENCH_SCHEMA + 1
        (tmp_path / "BENCH_fig5.json").write_text(json.dumps(data))
        assert load_records(tmp_path) == {}

    def test_missing_directory_is_empty(self, tmp_path):
        assert load_records(tmp_path / "nope") == {}


class TestCompare:
    def test_within_tolerance_passes(self):
        base = {"fig5": _record()}
        current = {"fig5": _record(model_iterations=110,
                                   wall_ms_cold=1_100.0)}
        assert compare_records(current, base) == []

    def test_counter_regression_detected(self):
        base = {"fig5": _record()}
        current = {"fig5": _record(model_iterations=200)}
        problems = compare_records(current, base)
        assert len(problems) == 1
        assert "model_iterations" in problems[0]

    def test_time_noise_floor_absorbs_jitter(self):
        """A 1 ms warm blip is scheduler noise, not a regression."""
        base = {"fig5": _record(wall_ms_warm=2.0)}
        current = {"fig5": _record(wall_ms_warm=50.0)}
        assert compare_records(current, base, tolerance=0.01) == []

    def test_large_time_regression_detected(self):
        base = {"fig5": _record(wall_ms_cold=1_000.0)}
        current = {"fig5": _record(wall_ms_cold=2_000.0)}
        problems = compare_records(current, base, tolerance=0.25)
        assert any("wall_ms_cold" in p for p in problems)

    def test_time_tolerance_separate_from_counters(self):
        base = {"fig5": _record(wall_ms_cold=1_000.0)}
        current = {"fig5": _record(wall_ms_cold=2_000.0)}
        assert compare_records(current, base, tolerance=0.25,
                               time_tolerance=1.5) == []

    def test_missing_benchmark_is_regression(self):
        problems = compare_records({}, {"fig5": _record()})
        assert problems == ["fig5: benchmark missing from this run"]

    def test_hit_rate_regression(self):
        base = {"fig5": _record(cache_hit_rate=0.5)}
        current = {"fig5": _record(cache_hit_rate=0.0)}
        problems = compare_records(current, base)
        assert any("cache_hit_rate" in p for p in problems)

    def test_new_benchmark_ignored(self):
        base = {"fig5": _record()}
        current = {"fig5": _record(), "extra": _record("extra")}
        assert compare_records(current, base) == []


class TestRunSuite:
    def test_fig5_record_populated(self, tmp_path):
        records = run_suite(("fig5",), cache_dir=tmp_path, repeats=1)
        assert len(records) == 1
        record = records[0]
        assert record.name == "fig5"
        assert record.points > 0
        assert record.model_iterations > 0
        assert record.wall_ms_cold > 0.0
        assert record.wall_ms_warm > 0.0
        # Cold pass misses, warm pass hits: one of each per repetition.
        assert record.cache_hits == record.cache_misses == 1
        assert record.cache_hit_rate == pytest.approx(0.5)
        assert record.iterations_by_n
        assert sum(record.iterations_by_n.values()) == \
            record.model_iterations


class TestKernelBench:
    def test_record_round_trip(self):
        record = _kernel_record()
        clone = KernelBenchRecord.from_dict(record.to_dict())
        assert clone == record
        assert clone.schema == KERNEL_SCHEMA

    def test_run_kernel_bench_populated(self):
        record = run_kernel_bench(batch=4, repeats=1)
        assert record.batch_size == 4
        assert record.single_exact_us > 0.0
        assert record.single_approx_us > 0.0
        assert record.batch_per_solve_us == \
            pytest.approx(record.batch_us / 4)
        assert record.batch_speedup > 0.0

    def test_write_load_round_trip(self, tmp_path):
        record = _kernel_record()
        path = write_kernel_record(record, tmp_path)
        assert path.name == "BENCH_kernels.json"
        assert load_kernel_record(tmp_path) == record

    def test_load_ignores_wrong_schema(self, tmp_path):
        data = _kernel_record().to_dict()
        data["schema"] = "kernel-0"
        (tmp_path / "BENCH_kernels.json").write_text(json.dumps(data))
        assert load_kernel_record(tmp_path) is None

    def test_suite_loader_skips_kernel_record(self, tmp_path):
        """``load_records`` must never mistake the kernel record for an
        experiment record (its schema is a different type entirely)."""
        write_kernel_record(_kernel_record(), tmp_path)
        write_records([_record()], tmp_path)
        assert set(load_records(tmp_path)) == {"fig5"}

    def test_compare_within_tolerance_passes(self):
        current = _kernel_record(batch_per_solve_us=140.0,
                                 batch_speedup=11.0)
        assert compare_kernel_records(current, _kernel_record()) == []

    def test_compare_flags_slow_per_solve(self):
        current = _kernel_record(batch_per_solve_us=2_000.0)
        problems = compare_kernel_records(current, _kernel_record())
        assert any("batch_per_solve_us" in p for p in problems)

    def test_compare_flags_lost_speedup(self):
        current = _kernel_record(batch_speedup=2.0)
        problems = compare_kernel_records(current, _kernel_record())
        assert any("batch_speedup" in p for p in problems)

    def test_noise_floor_absorbs_microsecond_jitter(self):
        base = _kernel_record(single_exact_us=50.0)
        current = _kernel_record(single_exact_us=120.0)
        assert compare_kernel_records(current, base,
                                      time_tolerance=0.01) == []


class TestOuterBench:
    def test_record_round_trip(self):
        record = _outer_record()
        clone = OuterBenchRecord.from_dict(record.to_dict())
        assert clone == record
        assert clone.schema == OUTER_SCHEMA

    def test_run_outer_bench_populated(self):
        record = run_outer_bench(sweep="fig5", repeats=1)
        assert record.sweep == "fig5"
        assert record.batch_points == 5
        assert record.scalar_ms > 0.0
        assert record.batch_ms > 0.0
        assert record.speedup == \
            pytest.approx(record.scalar_ms / record.batch_ms)
        # The batched program converges in the same iterations as the
        # scalar oracle, so the counter matches the suite baseline's.
        assert record.batch_outer_iterations > 0

    def test_write_load_round_trip(self, tmp_path):
        record = _outer_record()
        path = write_outer_record(record, tmp_path)
        assert path.name == "BENCH_outer.json"
        assert load_outer_record(tmp_path) == record

    def test_load_ignores_wrong_schema(self, tmp_path):
        data = _outer_record().to_dict()
        data["schema"] = "outer-0"
        (tmp_path / "BENCH_outer.json").write_text(json.dumps(data))
        assert load_outer_record(tmp_path) is None

    def test_suite_loader_skips_outer_record(self, tmp_path):
        """``load_records`` keys on the integer experiment schema, so
        the string-schema outer record must never be picked up."""
        write_outer_record(_outer_record(), tmp_path)
        write_records([_record()], tmp_path)
        assert set(load_records(tmp_path)) == {"fig5"}

    def test_compare_within_tolerance_passes(self):
        current = _outer_record(batch_ms=160.0, speedup=3.0)
        assert compare_outer_records(current, _outer_record()) == []

    def test_compare_flags_iteration_regression(self):
        current = _outer_record(batch_outer_iterations=300)
        problems = compare_outer_records(current, _outer_record())
        assert any("batch_outer_iterations" in p for p in problems)

    def test_compare_flags_lost_speedup(self):
        current = _outer_record(speedup=1.2)
        problems = compare_outer_records(current, _outer_record())
        assert any("speedup" in p for p in problems)

    def test_noise_floor_absorbs_small_blip(self):
        base = _outer_record(batch_ms=50.0)
        current = _outer_record(batch_ms=120.0)
        assert compare_outer_records(current, base,
                                     time_tolerance=0.01) == []


class TestMain:
    @pytest.fixture
    def canned_suite(self, monkeypatch):
        monkeypatch.setattr(perf_mod, "run_suite",
                            lambda names, **kw: [_record()])
        monkeypatch.setattr(perf_mod, "run_kernel_bench",
                            lambda *a, **kw: _kernel_record())
        monkeypatch.setattr(outer_bench, "run_outer_bench",
                            lambda *a, **kw: _outer_record())

    def test_update_then_check_passes(self, tmp_path, canned_suite,
                                      capsys):
        baseline_dir = str(tmp_path / "baselines")
        assert perf_mod.main(["--update-baseline",
                              "--baseline-dir", baseline_dir]) == 0
        assert perf_mod.main(["--check",
                              "--baseline-dir", baseline_dir]) == 0
        assert "perf gate passed" in capsys.readouterr().out

    def test_check_without_baseline_fails(self, tmp_path, canned_suite):
        assert perf_mod.main(["--check", "--baseline-dir",
                              str(tmp_path / "none")]) == 1

    def test_output_dir_writes_records(self, tmp_path, canned_suite):
        out = tmp_path / "out"
        assert perf_mod.main(["--output-dir", str(out)]) == 0
        assert (out / "BENCH_fig5.json").is_file()
        assert (out / "BENCH_kernels.json").is_file()
        assert outer_bench.main(["--output-dir", str(out)]) == 0
        assert (out / "BENCH_outer.json").is_file()

    def test_no_kernels_skips_microbenchmark(self, tmp_path,
                                             canned_suite):
        out = tmp_path / "out"
        assert perf_mod.main(["--no-kernels",
                              "--output-dir", str(out)]) == 0
        assert not (out / "BENCH_kernels.json").exists()

    def test_kernel_regression_fails_check(self, tmp_path, monkeypatch,
                                           capsys, canned_suite):
        baseline_dir = str(tmp_path / "baselines")
        assert perf_mod.main(["--update-baseline",
                              "--baseline-dir", baseline_dir]) == 0
        monkeypatch.setattr(
            perf_mod, "run_kernel_bench",
            lambda *a, **kw: _kernel_record(batch_speedup=1.0))
        assert perf_mod.main(["--check",
                              "--baseline-dir", baseline_dir]) == 1
        assert "batch_speedup" in capsys.readouterr().out

    def test_outer_regression_fails_check(self, tmp_path, monkeypatch,
                                          capsys, canned_suite):
        baseline_dir = str(tmp_path / "baselines")
        assert outer_bench.main(["--update-baseline",
                                 "--baseline-dir", baseline_dir]) == 0
        assert outer_bench.main(["--check",
                                 "--baseline-dir", baseline_dir]) == 0
        monkeypatch.setattr(
            outer_bench, "run_outer_bench",
            lambda *a, **kw: _outer_record(batch_outer_iterations=999,
                                           speedup=1.0))
        assert outer_bench.main(["--check",
                                 "--baseline-dir", baseline_dir]) == 1
        out = capsys.readouterr().out
        assert "batch_outer_iterations" in out
        assert "speedup" in out

    def test_committed_baseline_matches_schema(self):
        """The baseline shipped in-repo must load under the current
        schema and cover the whole suite."""
        from pathlib import Path
        repo_root = Path(__file__).resolve().parents[2]
        baseline = load_records(repo_root / "benchmarks" / "baselines")
        assert set(baseline) == set(perf_mod.SUITE)
        for record in baseline.values():
            assert record.model_iterations > 0

    def test_committed_kernel_baseline_loads(self):
        """The committed kernel microbenchmark baseline must load and
        document the batched speedup the kernels were landed for."""
        from pathlib import Path
        repo_root = Path(__file__).resolve().parents[2]
        record = load_kernel_record(
            repo_root / "benchmarks" / "baselines")
        assert record is not None
        assert record.batch_speedup >= 10.0

    def test_committed_outer_baseline_loads(self):
        """The committed outer-benchmark baseline must load and
        document the >=3x batched-sweep speedup the tensorized outer
        loop was landed for."""
        from pathlib import Path
        repo_root = Path(__file__).resolve().parents[2]
        record = load_outer_record(
            repo_root / "benchmarks" / "baselines")
        assert record is not None
        assert record.speedup >= 3.0
        assert record.batch_outer_iterations > 0
