"""Tests for the named benchmark drivers behind ``repro bench``."""

import pytest

from repro.common.errors import HarnessError
from repro.harness.bench import BENCHMARKS, run_benchmark
from repro.obs.perf import validate_bench


class TestRunBenchmark:
    def test_engine_benchmark_emits_valid_artifact(self):
        result = run_benchmark(
            "engine",
            app="fuzz:3",
            detectors="hard-default,hb-ideal",
            rounds=2,
        )
        assert result.name == "engine"
        assert validate_bench(result.to_dict()) == []
        for phase in ("build", "interleave", "detect"):
            assert phase in result.phases
            assert len(result.phases[phase]["rounds_s"]) == 2
        # The flight recorder rides the timed detect rounds: one batch walk
        # per round, every core timed in it.
        assert result.counters["telemetry.engine.walks"] == 2
        cores = result.extras["telemetry"]["cores"]
        assert sorted(cores) == ["hard-default", "hb-ideal"]
        assert all(core["walks"] == 2 for core in cores.values())
        assert result.extras["app"] == "fuzz:3"
        assert result.extras["detectors"] == ["hard-default", "hb-ideal"]
        assert result.extras["engine_path"] == "auto"
        assert result.extras["trace_events"] > 0
        assert "derived" in result.extras["telemetry"]

    def test_detectors_accept_sequence(self):
        result = run_benchmark(
            "engine", app="fuzz:3", detectors=("hb-ideal",), rounds=1
        )
        assert result.extras["detectors"] == ["hb-ideal"]

    def test_unknown_name_raises(self):
        with pytest.raises(HarnessError):
            run_benchmark("nonsense")

    def test_rounds_must_be_positive(self):
        with pytest.raises(HarnessError):
            run_benchmark("engine", app="fuzz:3", rounds=0)

    def test_benchmark_names_exported(self):
        assert "engine" in BENCHMARKS
        assert "pipeline" in BENCHMARKS

    def test_log_callback_receives_progress(self):
        lines = []
        run_benchmark(
            "engine",
            app="fuzz:3",
            detectors="hb-ideal",
            rounds=1,
            log=lines.append,
        )
        assert lines  # at least one progress line
