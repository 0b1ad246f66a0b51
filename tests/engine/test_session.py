"""Unit tests for the engine: session mechanics, tape sharing, consumers."""

import pytest

from repro.api import detect_many
from repro.engine import EngineError, EngineSession
from repro.harness.detectors import DetectorConfig, make_detector
from repro.harness.experiment import CLEAN_RUN, ExperimentRunner
from repro.harness.pipeline import run_pipeline
from repro.harness.tracestats import TraceStatsCore, characterize
from repro.obs import CountingEmitter, FlightRecorder, Observability
from repro.threads.runtime import interleave
from repro.threads.scheduler import RandomScheduler
from repro.workloads.registry import build_workload

from tests.engine.test_batch_path import ScalarOnlyCore


@pytest.fixture(scope="module")
def trace():
    program = build_workload("raytrace", seed=0)
    return interleave(program, RandomScheduler(seed=0, max_burst=8)).trace


class TestSessionLifecycle:
    def test_run_requires_cores(self, trace):
        with pytest.raises(EngineError):
            EngineSession(trace).run()

    def test_session_is_single_use(self, trace):
        session = EngineSession(trace)
        session.add_config(DetectorConfig("hb-ideal"))
        session.run()
        with pytest.raises(EngineError):
            session.run()

    def test_add_after_run_rejected(self, trace):
        session = EngineSession(trace)
        session.add_config(DetectorConfig("hb-ideal"))
        session.run()
        with pytest.raises(EngineError):
            session.add_config(DetectorConfig("hard-ideal"))

    def test_results_follow_add_order(self, trace):
        keys = ("hb-ideal", "hard-ideal", "software", "hard-default")
        session = EngineSession(trace)
        for key in keys:
            session.add_config(DetectorConfig(key))
        results = session.run()
        assert [r.detector for r in results] == list(keys)

    def test_auxiliary_core_rides_along(self, trace):
        # A trace-only auxiliary core (finish() is not a DetectionResult)
        # shares the walk with detector cores: same position, same answer
        # as its standalone shim.
        session = EngineSession(trace)
        session.add_core(TraceStatsCore())
        session.add_config(DetectorConfig("hb-ideal"))
        stats, result = session.run()
        assert stats.to_dict() == characterize(trace).to_dict()
        assert result.detector == "hb-ideal"


class TestMachineSharing:
    """The tape-memo precondition: equal machine configs mean one tape.

    ``MachineTape.for_columns`` memoises one tape per (columns, machine
    config), so every batch kernel whose core reports an equal
    ``machine_config`` reads the same recorded data path.
    """

    def test_default_machine_configs_are_compatible(self):
        # Bus-based detectors at default settings describe the same
        # machine, so one tape feeds all of them.
        configs = {
            make_detector(DetectorConfig(key)).core().machine_config
            for key in ("hard-default", "hb-default", "software")
        }
        assert len(configs) == 1

    def test_ideal_detectors_are_trace_only(self):
        # Trace-only cores take no tape at all.
        for key in ("hard-ideal", "hb-ideal", "fasttrack", "acculock", "multilock-hb"):
            core = make_detector(DetectorConfig(key)).core()
            assert core.machine_config is None


class TestDetectMany:
    def test_results_in_request_order(self, trace):
        results = detect_many(trace, ["hb-ideal", "hard-ideal"])
        assert [r.detector for r in results] == ["hb-ideal", "hard-ideal"]

    def test_accepts_config_objects(self, trace):
        config = DetectorConfig("hard-ideal", granularity=8)
        [result] = detect_many(trace, [config])
        assert result.detector == "hard-ideal"


class TestTraceMemoLRU:
    def test_memo_is_bounded(self):
        runner = ExperimentRunner(trace_memo_limit=2)
        runner.trace_for("raytrace", CLEAN_RUN)
        runner.trace_for("raytrace", 0)
        runner.trace_for("raytrace", 1)
        assert len(runner._traces) == 2
        assert ("raytrace", CLEAN_RUN) not in runner._traces
        assert runner.metrics.snapshot()["harness.trace_memo_evictions"] == 1

    def test_hit_refreshes_recency(self):
        runner = ExperimentRunner(trace_memo_limit=2)
        runner.trace_for("raytrace", CLEAN_RUN)
        runner.trace_for("raytrace", 0)
        runner.trace_for("raytrace", CLEAN_RUN)  # hit: most recent again
        runner.trace_for("raytrace", 1)  # evicts run 0, not CLEAN_RUN
        assert ("raytrace", CLEAN_RUN) in runner._traces
        assert ("raytrace", 0) not in runner._traces

    def test_unbounded_when_disabled(self):
        runner = ExperimentRunner(trace_memo_limit=None)
        for run in (CLEAN_RUN, 0, 1):
            runner.trace_for("raytrace", run)
        assert len(runner._traces) == 3


class TestRunDetectors:
    def test_one_call_scores_many_configs(self):
        runner = ExperimentRunner()
        outcomes = runner.run_detectors(
            "raytrace", 0, ["hard-ideal", "hb-ideal"]
        )
        assert len(outcomes) == 2
        for outcome, key in zip(outcomes, ("hard-ideal", "hb-ideal")):
            assert outcome == runner.run_detector("raytrace", 0, key)

    def test_duplicate_configs_resolve(self):
        runner = ExperimentRunner()
        outcomes = runner.run_detectors(
            "raytrace", 0, ["hard-ideal", "hard-ideal"]
        )
        assert outcomes[0] == outcomes[1]


class TestPipelineMultiDetector:
    def test_results_and_verdict_per_detector(self):
        run = run_pipeline(
            "raytrace", "hard-ideal,hb-ideal", bug_seed=3
        )
        assert [r.detector for r in run.results] == ["hard-ideal", "hb-ideal"]
        assert run.result is run.results[0]
        assert run.report.detector == "hard-ideal,hb-ideal"
        per_detector = run.report.verdict["detectors"]
        assert set(per_detector) == {"hard-ideal", "hb-ideal"}
        for entry in per_detector.values():
            assert set(entry) == {"detected", "dynamic_reports", "alarms"}

    def test_single_detector_has_no_breakdown(self):
        run = run_pipeline("raytrace", "hard-ideal", bug_seed=3)
        assert run.results == [run.result]
        assert "detectors" not in run.report.verdict

    def test_empty_detector_key_rejected(self):
        with pytest.raises(ValueError):
            run_pipeline("raytrace", " , ")


class TestCliMultiDetector:
    def test_run_prints_per_detector_reports(self, capsys):
        from repro.cli import main

        code = main(
            [
                "run",
                "raytrace",
                "--detector",
                "hard-ideal,hb-ideal",
                "--bug-seed",
                "3",
                "--show-alarms",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "hard-ideal:" in out
        assert "hb-ideal:" in out
        assert "alarm [" in out


class TestPathChoice:
    """The walk a session took, and why ``auto`` fell back, are recorded."""

    @pytest.fixture(scope="class")
    def small(self):
        program = build_workload("fuzz:3", seed=0)
        return interleave(program, RandomScheduler(seed=0, max_burst=8)).trace

    def run_session(self, trace, keys, **kwargs):
        session = EngineSession(trace, **kwargs)
        for key in keys:
            session.add_config(DetectorConfig(key))
        session.run()
        return session.path_taken, session.fallback

    def test_auto_without_obs_runs_batch(self, small):
        assert self.run_session(small, ["hard-default"]) == ("batch", None)

    def test_requested_scalar_is_not_a_fallback(self, small):
        assert self.run_session(small, ["hard-default"], path="scalar") == (
            "scalar",
            None,
        )

    def test_flight_recorder_keeps_the_batch_walk(self, small):
        obs = Observability(telemetry=FlightRecorder())
        assert self.run_session(small, ["hard-default"], obs=obs) == (
            "batch",
            None,
        )

    @pytest.mark.parametrize("path", ["batch", "sharded"])
    def test_requested_fast_paths_accept_a_recorder(self, small, path):
        obs = Observability(telemetry=FlightRecorder())
        assert self.run_session(small, ["hard-default"], obs=obs, path=path) == (
            path,
            None,
        )

    @pytest.mark.parametrize("path", ["batch", "sharded"])
    def test_requested_fast_paths_still_refuse_metrics(self, small, path):
        obs = Observability(collect_metrics=True, telemetry=FlightRecorder())
        with pytest.raises(EngineError, match="metrics collection"):
            self.run_session(small, ["hard-default"], obs=obs, path=path)

    def test_metrics_fallback_is_named(self, small):
        obs = Observability(collect_metrics=True)
        assert self.run_session(small, ["hard-default"], obs=obs) == (
            "scalar",
            "metrics collection active",
        )

    def test_trace_emitter_takes_the_traced_walk(self, small):
        obs = Observability(emitter=CountingEmitter())
        assert self.run_session(small, ["hard-default"], obs=obs) == (
            "traced",
            "trace emitter active",
        )

    def test_scalar_only_cores_are_named(self, small):
        # A core without a batch kernel is named on every non-scalar path
        # and runs, with no fallback recorded, on the scalar one.
        for path in ("auto", "batch", "sharded"):
            session = EngineSession(small, path=path)
            session.add_config(DetectorConfig("hard-default"))
            session.add_core(ScalarOnlyCore())
            with pytest.raises(EngineError, match="lack: scalar-only"):
                session.run()
            assert session.path_taken is None
        session = EngineSession(small, path="scalar")
        session.add_config(DetectorConfig("hard-default"))
        session.add_core(ScalarOnlyCore())
        session.run()
        assert (session.path_taken, session.fallback) == ("scalar", None)
