"""Unit and integration tests for the engine flight recorder."""

import gc

import pytest

from repro.engine import EngineSession
from repro.harness.detectors import DetectorConfig
from repro.obs import FlightRecorder, Observability
from repro.obs.telemetry import TELEMETRY_SCHEMA_VERSION
from repro.threads.runtime import interleave
from repro.threads.scheduler import RandomScheduler
from repro.workloads.registry import build_workload
from tests.engine.test_batch_path import BATCH_KEYS, result_key


def small_trace(app="fuzz:3", seed=0):
    program = build_workload(app, seed=seed)
    return interleave(program, RandomScheduler(seed=seed, max_burst=8)).trace


class TestFrames:
    def test_nested_frames_accumulate_by_path(self):
        recorder = FlightRecorder()
        with recorder.frame("outer"):
            with recorder.frame("inner"):
                pass
        assert ("outer",) in recorder.frames
        assert ("outer", "inner") in recorder.frames
        # The parent's total includes the child's time.
        assert recorder.frames[("outer",)] >= recorder.frames[("outer", "inner")]

    def test_collapsed_reports_self_time(self):
        recorder = FlightRecorder()
        recorder.record_frame(("a",), 1.0)
        recorder.record_frame(("a", "b"), 0.25)
        lines = dict(
            line.rsplit(" ", 1) for line in recorder.collapsed().splitlines()
        )
        # a's self time is total minus its direct child.
        assert int(lines["a"]) == 750_000
        assert int(lines["a;b"]) == 250_000

    def test_collapsed_self_time_never_negative(self):
        recorder = FlightRecorder()
        recorder.record_frame(("a",), 0.1)
        recorder.record_frame(("a", "b"), 0.5)  # child exceeds parent (merged)
        lines = dict(
            line.rsplit(" ", 1) for line in recorder.collapsed().splitlines()
        )
        assert int(lines["a"]) == 0

    def test_write_flame(self, tmp_path):
        recorder = FlightRecorder()
        recorder.record_frame(("engine", "walk"), 0.5)
        path = tmp_path / "flame.txt"
        recorder.write_flame(path)
        assert path.read_text() == "engine;walk 500000\n"
        assert not list(tmp_path.glob("*.tmp"))

    def test_negative_frame_rejected(self):
        with pytest.raises(ValueError):
            FlightRecorder().record_frame(("x",), -0.1)


class TestCensus:
    def test_observe_trace_estimates_sync_density(self):
        trace = small_trace()
        recorder = FlightRecorder(census_stride=1)  # exact census
        estimates = recorder.observe_trace(trace)
        counters = recorder.registry.snapshot()
        assert estimates["events"] == len(trace)
        assert counters["telemetry.trace.events"] == len(trace)
        # stride=1 census is exact: sync points match a full count.
        expected_sync = sum(
            1
            for event in trace
            if event.op.kind.value in ("lock", "unlock", "barrier")
        )
        assert counters["telemetry.trace.sync_points"] == expected_sync

    def test_strided_census_touches_a_fraction(self):
        trace = small_trace()
        recorder = FlightRecorder(census_stride=64)
        recorder.observe_trace(trace)
        counters = recorder.registry.snapshot()
        assert counters["telemetry.trace.census_samples"] <= len(trace) // 64 + 1

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            FlightRecorder(census_stride=0)
        # Timing is exact on every walk: there is no sampling knob.
        with pytest.raises(TypeError):
            FlightRecorder(sample_period=512)

    def test_columnar_input_is_censused_without_event_objects(self):
        trace = small_trace()
        cols = trace.columns()
        expected = FlightRecorder().observe_trace(trace)
        recorder = FlightRecorder()
        session = EngineSession(cols, obs=Observability(telemetry=recorder))
        session.add_config(DetectorConfig.coerce("hard-default"))
        session.run()
        assert session._trace is None
        assert session._census == expected


class TestWalkAggregates:
    def test_record_core_walk_derives_rates(self):
        recorder = FlightRecorder()
        # 1000 stepped events in an exactly timed 100ms.
        recorder.record_core_walk("hard", 1000, 0.1)
        core = recorder.snapshot()["cores"]["hard"]
        assert core == {
            "stepped": 1000,
            "walks": 1,
            "wall_s": pytest.approx(0.1),
            "step_us": pytest.approx(100.0),
            "events_per_s": pytest.approx(10_000),
        }
        assert recorder.frames[("engine", "walk", "core.hard")] == 0.1

    def test_snapshot_shape(self):
        recorder = FlightRecorder()
        recorder.record_walk(0.5)
        snap = recorder.snapshot()
        assert snap["schema_version"] == TELEMETRY_SCHEMA_VERSION == 3
        assert "sample_period" not in snap
        assert snap["counters"]["telemetry.engine.walks"] == 1
        assert "engine;walk" in snap["frames"]
        assert "telemetry.engine.walk" in snap["timers"]

    def test_walk_attributed_frac_sums_direct_children(self):
        recorder = FlightRecorder()
        with recorder.walk():
            with recorder.frame("pack"):
                pass
            recorder.record_tape("record", 0.0)
        # Frames opened inside a walk nest under engine;walk.
        assert set(recorder.frames) == {
            ("engine", "walk"),
            ("engine", "walk", "pack"),
            ("engine", "walk", "tape.record"),
        }
        recorder.frames[("engine", "walk")] = 1.0
        recorder.frames[("engine", "walk", "pack")] = 0.25
        recorder.frames[("engine", "walk", "tape.record")] = 0.5
        recorder.record_frame(("engine", "walk", "pack", "deeper"), 0.2)
        snap = recorder.snapshot()
        assert snap["counters"]["telemetry.engine.walks"] == 1
        assert snap["derived"]["walk_attributed_frac"] == 0.75
        assert FlightRecorder().snapshot()["derived"]["walk_attributed_frac"] == 0.0


class TestGcCensus:
    """A walk counts the collector's runs and pauses, then unhooks itself."""

    def test_collections_are_counted_per_generation(self):
        recorder = FlightRecorder()
        with recorder.walk():
            gc.collect(0)
            gc.collect(2)
            gc.collect(2)
        counters = recorder.registry.snapshot()
        # Allocation can trigger more young collections; forced ones count.
        assert counters["telemetry.gc.gen0"] >= 1
        assert counters["telemetry.gc.gen2"] >= 2
        pause = recorder.registry.timer("telemetry.gc.pause")
        assert pause.count == sum(
            counters.get(f"telemetry.gc.gen{gen}", 0) for gen in range(3)
        )
        snap = recorder.snapshot()
        # The exact walk time: the snapshot's frames are rounded to 1 us.
        walk_s = recorder.frames[("engine", "walk")]
        assert snap["derived"]["gc_pause_frac"] == round(pause.total_s / walk_s, 4)
        assert 0.0 < snap["derived"]["gc_pause_frac"] <= 1.0

    def test_collections_outside_a_walk_are_not_counted(self):
        recorder = FlightRecorder()
        gc.collect()
        assert not any(
            name.startswith("telemetry.gc.") for name in recorder.registry.snapshot()
        )
        assert recorder.snapshot()["derived"]["gc_pause_frac"] == 0.0

    def test_callback_removed_after_a_walk(self):
        before = list(gc.callbacks)
        recorder = FlightRecorder()
        with pytest.raises(RuntimeError):
            with recorder.walk():
                assert len(gc.callbacks) == len(before) + 1
                raise RuntimeError("walk failed")
        assert gc.callbacks == before

    @pytest.mark.parametrize("path", ["batch", "scalar"])
    def test_engine_walks_leave_callbacks_unchanged(self, path):
        before = list(gc.callbacks)
        _, _, recorder = run_recorded(
            small_trace(), ["hard-default", "hb-ideal"], path=path
        )
        assert gc.callbacks == before
        assert "gc_pause_frac" in recorder.snapshot()["derived"]

    def test_merge_adds_pauses(self):
        shards = []
        for _ in range(2):
            shard = FlightRecorder()
            with shard.walk():
                gc.collect(2)
            shards.append(shard)
        merged = FlightRecorder()
        for shard in shards:
            merged.merge(shard)
        pauses = [s.registry.timer("telemetry.gc.pause") for s in shards]
        merged_pause = merged.registry.timer("telemetry.gc.pause")
        assert merged_pause.count == sum(p.count for p in pauses)
        assert merged_pause.total_s == pytest.approx(sum(p.total_s for p in pauses))
        assert merged.registry.snapshot()["telemetry.gc.gen2"] >= 2


class TestMerge:
    def test_merge_is_associative_across_worker_shards(self):
        # Simulate two parallel workers each carrying a recorder shard.
        shards = []
        for worker in range(2):
            shard = FlightRecorder()
            shard.record_core_walk("hard", 500, 0.05)
            shard.record_walk(0.25)
            shard.record_frame(("engine", "walk"), 0.25)
            shards.append(shard)
        merged = FlightRecorder()
        for shard in shards:
            merged.merge(shard)
        snap = merged.snapshot()
        assert snap["cores"]["hard"]["stepped"] == 1000
        assert snap["cores"]["hard"]["walks"] == 2
        assert snap["cores"]["hard"]["wall_s"] == pytest.approx(0.1)
        assert snap["counters"]["telemetry.engine.walks"] == 2
        # Frames merged without re-entering the stack accounting.
        assert merged.frames[("engine", "walk")] == pytest.approx(1.0)

    def test_merge_preserves_step_histogram(self):
        a, b = FlightRecorder(), FlightRecorder()
        a.record_core_walk("x", 100, 0.001)
        b.record_core_walk("x", 100, 0.002)
        a.merge(b)
        assert a.registry.histogram("telemetry.step_us").count == 2


class TestEngineIntegration:
    @pytest.fixture(scope="class")
    def trace(self):
        return small_trace()

    def test_telemetry_run_is_bit_for_bit_identical(self, trace):
        configs = ["hard-default", "hb-default", "software", "hb-ideal"]

        def run(obs):
            session = EngineSession(trace, obs=obs)
            for key in configs:
                session.add_config(DetectorConfig.coerce(key))
            return session.run()

        plain = run(None)
        recorded = run(Observability(telemetry=FlightRecorder()))
        for p, r in zip(plain, recorded):
            assert p.detector == r.detector
            assert p.cycles == r.cycles
            assert p.detector_extra_cycles == r.detector_extra_cycles
            assert p.stats.snapshot() == r.stats.snapshot()
            assert [
                (rep.seq, rep.thread_id, rep.addr) for rep in p.reports
            ] == [(rep.seq, rep.thread_id, rep.addr) for rep in r.reports]

    def test_scalar_walk_times_each_core_alone(self, trace):
        # On the scalar walk every core runs its own loop with its own
        # machine, even when two cores describe the same machine, and each
        # loop is timed under the core's name over every event.
        recorder = FlightRecorder()
        session = EngineSession(
            trace, obs=Observability(telemetry=recorder), path="scalar"
        )
        session.add_config(DetectorConfig.coerce("hard-default"))
        session.add_config(DetectorConfig.coerce("software"))
        session.run()
        assert list(recorder.cores) == ["hard-default", "software"]
        for name in ("hard-default", "software"):
            assert recorder.cores[name]["stepped"] == len(trace)
            assert recorder.cores[name]["walks"] == 1

    def test_solo_walk_steps_every_event(self, trace):
        recorder = FlightRecorder()
        session = EngineSession(
            trace, obs=Observability(telemetry=recorder), path="scalar"
        )
        session.add_config(DetectorConfig.coerce("hb-ideal"))  # trace-only
        session.run()
        core = recorder.cores["hb-ideal"]
        assert core["stepped"] == len(trace)
        assert core["wall_s"] > 0
        assert recorder.frames[("engine", "walk", "core.hb-ideal")] == core["wall_s"]

    def test_traced_walk_feeds_recorder_exactly(self, trace):
        from repro.obs import RecordingEmitter

        recorder = FlightRecorder()
        obs = Observability(
            emitter=RecordingEmitter(), telemetry=recorder
        )
        session = EngineSession(trace, obs=obs)
        session.add_config(DetectorConfig.coerce("hb-ideal"))
        session.run()
        core = recorder.cores["hb-ideal"]
        assert core["stepped"] == len(trace)
        assert core["walks"] == 1


def run_recorded(trace, keys, **kwargs):
    """One recorder-on session over ``keys``: (session, results, recorder)."""
    recorder = FlightRecorder()
    session = EngineSession(trace, obs=Observability(telemetry=recorder), **kwargs)
    for key in keys:
        session.add_config(DetectorConfig.coerce(key))
    return session, session.run(), recorder


class TestBatchWalk:
    """A recorder rides the batch walk: same path, same results, exact timing."""

    @pytest.fixture(scope="class")
    def trace(self):
        return small_trace()

    @pytest.mark.parametrize(
        "machine",
        [{}, {"num_cores": 16, "coherence": "directory"}],
        ids=["default", "directory-16"],
    )
    def test_results_bit_for_bit_for_every_batch_key(self, trace, machine):
        configs = [DetectorConfig(key, **machine) for key in BATCH_KEYS]
        plain = EngineSession(trace)
        for config in configs:
            plain.add_config(config)
        session, recorded, _ = run_recorded(trace, configs)
        assert session.path_taken == "batch"
        assert [result_key(r) for r in recorded] == [
            result_key(r) for r in plain.run()
        ]

    def test_every_core_is_timed_over_the_whole_trace(self, trace):
        _, _, recorder = run_recorded(trace, BATCH_KEYS)
        snap = recorder.snapshot()
        assert sorted(snap["cores"]) == sorted(BATCH_KEYS)
        for core in snap["cores"].values():
            assert core["stepped"] == len(trace)
            assert core["walks"] == 1
        assert snap["counters"]["telemetry.engine.walks"] == 1

    def test_walk_layers_get_frames(self, tmp_path):
        from repro.harness.tracecache import TapeCache

        fresh = small_trace()
        cache = TapeCache(tmp_path)
        keys = ("hard-default", "software", "hb-ideal")
        _, _, recorder = run_recorded(fresh, keys, tape_cache=cache)
        frames = {";".join(path) for path in recorder.frames}
        for leaf in (
            "pack", "begin_batch", "finish_batch", "release", "tape.record", "tape.memo"
        ):
            assert f"engine;walk;{leaf}" in frames
        # A new columnar view of the same trace loads the stored tape.
        _, _, reload = run_recorded(small_trace(), keys, tape_cache=cache)
        assert ("engine", "walk", "tape.load") in reload.frames
        assert ("engine", "walk", "tape.record") not in reload.frames

    def test_sharded_path_records_parent_frames(self):
        trace = small_trace()  # fresh columns: the tape is recorded here
        session, results, recorder = run_recorded(
            trace, ("hard-default", "hb-ideal"), path="sharded"
        )
        assert session.path_taken == "sharded"
        plain = EngineSession(trace, path="batch")
        for key in ("hard-default", "hb-ideal"):
            plain.add_config(DetectorConfig(key))
        assert [result_key(r) for r in results] == [
            result_key(r) for r in plain.run()
        ]
        for leaf in ("pack", "tape.record", "baseline", "fan_out", "merge"):
            assert ("engine", "walk", leaf) in recorder.frames, leaf


def test_walk_attribution_covers_raytrace():
    trace = small_trace("raytrace")
    _, _, recorder = run_recorded(trace, BATCH_KEYS)
    assert recorder.snapshot()["derived"]["walk_attributed_frac"] >= 0.90
