"""Unit tests for trace characterization."""

from pathlib import Path

import pytest

from repro.common.events import Site, Trace, barrier, compute, lock, read, unlock, write
from repro.fuzz.corpus import corpus_paths, load_case
from repro.harness.tracestats import TraceStatsCore, characterize
from repro.threads.runtime import interleave
from repro.threads.scheduler import RandomScheduler
from repro.workloads.registry import build_workload

CORPUS_DIR = Path(__file__).parent.parent / "fuzz" / "corpus"

S = Site("c.c", 1)


def small_trace() -> Trace:
    trace = Trace(num_threads=2)
    trace.append(0, lock(0x10, S))
    trace.append(0, lock(0x20, S))
    trace.append(0, write(0x1000, S))
    trace.append(0, unlock(0x20, S))
    trace.append(0, unlock(0x10, S))
    trace.append(1, read(0x1000, S))
    trace.append(1, write(0x2000, S))
    trace.append(0, barrier(0, 2))
    trace.append(1, barrier(0, 2))
    trace.append(0, compute(5))
    return trace


class TestCharacterize:
    def test_event_counts(self):
        stats = characterize(small_trace())
        assert stats.total_events == 10
        assert stats.memory_accesses == 3
        assert stats.writes == 2
        assert stats.lock_acquires == 2
        assert stats.barrier_waits == 2
        assert stats.compute_events == 1

    def test_lock_nesting_and_density(self):
        stats = characterize(small_trace())
        assert stats.max_lock_nesting == 2
        assert stats.distinct_locks == 2
        assert stats.lock_density == 2 / 3

    def test_sharing(self):
        stats = characterize(small_trace())
        assert stats.distinct_lines == 2
        assert stats.shared_lines == 1        # 0x1000 touched by both
        assert stats.write_shared_lines == 1  # written by t0, read by t1
        assert stats.sharers_histogram == {1: 1, 2: 1}

    def test_accesses_under_lock(self):
        stats = characterize(small_trace())
        assert stats.accesses_under_lock == 1

    def test_format_mentions_key_numbers(self):
        text = characterize(small_trace()).format()
        assert "footprint" in text and "lock acquires" in text


class TestOnRealWorkload:
    def test_water_signature(self):
        """water-nsquared: lock-dense, molecule-shared, > 1 MB footprint."""
        from repro.threads.runtime import interleave
        from repro.threads.scheduler import RandomScheduler
        from repro.workloads.registry import build_workload

        program = build_workload("water-nsquared", seed=0)
        trace = interleave(program, RandomScheduler(seed=0, max_burst=8)).trace
        stats = characterize(trace)
        assert stats.footprint_bytes > 1024 * 1024  # beyond the 1 MB L2
        assert stats.lock_density > 0.05            # a lock-based app
        assert stats.shared_lines > 500             # molecules are shared
        assert stats.max_lock_nesting >= 1


def _scalar_fold(trace: Trace):
    """The event-by-event reference: ``begin``/``step``/``finish``."""
    core = TraceStatsCore()
    core.begin(trace)
    for event in trace.events:
        core.step(event)
    return core.finish()


def _corpus_trace(path: Path) -> Trace:
    case = load_case(path)
    scheduler = RandomScheduler(seed=case.schedule_seed, min_burst=1, max_burst=8)
    return interleave(case.program, scheduler).trace


def _raytrace_trace() -> Trace:
    program = build_workload("raytrace", seed=0)
    return interleave(program, RandomScheduler(seed=0, max_burst=8)).trace


_TRACES = {
    path.stem: lambda path=path: _corpus_trace(path)
    for path in corpus_paths(CORPUS_DIR)
}
_TRACES["raytrace"] = _raytrace_trace


class TestCharacterizeRidesTheColumns:
    @pytest.mark.parametrize("name", sorted(_TRACES))
    def test_equals_the_scalar_fold(self, name):
        trace = _TRACES[name]()
        got = characterize(trace)
        assert trace._events is None  # characterize decoded nothing
        assert got == _scalar_fold(trace)

    def test_event_built_trace_is_packed_once(self):
        trace = small_trace()
        assert characterize(trace) == _scalar_fold(trace)
        assert trace.columns() is trace.columns()

    def test_pipeline_builds_no_event_objects(self):
        from repro.harness.pipeline import run_pipeline
        from repro.obs import FlightRecorder, Observability

        obs = Observability(telemetry=FlightRecorder())
        try:
            run = run_pipeline("raytrace", "hard-default", bug_seed=3, obs=obs)
        finally:
            obs.close()
        assert run.report.workload["total_events"] == len(run.trace)
        assert run.trace._events is None
