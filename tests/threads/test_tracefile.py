"""Unit tests for trace serialization."""

import pytest

from repro.common.errors import ProgramError
from repro.common.events import (
    InjectedBug,
    Site,
    Trace,
    barrier,
    compute,
    lock,
    read,
    unlock,
    write,
)
from repro.threads.tracefile import load_trace, save_trace
from repro.reporting import run_core

S = Site("t.c", 3, "x")
BUG = InjectedBug(
    thread_id=0,
    lock_addr=0x200,
    lock_op_index=2,
    unlock_op_index=5,
    chunk_addresses=frozenset({0x100, 0x104}),
    sites=frozenset({S}),
)


def sample_trace() -> Trace:
    trace = Trace(num_threads=3, label="sample")
    trace.injected_bug = BUG
    trace.append(0, write(0x100, S, size=8))
    trace.append(1, read(0x104, S))
    trace.append(0, lock(0x200, S))
    trace.append(0, unlock(0x200, S))
    trace.append(2, barrier(1, 3))
    trace.append(1, compute(42))
    return trace


class TestRoundTrip:
    def test_events_survive(self, tmp_path):
        original = sample_trace()
        path = tmp_path / "t.jsonl"
        save_trace(original, path)
        loaded = load_trace(path)
        assert len(loaded) == len(original)
        for a, b in zip(original, loaded):
            assert a.thread_id == b.thread_id
            assert a.op == b.op
            assert a.seq == b.seq

    def test_header_survives(self, tmp_path):
        path = tmp_path / "t.jsonl"
        save_trace(sample_trace(), path)
        loaded = load_trace(path)
        assert loaded.num_threads == 3
        assert loaded.label == "sample"
        assert loaded.injected_bug_sites == frozenset({S})
        assert loaded.injected_bug == BUG

    def test_detector_verdicts_identical(self, tmp_path):
        """The acid test: a reloaded trace gives identical reports."""
        from repro.harness.detectors import make_detector
        from repro.threads.runtime import interleave
        from repro.threads.scheduler import RandomScheduler
        from repro.workloads.base import WorkloadBuilder, benign_counters

        b = WorkloadBuilder("t", seed=0)
        benign_counters(b, label="bc", num_counters=2, updates_per_thread=10)
        trace = interleave(b.build(), RandomScheduler(seed=1)).trace
        path = tmp_path / "t.jsonl"
        save_trace(trace, path)
        reloaded = load_trace(path)
        original = run_core(make_detector("hard-ideal").core(), trace)
        replayed = run_core(make_detector("hard-ideal").core(), reloaded)
        assert original.reports.sites() == replayed.reports.sites()
        assert original.reports.dynamic_count == replayed.reports.dynamic_count


class TestErrors:
    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ProgramError):
            load_trace(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "v9.jsonl"
        path.write_text('{"version": 9, "num_threads": 1}\n')
        with pytest.raises(ProgramError):
            load_trace(path)
