"""ColumnarTrace edge cases (satellite): degenerate shapes and mmap reloads.

The batch kernels iterate ``sync_runs()`` blindly, so the segmentation
must be exactly right on the degenerate traces a fuzz campaign actually
produces: empty traces, single events, barrier-only traces, and traces
reloaded from a memory-mapped file while a suite is mid-flight.
"""

import mmap
from pathlib import Path

from repro.api import detect
from repro.common.coltrace import ColumnarTrace, SyncRun
from repro.common.events import Site, Trace, barrier, lock, read, unlock, write
from repro.threads.runtime import interleave
from repro.threads.scheduler import RandomScheduler
from repro.workloads.registry import build_workload

from tests.engine.test_batch_path import result_key

SITE = Site("edge.c", 1, "edge")


def _barrier_all(trace: Trace, barrier_id: int, participants: int) -> None:
    for tid in range(participants):
        trace.append(tid, barrier(barrier_id, participants, SITE))


class TestDegenerateShapes:
    def test_empty_trace_has_no_runs(self):
        cols = ColumnarTrace.from_events(Trace(num_threads=0))
        assert len(cols) == 0
        assert cols.sync_runs() == []
        assert cols.rows() == []

    def test_empty_trace_round_trips(self):
        cols = ColumnarTrace.from_events(Trace(num_threads=0))
        again = ColumnarTrace.from_bytes(cols.to_bytes())
        assert len(again) == 0
        assert again.sync_runs() == []

    def test_single_event_is_one_run(self):
        trace = Trace(num_threads=1)
        trace.append(0, write(0x100, SITE))
        cols = ColumnarTrace.from_events(trace)
        assert cols.sync_runs() == [SyncRun(0, 1, False)]

    def test_single_barrier_event_is_one_sync_run(self):
        trace = Trace(num_threads=1)
        _barrier_all(trace, barrier_id=1, participants=1)
        cols = ColumnarTrace.from_events(trace)
        assert cols.sync_runs() == [SyncRun(0, 1, True)]

    def test_barrier_only_trace(self):
        # Every event is a sync point: N runs, each one event, all sync.
        trace = Trace(num_threads=2)
        for barrier_id in (1, 2, 3):
            _barrier_all(trace, barrier_id, participants=2)
        cols = ColumnarTrace.from_events(trace)
        runs = cols.sync_runs()
        assert len(runs) == len(trace)
        assert all(run.sync for run in runs)
        assert all(run.hi - run.lo == 1 for run in runs)
        assert [run.lo for run in runs] == list(range(len(trace)))

    def test_runs_tile_mixed_trace(self):
        trace = Trace(num_threads=2)
        trace.append(0, write(0x100, SITE))
        trace.append(1, read(0x100, SITE))
        _barrier_all(trace, barrier_id=1, participants=2)
        trace.append(0, write(0x104, SITE))
        cols = ColumnarTrace.from_events(trace)
        runs = cols.sync_runs()
        # Runs tile [0, n) in order with no gaps.
        assert runs[0].lo == 0 and runs[-1].hi == len(trace)
        for left, right in zip(runs, runs[1:]):
            assert left.hi == right.lo
        assert [run.sync for run in runs] == [False, True, True, False]

    def test_degenerate_traces_survive_detection(self):
        # The engine must walk zero-run and sync-only columnar traces
        # without special-casing.
        for build in (
            lambda: Trace(num_threads=2),
            lambda: self._barrier_only(),
        ):
            trace = build()
            result = detect(trace.columns(), "hb-ideal", engine_path="batch")
            assert result.reports.alarm_count == 0

    @staticmethod
    def _barrier_only() -> Trace:
        trace = Trace(num_threads=2)
        _barrier_all(trace, 1, 2)
        _barrier_all(trace, 2, 2)
        return trace


class TestHeldLocks:
    def test_reentrant_acquires_nest(self):
        trace = Trace(num_threads=1)
        for op in (lock(0xA0, SITE), lock(0xA0, SITE), read(0x100, SITE)):
            trace.append(0, op)
        for op in (unlock(0xA0, SITE), read(0x100, SITE)):
            trace.append(0, op)
        for op in (unlock(0xA0, SITE), read(0x100, SITE)):
            trace.append(0, op)
        held = ColumnarTrace.from_events(trace).held_locks()
        assert held == [1, 1, 1, 1, 1, 0, 0]

    def test_bits_in_first_acquire_order_per_thread(self):
        trace = Trace(num_threads=2)
        trace.append(0, lock(0xB0, SITE))  # first acquired: bit 0
        trace.append(1, lock(0xA0, SITE))  # bit 1
        trace.append(0, lock(0xA0, SITE))  # same lock, same bit
        trace.append(1, write(0x100, SITE))
        trace.append(0, write(0x100, SITE))
        trace.append(0, unlock(0xB0, SITE))
        trace.append(0, read(0x100, SITE))
        held = ColumnarTrace.from_events(trace).held_locks()
        assert held == [0b01, 0b10, 0b11, 0b10, 0b11, 0b10, 0b10]

    def test_memoised_until_close(self):
        trace = Trace(num_threads=1)
        trace.append(0, lock(0xA0, SITE))
        cols = ColumnarTrace.from_events(trace)
        first = cols.held_locks()
        assert cols.held_locks() is first
        cols.close()
        assert cols.held_locks() == first and cols.held_locks() is not first

    def test_empty_trace(self):
        assert ColumnarTrace.from_events(Trace(num_threads=0)).held_locks() == []


class TestMmapReloadMidSuite:
    def test_mmap_reload_between_detector_passes(self, tmp_path: Path):
        # A suite that serialises its trace, then keeps detecting from a
        # zero-copy mmap view: results must stay bit-for-bit identical to
        # the in-memory columns, pass after pass.
        program = build_workload("water-nsquared", seed=4)
        trace = interleave(program, RandomScheduler(seed=1, max_burst=8)).trace
        cols = trace.columns()
        path = tmp_path / "trace.colt"
        path.write_bytes(cols.to_bytes())

        baseline = detect(cols, "multilock-hb", engine_path="batch")
        with open(path, "rb") as fh:
            view = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        try:
            reloaded = ColumnarTrace.from_bytes(view)
            # First pass mid-suite...
            first = detect(reloaded, "multilock-hb", engine_path="batch")
            assert result_key(first) == result_key(baseline)
            # ...and a second detector over the same mapping (the
            # memoised rows/sync_runs must not corrupt across passes).
            second = detect(reloaded, "acculock", engine_path="batch")
            third = detect(trace, "acculock", engine_path="scalar")
            assert result_key(second) == result_key(third)
        finally:
            del reloaded
            view.close()

    def test_mmap_columns_are_zero_copy_views(self, tmp_path: Path):
        import pytest

        trace = Trace(num_threads=1)
        trace.append(0, write(0x100, SITE))
        payload = ColumnarTrace.from_events(trace).to_bytes()
        path = tmp_path / "one.colt"
        path.write_bytes(payload)
        with open(path, "rb") as fh:
            view = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        cols = ColumnarTrace.from_bytes(view)
        assert cols.to_events()[0].op.addr == 0x100
        # The columns are live views INTO the mapping, not copies: the
        # mapping cannot close while they exist...
        with pytest.raises(BufferError):
            view.close()
        # ...and closes cleanly once they are released.
        del cols
        view.close()
