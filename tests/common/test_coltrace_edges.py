"""ColumnarTrace edge cases (satellite): degenerate shapes and mmap reloads.

The batch kernels walk the columns blindly, so they must be exactly right
on the degenerate traces a fuzz campaign actually produces: empty traces,
barrier-only traces, and traces reloaded from a memory-mapped file while a
suite is mid-flight.
"""

import mmap
from pathlib import Path

import pytest

from repro.api import detect
from repro.common.coltrace import ColumnarTrace
from repro.common.errors import ProgramError
from repro.common.events import (
    InjectedBug,
    Site,
    Trace,
    TraceEvent,
    barrier,
    compute,
    lock,
    read,
    unlock,
    write,
)
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
        assert cols.rows() == []

    def test_empty_trace_round_trips(self):
        cols = ColumnarTrace.from_events(Trace(num_threads=0))
        again = ColumnarTrace.from_bytes(cols.to_bytes())
        assert len(again) == 0

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


class TestPacker:
    def test_equal_sites_share_one_entry_in_first_appearance_order(self):
        # Distinct but equal Site objects, as a decode or a second builder
        # produces them, intern to one table entry.
        a1, a2 = Site("p.c", 2, "a"), Site("p.c", 2, "a")
        b = Site("p.c", 1, "b")
        ops = [compute(4), write(0x10, a1), read(0x20, b), read(0x10, a2)]
        cols = ColumnarTrace.from_ops([0, 1, 0, 1], ops, num_threads=2)
        assert cols.sites == (a1, b)
        assert list(cols.site_id) == [-1, 0, 1, 0]
        assert list(cols.is_write) == [0, 1, 0, 0]

    def test_untouched_bug_sites_follow_sorted(self):
        touched = Site("p.c", 5)
        bug = InjectedBug(
            thread_id=0,
            lock_addr=0x40,
            lock_op_index=0,
            unlock_op_index=1,
            chunk_addresses=frozenset({0x10}),
            sites=frozenset({Site("z.c", 1), touched, Site("a.c", 9)}),
        )
        cols = ColumnarTrace.from_ops(
            [0], [write(0x10, touched)], num_threads=1, bug=bug
        )
        assert cols.sites == (touched, Site("a.c", 9), Site("z.c", 1))

    def test_every_op_needs_its_thread(self):
        with pytest.raises(ProgramError, match="2 thread ids for 1 ops"):
            ColumnarTrace.from_ops([0, 1], [compute(1)], num_threads=2)

    def test_from_events_rejects_a_gap_in_the_sequence(self):
        events = [
            TraceEvent(seq=0, thread_id=0, op=compute(1)),
            TraceEvent(seq=2, thread_id=0, op=compute(1)),
        ]
        with pytest.raises(ProgramError, match=r"index 1 \(seq 2\)"):
            ColumnarTrace.from_events(Trace(events, num_threads=1))


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
            # memoised rows must not corrupt across passes).
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
