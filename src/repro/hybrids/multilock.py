"""MultiLock-HB: per-location reader/writer lockset *sets* (DRTracker).

AccuLock keeps one lockset per record, so a location protected by lock A
in one code path and lock B in another collapses to whichever access came
last.  MultiLock-HB (DRTracker's scheme) keeps a *set* of records per
side instead:

* ``writes`` — every ``(thread, epoch, lockset)`` write record since the
  last barrier episode, deduplicated by ``(thread, lockset)`` (a repeat
  write under the same locks just refreshes the epoch);
* ``reads`` — the same per reader, cleared by the next write (a read
  racing a later access is subsumed by the clearing write, exactly as in
  the happens-before history).

An access conflicts with a record iff different thread, the record is not
weak-happens-before ordered (no barrier episode between — see
:class:`~repro.hybrids.clocks.WeakClocks`), and the two locksets are
disjoint.  Keeping *all* writer locksets is what catches the
absorbed-locks pattern (the ``absorbed-locks`` fuzz exemplar): Eraser's
single candidate set silently shrinks through A-then-B phases, while
MultiLock still owns the ``{A}``-stamped record when the ``{B}``-stamped
access arrives.

Per access: O(T * S) record checks where S is the number of distinct
locksets per thread (the Fine-Grained Lens taxonomy's cost for
lockset-set schemes).  The scalar walk tests each record with a
frozenset intersection; the batch walk stamps records with the trace's
held-lock bitmask (``ColumnarTrace.held_locks``), so each test is one int
AND and the same-``(thread, lockset)`` dedup is one dict lookup.

``use_weak_hb=False`` disables condition 2 entirely (every record is
treated as concurrent): that is the pure pairwise-lockset ablation the
fuzz oracle uses to separate "the hybrid pruned a lockset false positive
via barrier ordering" from "pairwise disjointness never held at all".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.addresses import spanned_chunks
from repro.common.errors import DetectorError
from repro.common.events import OpKind, Trace
from repro.common.stats import StatCounters
from repro.hybrids.clocks import WeakClocks
from repro.reporting import DetectionResult, RaceReportLog

#: Shared "no conflicts" result for the race-free hot path.
_NO_CONFLICTS: list[str] = []


class MultiChunk:
    """Access history of one chunk: writer and reader record lists.

    Each record is ``[thread, epoch value, lockset]`` (mutable so a
    same-``(thread, lockset)`` repeat refreshes the epoch in place).
    """

    __slots__ = ("writes", "reads")

    def __init__(self):
        self.writes: list[list] = []
        self.reads: list[list] = []


def _record(records: list[list], tid: int, value: int, lockset: frozenset) -> None:
    """Add ``(tid, value, lockset)``, refreshing a same-keyed record."""
    for record in records:
        if record[0] == tid and record[2] == lockset:
            record[1] = value
            return
    records.append([tid, value, lockset])


class MaskChunk:
    """The batch walk's :class:`MultiChunk`: records keyed by lock bitmask.

    ``writes`` and ``reads`` map ``(thread, held-lock bitmask)`` to the
    record's epoch value.  A dict keeps insertion order and a refresh keeps
    its key's position, so iteration order is exactly :class:`MultiChunk`'s
    list order while the same-key dedup costs O(1).
    """

    __slots__ = ("writes", "reads")

    def __init__(self):
        self.writes: dict[tuple[int, int], int] = {}
        self.reads: dict[tuple[int, int], int] = {}


@dataclass
class MultiLockHBDetector:
    """Multiple-reader/writer-lockset hybrid detection (MultiLock-HB)."""

    granularity: int = 4
    barrier_reset: bool = True
    use_weak_hb: bool = True
    name: str = "multilock-hb"

    def core(self) -> "MultiLockHBCore":
        """A fresh incremental core for one pass (the engine entry point)."""
        return MultiLockHBCore(self)


class MultiLockHBCore:
    """Mutable state of one MultiLock-HB pass (trace-only)."""

    machine_config = None

    def __init__(self, detector: MultiLockHBDetector):
        self.d = detector
        self.name = detector.name

    # ------------------------------------------------------------ chunk logic

    def _check(self, chunk: MultiChunk, tid: int, clock, held, is_write: bool):
        """Race-check one access against every record, then record it.

        ``held`` is the accessor's lock->depth map; a record conflicts when
        it is foreign, epoch-concurrent and lockset-disjoint.
        """
        conflicts = None
        knows = clock.knows if self.d.use_weak_hb else None
        keys = held.keys()
        for kind_label, records in (
            ("write", chunk.writes),
            ("read", chunk.reads) if is_write else ("read", ()),
        ):
            for thread, value, lockset in records:
                if thread == tid:
                    continue
                if knows is not None and knows((thread, value)):
                    continue
                if lockset & keys:
                    continue
                if conflicts is None:
                    conflicts = []
                conflicts.append(
                    f"lock-disjoint with {kind_label} by t{thread}@{value}"
                )
        lockset = frozenset(held)
        value = clock.values[tid]
        if is_write:
            chunk.reads.clear()
            _record(chunk.writes, tid, value, lockset)
        else:
            _record(chunk.reads, tid, value, lockset)
        return conflicts if conflicts is not None else _NO_CONFLICTS

    # ---------------------------------------------------------- scalar path

    def begin(self, trace: Trace, obs=None) -> None:
        """Allocate the pass state (trace-only: no machine)."""
        self.log = RaceReportLog(self.d.name)
        self.run_stats = StatCounters()
        self.clocks = WeakClocks(trace.num_threads)
        self.held: dict[int, dict[int, int]] = {}  # thread -> lock -> depth
        self.chunks: dict[int, MultiChunk] = {}
        # Hot per-chunk counters, batched and flushed in finish().
        self._n_history_updates = 0
        self._n_acquires = 0
        self._n_releases = 0
        self._n_episodes = 0

    def step(self, event) -> None:
        """Process one trace event."""
        op = event.op
        thread_id = event.thread_id
        if op.kind is OpKind.COMPUTE:
            return
        if op.kind is OpKind.LOCK:
            locks = self.held.setdefault(thread_id, {})
            locks[op.addr] = locks.get(op.addr, 0) + 1
            self._n_acquires += 1
        elif op.kind is OpKind.UNLOCK:
            locks = self.held.setdefault(thread_id, {})
            if locks.get(op.addr, 0) <= 0:
                raise DetectorError(
                    f"t{thread_id} released lock 0x{op.addr:x} it never took"
                )
            locks[op.addr] -= 1
            if not locks[op.addr]:
                del locks[op.addr]
            self._n_releases += 1
        elif op.kind is OpKind.BARRIER:
            self._barrier(thread_id, op.addr, op.participants)
        else:
            chunks = self.chunks
            stats = self.run_stats
            clock = self.clocks.threads[thread_id]
            held = self.held.setdefault(thread_id, {})
            is_write = op.is_write
            for chunk_addr in spanned_chunks(op.addr, op.size, self.d.granularity):
                chunk = chunks.get(chunk_addr)
                if chunk is None:
                    chunk = MultiChunk()
                    chunks[chunk_addr] = chunk
                conflicts = self._check(chunk, thread_id, clock, held, is_write)
                self._n_history_updates += 1
                for detail in conflicts:
                    self.log.add(
                        seq=event.seq,
                        thread_id=thread_id,
                        addr=op.addr,
                        size=op.size,
                        site=op.site,
                        is_write=is_write,
                        detail=f"{detail} (chunk 0x{chunk_addr:x})",
                    )
                    stats.add("multilock.dynamic_reports")

    def _barrier(self, thread_id: int, barrier_id: int, participants: int) -> None:
        if self.clocks.barrier_arrive(thread_id, barrier_id, participants):
            self._n_episodes += 1
            if self.d.barrier_reset and self.d.use_weak_hb:
                # Pre-barrier records are weak-known to every thread from
                # here on and can never conflict again; dropping them is a
                # pure memory optimization (reports are unchanged).  With
                # use_weak_hb off the epoch filter is gone, so the records
                # must stay live and the reset is skipped.
                self.chunks.clear()

    def finish(self) -> DetectionResult:
        """Assemble the detection result after the last event."""
        stats = self.run_stats
        if self._n_acquires:
            stats.add("multilock.acquires", self._n_acquires)
        if self._n_releases:
            stats.add("multilock.releases", self._n_releases)
        if self._n_episodes:
            stats.add("multilock.barrier_episodes", self._n_episodes)
        if self._n_history_updates:
            stats.add("multilock.history_updates", self._n_history_updates)
        return DetectionResult(
            detector=self.d.name, reports=self.log, stats=stats
        )

    # ------------------------------------------------------------- batch path
    # Vectorized kernel over the columnar trace.  Trace-only (no machine, no
    # tape); the weak clocks are the scalar path's, the chunk histories are
    # MaskChunks keyed by the trace's held-lock bitmasks.

    def begin_batch(self, cols, tape=None, obs=None) -> None:
        """Allocate batch-pass state over a columnar trace (tape unused)."""
        self.log = RaceReportLog(self.d.name)
        self.run_stats = StatCounters()
        self.clocks = WeakClocks(cols.num_threads)
        self._held = cols.held_locks()
        self.chunks = {}
        self._n_history_updates = 0
        self._n_acquires = 0
        self._n_releases = 0
        self._n_episodes = 0
        self._n_reports = 0

    def step_batch(self, cols, lo: int, hi: int) -> None:
        """Process events ``[lo, hi)`` of ``cols``."""
        rows = cols.rows()
        held = self._held
        sites = cols.sites
        participants = cols.participants
        granularity = self.d.granularity
        weak_hb = self.d.use_weak_hb
        chunk_mask = ~(granularity - 1)
        threads = self.clocks.threads
        chunks = self.chunks
        log_add = self.log.add
        n_history_updates = self._n_history_updates
        n_reports = self._n_reports

        for i in range(lo, hi):
            kind, tid, addr, size, sid = rows[i]
            if kind <= 1:  # READ / WRITE
                is_write = kind == 1
                values = threads[tid].values
                mask = held[i]
                first = addr & chunk_mask
                last = (addr + size - 1) & chunk_mask
                chunk_addr = first
                while True:
                    chunk = chunks.get(chunk_addr)
                    if chunk is None:
                        chunk = chunks[chunk_addr] = MaskChunk()
                    # _check on ints: a record conflicts when foreign,
                    # lock-disjoint and (with weak_hb) not weak-known.
                    # Inlined as two loops, this timed about 1.3x faster
                    # than one loop over (label, records) pairs and 1.5x
                    # faster than a helper call.
                    writes = chunk.writes
                    conflicts = None
                    for (thread, lockset), value in writes.items():
                        if not (
                            thread == tid
                            or lockset & mask
                            or (weak_hb and value <= values[thread])
                        ):
                            if conflicts is None:
                                conflicts = []
                            conflicts.append(f"write by t{thread}@{value}")
                    if is_write:
                        reads = chunk.reads
                        if reads:
                            for (thread, lockset), value in reads.items():
                                if not (
                                    thread == tid
                                    or lockset & mask
                                    or (weak_hb and value <= values[thread])
                                ):
                                    if conflicts is None:
                                        conflicts = []
                                    conflicts.append(f"read by t{thread}@{value}")
                            reads.clear()
                        writes[(tid, mask)] = values[tid]
                    else:
                        chunk.reads[(tid, mask)] = values[tid]
                    n_history_updates += 1
                    if conflicts is not None:
                        for record in conflicts:
                            log_add(
                                seq=i,
                                thread_id=tid,
                                addr=addr,
                                size=size,
                                site=sites[sid],
                                is_write=is_write,
                                detail=f"lock-disjoint with {record} "
                                f"(chunk 0x{chunk_addr:x})",
                            )
                        n_reports += len(conflicts)
                    if chunk_addr == last:
                        break
                    chunk_addr += granularity
            elif kind == 2:  # LOCK
                self._n_acquires += 1
            elif kind == 3:  # UNLOCK
                self._n_releases += 1
            elif kind == 4:  # BARRIER
                self._barrier(tid, addr, participants[i])
            # kind == 5 (COMPUTE): no effect.

        self._n_history_updates = n_history_updates
        self._n_reports = n_reports

    def finish_batch(self) -> DetectionResult:
        """Assemble the detection result after the last batch."""
        stats = self.run_stats
        if self._n_acquires:
            stats.add("multilock.acquires", self._n_acquires)
        if self._n_releases:
            stats.add("multilock.releases", self._n_releases)
        if self._n_episodes:
            stats.add("multilock.barrier_episodes", self._n_episodes)
        if self._n_reports:
            stats.add("multilock.dynamic_reports", self._n_reports)
        if self._n_history_updates:
            stats.add("multilock.history_updates", self._n_history_updates)
        return DetectionResult(detector=self.d.name, reports=self.log, stats=stats)
