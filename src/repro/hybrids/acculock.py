"""AccuLock: one epoch + one lockset per location (hybrid detection).

AccuLock (Xie & Xue, CGO 2011) keeps FastTrack-shaped access history —
a last-write record and per-thread last-read records, cleared on write —
but stamps every record with the *lockset held at the access* and orders
events with weak (barrier-only) happens-before clocks
(:class:`~repro.hybrids.clocks.WeakClocks`).  An access conflicts with a
recorded one iff all three hold:

1. different thread,
2. the recorded epoch is *not* weak-happens-before the access
   (no barrier episode separates them), and
3. the two locksets are disjoint.

Condition 3 is where the hybrid beats pure lockset: an ordered hand-off
through a lock keeps the critical sections lock-*sharing*, so no alarm —
but unlike pure happens-before the lock edge itself never orders the
accesses, so the verdict does not depend on which schedule was monitored.

Per access this is O(T) worst case (the read map) with O(1) expected,
plus one lockset intersection on epoch-concurrent pairs only — the
Fine-Grained Lens taxonomy's middle ground between FastTrack's O(1)
epochs and Eraser's per-access intersections.  The intersection is
O(|L|) on the scalar walk's frozensets and one int AND on the batch
walk's lock bitmasks.

The conformance harness pins its place in the lattice:
exact-HB ⊆ acculock ⊆ multilock-hb ⊆ strict-lockset.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.addresses import spanned_chunks
from repro.common.errors import DetectorError
from repro.common.events import OpKind, Trace
from repro.common.stats import StatCounters
from repro.hybrids.clocks import WeakClocks
from repro.obs.trace import emit_alarm
from repro.reporting import DetectionResult, RaceReportLog, run_deprecated

#: Shared "no conflicts" result for the race-free hot path.
_NO_CONFLICTS: list[str] = []


class AccuChunk:
    """Access history of one chunk: last write + per-thread reads, each
    stamped ``(epoch value, lockset)``.

    The scalar walk stamps a ``frozenset`` of lock words, the batch walk the
    trace's int lock bitmask (``ColumnarTrace.held_locks``).
    """

    __slots__ = ("write", "reads")

    def __init__(self):
        #: ``(thread, clock value, lockset)`` of the last write, or None.
        self.write: tuple[int, int, frozenset | int] | None = None
        #: thread -> ``(clock value, lockset)`` of its last read since the
        #: last write (cleared on write, mirroring HBChunkMeta/FastTrack).
        self.reads: dict[int, tuple[int, frozenset | int]] = {}


@dataclass
class AccuLockDetector:
    """Epoch + single-lockset hybrid detection (AccuLock)."""

    granularity: int = 4
    barrier_reset: bool = True
    name: str = "acculock"
    stats: StatCounters = field(default_factory=StatCounters)

    def core(self) -> "AccuLockCore":
        """A fresh incremental core for one pass (the engine entry point)."""
        return AccuLockCore(self)

    def run(self, trace: Trace, obs=None) -> DetectionResult:
        """Consume the trace; report lock-disjoint epoch-concurrent pairs.

        ``obs`` is an optional :class:`repro.obs.Observability`; alarms are
        recorded and emitted when it is active.
        """
        return run_deprecated(self, trace, obs=obs)


class AccuLockCore:
    """Mutable state of one AccuLock pass (trace-only)."""

    machine_config = None

    def __init__(self, detector: AccuLockDetector):
        self.d = detector
        self.name = detector.name

    # ------------------------------------------------------------ chunk logic

    def _check(self, chunk: AccuChunk, tid: int, clock, held, is_write: bool):
        """Race-check one access against the chunk history, then record it.

        ``held`` is the accessor's lock->depth map; the conflict test is
        lockset *disjointness* against each epoch-concurrent record.
        """
        conflicts = None
        knows = clock.knows
        write = chunk.write
        if (
            write is not None
            and write[0] != tid
            and not knows((write[0], write[1]))
            and not (write[2] & held.keys())
        ):
            conflicts = [
                f"lock-disjoint with write by t{write[0]}@{write[1]}"
            ]
        if is_write:
            reads = chunk.reads
            if reads:
                for reader, (value, lockset) in reads.items():
                    if (
                        reader != tid
                        and not knows((reader, value))
                        and not (lockset & held.keys())
                    ):
                        if conflicts is None:
                            conflicts = []
                        conflicts.append(
                            f"lock-disjoint with read by t{reader}@{value}"
                        )
                reads.clear()
            chunk.write = (tid, clock.values[tid], frozenset(held))
        else:
            chunk.reads[tid] = (clock.values[tid], frozenset(held))
        return conflicts if conflicts is not None else _NO_CONFLICTS

    # ---------------------------------------------------------- scalar path

    def begin(self, trace: Trace, obs=None, machine=None) -> None:
        """Allocate the pass state; ``machine`` is ignored (trace-only)."""
        self.obs = obs
        self._observe = obs is not None and obs.active
        self.log = RaceReportLog(self.d.name)
        self.run_stats = StatCounters()
        self.clocks = WeakClocks(trace.num_threads)
        self.held: dict[int, dict[int, int]] = {}  # thread -> lock -> depth
        self.chunks: dict[int, AccuChunk] = {}
        self._arrivals: dict[int, int] = {}
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
                    chunk = AccuChunk()
                    chunks[chunk_addr] = chunk
                conflicts = self._check(chunk, thread_id, clock, held, is_write)
                self._n_history_updates += 1
                for detail in conflicts:
                    report = self.log.add(
                        seq=event.seq,
                        thread_id=thread_id,
                        addr=op.addr,
                        size=op.size,
                        site=op.site,
                        is_write=is_write,
                        detail=f"{detail} (chunk 0x{chunk_addr:x})",
                    )
                    stats.add("acculock.dynamic_reports")
                    if self._observe:
                        self.obs.metrics.add("obs.alarms")
                        if self.obs.emitter.enabled:
                            emit_alarm(self.obs.emitter, report)

    def _barrier(self, thread_id: int, barrier_id: int, participants: int) -> None:
        if self.clocks.barrier_arrive(thread_id, barrier_id, participants):
            self._n_episodes += 1
            if self.d.barrier_reset:
                # Pre-barrier records are weak-known to every thread from
                # here on and can never conflict again; dropping them is a
                # pure memory optimization (reports are unchanged).
                self.chunks.clear()

    def finish(self) -> DetectionResult:
        """Assemble the detection result after the last event."""
        stats = self.run_stats
        if self._n_acquires:
            stats.add("acculock.acquires", self._n_acquires)
        if self._n_releases:
            stats.add("acculock.releases", self._n_releases)
        if self._n_episodes:
            stats.add("acculock.barrier_episodes", self._n_episodes)
        if self._n_history_updates:
            stats.add("acculock.history_updates", self._n_history_updates)
        return DetectionResult(
            detector=self.d.name, reports=self.log, stats=stats
        )

    # ------------------------------------------------------------- batch path
    # Vectorized kernel over the columnar trace.  Trace-only (no machine, no
    # tape); the weak clocks and chunk histories are the scalar path's, with
    # records stamped by the trace's held-lock bitmasks.  The conflict rule
    # is inlined: as a helper call it timed about 1.4x slower.

    def begin_batch(self, cols, tape=None) -> None:
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
                        chunk = chunks[chunk_addr] = AccuChunk()
                    # _check on ints: a record conflicts when foreign, not
                    # weak-known and lock-disjoint.
                    conflicts = None
                    write = chunk.write
                    if write is not None:
                        writer, value, lockset = write
                        if (
                            writer != tid
                            and value > values[writer]
                            and not (lockset & mask)
                        ):
                            conflicts = [f"write by t{writer}@{value}"]
                    if is_write:
                        reads = chunk.reads
                        if reads:
                            for reader, (value, lockset) in reads.items():
                                if (
                                    reader != tid
                                    and value > values[reader]
                                    and not (lockset & mask)
                                ):
                                    if conflicts is None:
                                        conflicts = []
                                    conflicts.append(f"read by t{reader}@{value}")
                            reads.clear()
                        chunk.write = (tid, values[tid], mask)
                    else:
                        chunk.reads[tid] = (values[tid], mask)
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
            stats.add("acculock.acquires", self._n_acquires)
        if self._n_releases:
            stats.add("acculock.releases", self._n_releases)
        if self._n_episodes:
            stats.add("acculock.barrier_episodes", self._n_episodes)
        if self._n_reports:
            stats.add("acculock.dynamic_reports", self._n_reports)
        if self._n_history_updates:
            stats.add("acculock.history_updates", self._n_history_updates)
        return DetectionResult(detector=self.d.name, reports=self.log, stats=stats)
