"""FastTrack: epoch-optimized exact happens-before (the modern baseline).

Same verdicts as :class:`~repro.hb.ideal.IdealHappensBeforeDetector`, less
bookkeeping.  The observation (Flanagan & Freund, PLDI 2009; "Dynamic
Data-Race Detection through the Fine-Grained Lens" places it at O(1)
amortized per access vs O(T) for full vector-clock history): most
locations are read by at most one thread between writes, so the per-chunk
read history can usually be a single *epoch* ``(thread, clock)`` instead
of a read map.  The representation is adaptive:

* **exclusive** — one read epoch.  A new read replaces it when the reader
  *knows* the recorded epoch (the replaced read happens-before the new
  one, so by clock transitivity any later writer that knows the new epoch
  also knows the replaced one — nothing is lost);
* **shared** — a per-thread read map, entered the first time two reads are
  genuinely concurrent, collapsed back to exclusive by the next write.

Deliberately *not* implemented: FastTrack's same-epoch read/write fast
paths (skip the check when the access epoch equals the recorded one).
They preserve "does this trace race?" but change *which events* report —
and this library pins FastTrack ≡ ideal-HB at (event, site) granularity
in the conformance harness, a stronger and more useful equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.addresses import spanned_chunks
from repro.common.events import OpKind, Trace
from repro.common.stats import StatCounters
from repro.hb.vectorclock import SyncClocks
from repro.obs.trace import emit_alarm
from repro.reporting import DetectionResult, RaceReportLog

#: Shared "no conflicts" result for the race-free hot path.
_NO_CONFLICTS: list[str] = []


class FTChunk:
    """Access history of one chunk in FastTrack's adaptive representation.

    ``read_epoch`` is the exclusive-mode read (or None); ``read_vector``
    is the shared-mode per-thread read map (or None).  At most one of the
    two is populated.
    """

    __slots__ = ("last_write", "read_epoch", "read_vector")

    def __init__(self):
        self.last_write: tuple[int, int] | None = None
        self.read_epoch: tuple[int, int] | None = None
        self.read_vector: dict[int, int] | None = None


@dataclass
class FastTrackDetector:
    """Epoch-optimized exact happens-before detection."""

    granularity: int = 4
    name: str = "fasttrack"

    def core(self) -> "FastTrackCore":
        """A fresh incremental core for one pass (the engine entry point)."""
        return FastTrackCore(self)


class FastTrackCore:
    """Mutable state of one FastTrack pass (trace-only)."""

    machine_config = None

    def __init__(self, detector: FastTrackDetector):
        self.d = detector
        self.name = detector.name

    # ------------------------------------------------------------ chunk logic

    def _check_read(self, chunk: FTChunk, tid: int, values: list[int]) -> list[str]:
        """Race-check one read against the chunk history, then record it.

        ``values`` is the reader's vector clock: a recorded epoch ``(u, c)``
        happens-before the read iff ``c <= values[u]``.
        """
        conflicts = _NO_CONFLICTS
        write = chunk.last_write
        if write is not None:
            writer, value = write
            if writer != tid and value > values[writer]:
                conflicts = [f"unordered with write by t{writer}@{value}"]
        vector = chunk.read_vector
        if vector is not None:
            vector[tid] = values[tid]
        else:
            epoch = chunk.read_epoch
            if epoch is None or epoch[0] == tid or epoch[1] <= values[epoch[0]]:
                # The recorded read (if any) happens-before this one: the
                # new epoch subsumes it and exclusive mode is preserved.
                chunk.read_epoch = (tid, values[tid])
            else:
                # Two genuinely concurrent reads: inflate to a read map.
                chunk.read_vector = {epoch[0]: epoch[1], tid: values[tid]}
                chunk.read_epoch = None
                self._n_read_inflations += 1
        return conflicts

    def _check_write(self, chunk: FTChunk, tid: int, values: list[int]) -> list[str]:
        """Race-check one write against the chunk history, then record it."""
        conflicts = None
        write = chunk.last_write
        if write is not None:
            writer, value = write
            if writer != tid and value > values[writer]:
                conflicts = [f"unordered with write by t{writer}@{value}"]
        vector = chunk.read_vector
        if vector is not None:
            for reader, value in vector.items():
                if reader != tid and value > values[reader]:
                    if conflicts is None:
                        conflicts = []
                    conflicts.append(f"unordered with read by t{reader}@{value}")
            chunk.read_vector = None
        else:
            epoch = chunk.read_epoch
            if epoch is not None:
                reader, value = epoch
                if reader != tid and value > values[reader]:
                    if conflicts is None:
                        conflicts = []
                    conflicts.append(f"unordered with read by t{reader}@{value}")
                chunk.read_epoch = None
        chunk.last_write = (tid, values[tid])
        return conflicts if conflicts is not None else _NO_CONFLICTS

    # ---------------------------------------------------------- scalar path

    def begin(self, trace: Trace, obs=None) -> None:
        """Allocate the pass state (trace-only: no machine)."""
        self.obs = obs
        self._observe = obs is not None and obs.active
        self.log = RaceReportLog(self.d.name)
        self.run_stats = StatCounters()
        self.clocks = SyncClocks(trace.num_threads)
        self.chunks: dict[int, FTChunk] = {}
        # Hot per-chunk counters, batched and flushed in finish().
        self._n_history_updates = 0
        self._n_read_inflations = 0

    def step(self, event) -> None:
        """Process one trace event."""
        op = event.op
        thread_id = event.thread_id
        clocks = self.clocks
        if op.kind is OpKind.COMPUTE:
            return
        if op.kind is OpKind.LOCK:
            clocks.acquire(thread_id, op.addr)
        elif op.kind is OpKind.UNLOCK:
            clocks.release(thread_id, op.addr)
        elif op.kind is OpKind.BARRIER:
            clocks.barrier_arrive(thread_id, op.addr, op.participants)
        else:
            chunks = self.chunks
            stats = self.run_stats
            values = clocks.clock(thread_id).values
            is_write = op.is_write
            check = self._check_write if is_write else self._check_read
            for chunk_addr in spanned_chunks(op.addr, op.size, self.d.granularity):
                chunk = chunks.get(chunk_addr)
                if chunk is None:
                    chunk = FTChunk()
                    chunks[chunk_addr] = chunk
                conflicts = check(chunk, thread_id, values)
                self._n_history_updates += 1
                for detail in conflicts:
                    report = self.log.add(
                        seq=event.seq,
                        thread_id=thread_id,
                        addr=op.addr,
                        size=op.size,
                        site=op.site,
                        is_write=is_write,
                        detail=f"{detail} (epoch, chunk 0x{chunk_addr:x})",
                    )
                    stats.add("fasttrack.dynamic_reports")
                    if self._observe:
                        self.obs.metrics.add("obs.alarms")
                        if self.obs.emitter.enabled:
                            emit_alarm(self.obs.emitter, report)

    def finish(self) -> DetectionResult:
        """Assemble the detection result after the last event."""
        stats = self.run_stats
        if self._n_history_updates:
            stats.add("fasttrack.history_updates", self._n_history_updates)
        if self._n_read_inflations:
            stats.add("fasttrack.read_inflations", self._n_read_inflations)
        return DetectionResult(detector=self.d.name, reports=self.log, stats=stats)

    # ------------------------------------------------------------- batch path
    # Vectorized kernel over the columnar trace.  Trace-only (no machine, no
    # tape); the clocks and chunk histories are the same objects the scalar
    # path uses — only the event dispatch is flattened.

    def begin_batch(self, cols, tape=None, obs=None) -> None:
        """Allocate batch-pass state over a columnar trace (tape unused)."""
        self._metrics = obs.metrics if obs is not None and obs.active else None
        self.log = RaceReportLog(self.d.name)
        self.run_stats = StatCounters()
        self.clocks = SyncClocks(cols.num_threads)
        self.chunks = {}
        self._n_history_updates = 0
        self._n_read_inflations = 0
        self._n_reports = 0

    def step_batch(self, cols, lo: int, hi: int) -> None:
        """Process events ``[lo, hi)`` of ``cols``."""
        rows = cols.rows()
        sites = cols.sites
        participants = cols.participants
        granularity = self.d.granularity
        chunk_mask = ~(granularity - 1)
        clocks = self.clocks
        threads = clocks.threads
        acquire = clocks.acquire
        release = clocks.release
        barrier_arrive = clocks.barrier_arrive
        chunks = self.chunks
        log_add = self.log.add
        check_read = self._check_read
        check_write = self._check_write
        n_history_updates = self._n_history_updates
        n_reports = self._n_reports

        for i in range(lo, hi):
            kind, tid, addr, size, sid = rows[i]
            if kind <= 1:  # READ / WRITE
                is_write = kind == 1
                check = check_write if is_write else check_read
                values = threads[tid].values
                first = addr & chunk_mask
                last = (addr + size - 1) & chunk_mask
                chunk_addr = first
                while True:
                    chunk = chunks.get(chunk_addr)
                    if chunk is None:
                        chunk = chunks[chunk_addr] = FTChunk()
                    conflicts = check(chunk, tid, values)
                    n_history_updates += 1
                    for detail in conflicts:
                        log_add(
                            seq=i,
                            thread_id=tid,
                            addr=addr,
                            size=size,
                            site=sites[sid],
                            is_write=is_write,
                            detail=f"{detail} (epoch, chunk 0x{chunk_addr:x})",
                        )
                        n_reports += 1
                    if chunk_addr == last:
                        break
                    chunk_addr += granularity
            elif kind == 2:  # LOCK
                acquire(tid, addr)
            elif kind == 3:  # UNLOCK
                release(tid, addr)
            elif kind == 4:  # BARRIER
                barrier_arrive(tid, addr, participants[i])
            # kind == 5 (COMPUTE): no effect.

        self._n_history_updates = n_history_updates
        self._n_reports = n_reports

    def finish_batch(self) -> DetectionResult:
        """Assemble the detection result after the last batch."""
        stats = self.run_stats
        if self._n_reports:
            stats.add("fasttrack.dynamic_reports", self._n_reports)
        if self._n_history_updates:
            stats.add("fasttrack.history_updates", self._n_history_updates)
        if self._n_read_inflations:
            stats.add("fasttrack.read_inflations", self._n_read_inflations)
        if self._metrics is not None and self._n_reports:
            self._metrics.add("obs.alarms", self._n_reports)
        return DetectionResult(detector=self.d.name, reports=self.log, stats=stats)
