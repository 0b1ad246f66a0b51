"""The *ideal* happens-before detector (Table 2's rightmost columns).

Timestamps at variable granularity (4 B) for *all* variables, kept forever —
neither of the default implementation's approximations.  What remains is the
algorithm's intrinsic limitation, the one the paper's whole argument rests
on: happens-before only reports races that are *unordered in the monitored
interleaving*.  A missing lock whose critical sections happen to be ordered
by other synchronization (Figure 1) is invisible, no matter how much
hardware the detector gets.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.addresses import spanned_chunks
from repro.common.events import OpKind, Trace
from repro.common.stats import StatCounters
from repro.hb.meta import HBChunkMeta, check_epochs
from repro.hb.vectorclock import SyncClocks
from repro.obs.trace import emit_alarm
from repro.reporting import DetectionResult, RaceReportLog


@dataclass
class IdealHappensBeforeDetector:
    """Unbounded, variable-granularity happens-before detection."""

    granularity: int = 4
    name: str = "hb-ideal"

    def core(self) -> "IdealHappensBeforeCore":
        """A fresh incremental core for one pass (the engine entry point)."""
        return IdealHappensBeforeCore(self)


class IdealHappensBeforeCore:
    """Mutable state of one ideal happens-before pass (trace-only)."""

    machine_config = None

    def __init__(self, detector: IdealHappensBeforeDetector):
        self.d = detector
        self.name = detector.name

    def begin(self, trace: Trace, obs=None) -> None:
        """Allocate the pass state (trace-only: no machine)."""
        self.obs = obs
        self._observe = obs is not None and obs.active
        self.log = RaceReportLog(self.d.name)
        self.run_stats = StatCounters()
        self.clocks = SyncClocks(trace.num_threads)
        self.chunks: dict[int, HBChunkMeta] = {}
        # Hot per-chunk counter, batched and flushed in finish().
        self._n_history_updates = 0

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
            clock = clocks.clock(thread_id)
            for chunk_addr in spanned_chunks(op.addr, op.size, self.d.granularity):
                chunk = chunks.get(chunk_addr)
                if chunk is None:
                    chunk = HBChunkMeta()
                    chunks[chunk_addr] = chunk
                conflicts = chunk.check_and_update(thread_id, clock, op.is_write)
                self._n_history_updates += 1
                for detail in conflicts:
                    report = self.log.add(
                        seq=event.seq,
                        thread_id=thread_id,
                        addr=op.addr,
                        size=op.size,
                        site=op.site,
                        is_write=op.is_write,
                        detail=f"{detail} (chunk 0x{chunk_addr:x})",
                    )
                    stats.add("hb.dynamic_reports")
                    if self._observe:
                        self.obs.metrics.add("obs.alarms")
                        if self.obs.emitter.enabled:
                            emit_alarm(self.obs.emitter, report)

    def finish(self) -> DetectionResult:
        """Assemble the detection result after the last event."""
        if self._n_history_updates:
            self.run_stats.add("hb.history_updates", self._n_history_updates)
        return DetectionResult(
            detector=self.d.name, reports=self.log, stats=self.run_stats
        )

    # ------------------------------------------------------------- batch path
    # Vectorized kernel over the columnar trace.  Trace-only (no machine, no
    # tape); the vector clocks and per-chunk histories are the same objects
    # the scalar path uses — only the event dispatch is flattened, and the
    # conflict rule reads the accessor's clock values once per access.

    def begin_batch(self, cols, tape=None, obs=None) -> None:
        """Allocate batch-pass state over a columnar trace (tape unused)."""
        self._metrics = obs.metrics if obs is not None and obs.active else None
        self.log = RaceReportLog(self.d.name)
        self.run_stats = StatCounters()
        self.clocks = SyncClocks(cols.num_threads)
        self.chunks = {}
        self._n_history_updates = 0
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
        n_history_updates = self._n_history_updates
        n_reports = self._n_reports

        for i in range(lo, hi):
            kind, tid, addr, size, sid = rows[i]
            if kind <= 1:  # READ / WRITE
                is_write = kind == 1
                values = threads[tid].values
                first = addr & chunk_mask
                last = (addr + size - 1) & chunk_mask
                chunk_addr = first
                while True:
                    chunk = chunks.get(chunk_addr)
                    if chunk is None:
                        chunk = chunks[chunk_addr] = HBChunkMeta()
                    conflicts = check_epochs(chunk, tid, values, is_write)
                    n_history_updates += 1
                    for detail in conflicts:
                        log_add(
                            seq=i,
                            thread_id=tid,
                            addr=addr,
                            size=size,
                            site=sites[sid],
                            is_write=is_write,
                            detail=f"{detail} (chunk 0x{chunk_addr:x})",
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
            stats.add("hb.dynamic_reports", self._n_reports)
        if self._n_history_updates:
            stats.add("hb.history_updates", self._n_history_updates)
        if self._metrics is not None and self._n_reports:
            self._metrics.add("obs.alarms", self._n_reports)
        return DetectionResult(detector=self.d.name, reports=self.log, stats=stats)
