"""Hybrid lockset + happens-before detection (the paper's future work).

Section 7 names the combination with happens-before — in the style of
RaceTrack / O'Callahan-Choi / MultiRace [36, 21, 25] — as the planned
extension for pruning the false alarms that non-lock synchronization causes
in pure lockset.  This module implements that extension at the ideal
(trace-only) level.

The filter follows RaceTrack's *threadset* idea: alongside each chunk's
exact candidate set, keep the set of epochs of recent accessors.  On every
access, epochs that the accessor's vector clock already *knows* are removed
(those accesses are happens-before ordered with this one, hence not
concurrent).  A lockset violation is reported only when some genuinely
concurrent foreign accessor remains — so accesses ordered by barriers,
fork/join-style phases or any other vector-clock-visible synchronization
stop producing alarms, while the detector retains lockset's insensitivity
to *lock-discipline* races that happened to be scheduled apart.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.addresses import spanned_chunks
from repro.common.events import OpKind, Trace
from repro.common.stats import StatCounters
from repro.core.lstate import NO_OWNER, LState, transition
from repro.hb.vectorclock import SyncClocks
from repro.lockset.exact import ALL_LOCKS
from repro.obs.trace import emit_alarm
from repro.reporting import DetectionResult, RaceReportLog


@dataclass
class HybridChunk:
    """Exact candidate set + LState + concurrent-accessor threadset."""

    candidate: set[int] | None = ALL_LOCKS
    lstate: LState = LState.VIRGIN
    owner: int = NO_OWNER
    accessors: dict[int, int] = field(default_factory=dict)  # thread -> clock

    @property
    def lockset_empty(self) -> bool:
        """True iff the candidate set is empty."""
        return self.candidate is not ALL_LOCKS and not self.candidate


@dataclass
class HybridDetector:
    """Lockset filtered by a happens-before threadset (ideal storage)."""

    granularity: int = 4
    barrier_reset: bool = True
    name: str = "hybrid"

    def core(self) -> "HybridCore":
        """A fresh incremental core for one pass (the engine entry point)."""
        return HybridCore(self)


class HybridCore:
    """Mutable state of one hybrid lockset+HB pass (trace-only)."""

    machine_config = None

    def __init__(self, detector: HybridDetector):
        self.d = detector
        self.name = detector.name

    def begin(self, trace: Trace, obs=None) -> None:
        """Allocate the pass state (trace-only: no machine)."""
        self._obs = obs if obs is not None and obs.active else None
        self.log = RaceReportLog(self.d.name)
        self.stats = StatCounters()
        self.clocks = SyncClocks(trace.num_threads)
        self.held: dict[int, dict[int, int]] = {}
        self.chunks: dict[int, HybridChunk] = {}
        self._arrivals: dict[int, int] = {}

    def step(self, event) -> None:
        """Process one trace event."""
        op = event.op
        thread_id = event.thread_id
        clocks = self.clocks
        if op.kind is OpKind.COMPUTE:
            return
        if op.kind is OpKind.LOCK:
            clocks.acquire(thread_id, op.addr)
            locks = self.held.setdefault(thread_id, {})
            locks[op.addr] = locks.get(op.addr, 0) + 1
        elif op.kind is OpKind.UNLOCK:
            clocks.release(thread_id, op.addr)
            locks = self.held.setdefault(thread_id, {})
            locks[op.addr] -= 1
            if not locks[op.addr]:
                del locks[op.addr]
        elif op.kind is OpKind.BARRIER:
            clocks.barrier_arrive(thread_id, op.addr, op.participants)
            count = self._arrivals.get(op.addr, 0) + 1
            if count < op.participants:
                self._arrivals[op.addr] = count
                return
            self._arrivals[op.addr] = 0
            if self.d.barrier_reset:
                for chunk in self.chunks.values():
                    chunk.candidate = ALL_LOCKS
                    chunk.lstate = LState.VIRGIN
                    chunk.owner = NO_OWNER
        else:
            self._access(event, self.held.setdefault(thread_id, {}))

    def _access(self, event, locks) -> None:
        op = event.op
        thread_id = event.thread_id
        chunks = self.chunks
        stats = self.stats
        clock = self.clocks.clock(thread_id)
        for chunk_addr in spanned_chunks(op.addr, op.size, self.d.granularity):
            chunk = chunks.get(chunk_addr)
            if chunk is None:
                chunk = HybridChunk()
                chunks[chunk_addr] = chunk

            # Prune accessors this access is ordered after; what remains is
            # genuinely concurrent with us.
            stale = [
                tid
                for tid, value in chunk.accessors.items()
                if clock.knows((tid, value))
            ]
            for tid in stale:
                del chunk.accessors[tid]
            concurrent_foreign = any(
                tid != thread_id for tid in chunk.accessors
            )

            outcome = transition(chunk.lstate, chunk.owner, thread_id, op.is_write)
            chunk.lstate = outcome.state
            chunk.owner = outcome.owner
            if outcome.update_candidate:
                if chunk.candidate is ALL_LOCKS:
                    chunk.candidate = set(locks)
                else:
                    chunk.candidate &= locks.keys()
                stats.add("hybrid.candidate_updates")
                if outcome.check_race and chunk.lockset_empty and concurrent_foreign:
                    report = self.log.add(
                        seq=event.seq,
                        thread_id=thread_id,
                        addr=op.addr,
                        size=op.size,
                        site=op.site,
                        is_write=op.is_write,
                        detail=(
                            "lockset empty and concurrent accessor present "
                            f"(chunk 0x{chunk_addr:x})"
                        ),
                    )
                    stats.add("hybrid.dynamic_reports")
                    if self._obs is not None:
                        self._obs.metrics.add("obs.alarms")
                        if self._obs.emitter.enabled:
                            emit_alarm(self._obs.emitter, report)
                elif outcome.check_race and chunk.lockset_empty:
                    stats.add("hybrid.suppressed_by_ordering")

            chunk.accessors[thread_id] = clock.values[thread_id]

    def finish(self) -> DetectionResult:
        """Assemble the detection result after the last event."""
        return DetectionResult(
            detector=self.d.name, reports=self.log, stats=self.stats
        )
