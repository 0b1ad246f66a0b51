"""The *ideal* lockset detector (Section 4's comparison point).

This is the lockset algorithm the way a software tool like Eraser implements
it, with none of HARD's three hardware approximations:

1. candidate sets at *variable* granularity (4 B chunks) instead of cache
   lines — no false sharing;
2. *exact* set representation instead of a Bloom filter — no collisions;
3. candidate sets for *all* data, forever — no loss on L2 displacement.

It consumes the trace directly (no machine), so it reports what the lockset
discipline itself can and cannot find; comparing it against
:class:`~repro.core.detector.HardDetector` isolates the cost of HARD's
approximations (Table 2's "ideal" columns, and the sweeps of Section 5.2).

The barrier false-positive pruning of Section 3.5 applies here too: on
barrier exit every candidate set is reset to "all locks".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.addresses import spanned_chunks
from repro.common.errors import DetectorError
from repro.common.events import OpKind, Trace
from repro.common.stats import StatCounters
from repro.core.lstate import NO_OWNER, LState, transition
from repro.reporting import DetectionResult, RaceReportLog

#: Sentinel meaning "all possible locks" (the initial candidate set).
ALL_LOCKS = None


@dataclass
class ExactChunk:
    """Per-variable state: exact candidate set, LState, owner thread.

    ``candidate`` is either :data:`ALL_LOCKS` (None) or a set of lock
    addresses.  The distinction matters because the universe of locks is
    unbounded: a fresh variable is protected by *any* lock.
    """

    candidate: set[int] | None = ALL_LOCKS
    lstate: LState = LState.VIRGIN
    owner: int = NO_OWNER

    def intersect(self, held: dict[int, int]) -> bool:
        """``C(v) ∩= L(t)``; returns True if the set changed."""
        if self.candidate is ALL_LOCKS:
            self.candidate = set(held)
            return True
        before = len(self.candidate)
        self.candidate &= held.keys()
        return len(self.candidate) != before

    @property
    def is_empty(self) -> bool:
        """True iff the candidate set is empty (a potential race)."""
        return self.candidate is not ALL_LOCKS and not self.candidate


@dataclass
class IdealLocksetDetector:
    """Exact, unbounded lockset detection at variable granularity."""

    granularity: int = 4
    barrier_reset: bool = True
    name: str = "lockset-ideal"

    def core(self) -> "IdealLocksetCore":
        """A fresh incremental core for one pass (the engine entry point)."""
        return IdealLocksetCore(self)


class IdealLocksetCore:
    """Mutable state of one exact-lockset pass (trace-only)."""

    machine_config = None

    def __init__(self, detector: IdealLocksetDetector):
        self.d = detector
        self.name = detector.name

    def begin(self, trace: Trace, obs=None) -> None:
        """Allocate the pass state (trace-only: no machine)."""
        self._obs = obs if obs is not None and obs.active else None
        self.log = RaceReportLog(self.d.name)
        self.run_stats = StatCounters()
        self.held: dict[int, dict[int, int]] = {}  # thread -> lock -> depth
        self.chunks: dict[int, ExactChunk] = {}
        self._arrivals: dict[int, int] = {}
        # Hot per-chunk counter, batched and flushed in finish().
        self._n_candidate_updates = 0

    def step(self, event) -> None:
        """Process one trace event."""
        op = event.op
        thread_id = event.thread_id
        stats = self.run_stats
        if op.kind is OpKind.COMPUTE:
            return
        if op.kind is OpKind.LOCK:
            locks = self.held.setdefault(thread_id, {})
            locks[op.addr] = locks.get(op.addr, 0) + 1
            stats.add("lockset.acquires")
        elif op.kind is OpKind.UNLOCK:
            locks = self.held.setdefault(thread_id, {})
            if locks.get(op.addr, 0) <= 0:
                raise DetectorError(
                    f"t{thread_id} released lock 0x{op.addr:x} it never took"
                )
            locks[op.addr] -= 1
            if not locks[op.addr]:
                del locks[op.addr]
            stats.add("lockset.releases")
        elif op.kind is OpKind.BARRIER:
            count = self._arrivals.get(op.addr, 0) + 1
            if count < op.participants:
                self._arrivals[op.addr] = count
                return
            self._arrivals[op.addr] = 0
            stats.add("lockset.barrier_episodes")
            if self.d.barrier_reset:
                # Discard pre-barrier access and lock history
                # (Section 3.5; see LineMeta.reset_for_barrier for why
                # the LState must be forgotten too).
                for chunk in self.chunks.values():
                    chunk.candidate = ALL_LOCKS
                    chunk.lstate = LState.VIRGIN
                    chunk.owner = NO_OWNER
        else:
            self._access(event, self.held.setdefault(thread_id, {}))

    def _access(self, event, locks) -> None:
        op = event.op
        chunks = self.chunks
        stats = self.run_stats
        for chunk_addr in spanned_chunks(op.addr, op.size, self.d.granularity):
            chunk = chunks.get(chunk_addr)
            if chunk is None:
                chunk = ExactChunk()
                chunks[chunk_addr] = chunk
            outcome = transition(chunk.lstate, chunk.owner, event.thread_id, op.is_write)
            chunk.lstate = outcome.state
            chunk.owner = outcome.owner
            if not outcome.update_candidate:
                continue
            refined = chunk.intersect(locks)
            self._n_candidate_updates += 1
            obs = self._obs
            if obs is not None and refined:
                obs.metrics.add("obs.lockset_refinements")
                obs.metrics.observe(
                    "lockset.candidate_size", len(chunk.candidate or ())
                )
            if outcome.check_race and chunk.is_empty:
                self.log.add(
                    seq=event.seq,
                    thread_id=event.thread_id,
                    addr=op.addr,
                    size=op.size,
                    site=op.site,
                    is_write=op.is_write,
                    detail=f"candidate set empty (exact, chunk 0x{chunk_addr:x})",
                )
                stats.add("lockset.dynamic_reports")

    def finish(self) -> DetectionResult:
        """Assemble the detection result after the last event."""
        if self._n_candidate_updates:
            self.run_stats.add("lockset.candidate_updates", self._n_candidate_updates)
        return DetectionResult(
            detector=self.d.name, reports=self.log, stats=self.run_stats
        )

    # ------------------------------------------------------------- batch path
    # Vectorized kernel over the columnar trace.  Trace-only (no machine, no
    # tape); chunk records are flat ``[candidate, state, owner]`` triples with
    # the Figure 2 transition inlined, int-coded 0=V/1=E/2=S/3=SM.  A
    # candidate set is an int over the trace's lock bits (``held_locks``),
    # with -1 standing for :data:`ALL_LOCKS`, so intersection is ``&``.

    def begin_batch(self, cols, tape=None, obs=None) -> None:
        """Allocate batch-pass state over a columnar trace (tape unused)."""
        self._metrics = obs.metrics if obs is not None and obs.active else None
        self.log = RaceReportLog(self.d.name)
        self.run_stats = StatCounters()
        self._held = cols.held_locks()
        self._flat_chunks: dict[int, list] = {}
        self._arrivals = {}
        self._n_candidate_updates = 0
        self._n_acquires = 0
        self._n_releases = 0
        self._n_episodes = 0
        self._n_reports = 0
        # Refinements (a candidate set that shrank), by the refined set's
        # size: the ``lockset.candidate_size`` observations of ``step``.
        self._refined_sizes: dict[int, int] = {}

    def step_batch(self, cols, lo: int, hi: int) -> None:
        """Process events ``[lo, hi)`` of ``cols``."""
        rows = cols.rows()
        held = self._held
        sites = cols.sites
        participants = cols.participants
        granularity = self.d.granularity
        barrier_reset = self.d.barrier_reset
        chunk_mask = ~(granularity - 1)
        chunks = self._flat_chunks
        arrivals = self._arrivals
        log_add = self.log.add
        n_candidate_updates = self._n_candidate_updates
        n_reports = self._n_reports
        refined_sizes = self._refined_sizes

        for i in range(lo, hi):
            kind, tid, addr, size, sid = rows[i]
            if kind <= 1:  # READ / WRITE
                is_write = kind == 1
                locks = held[i]
                first = addr & chunk_mask
                last = (addr + size - 1) & chunk_mask
                chunk_addr = first
                while True:
                    chunk = chunks.get(chunk_addr)
                    if chunk is None:
                        chunk = chunks[chunk_addr] = [-1, 0, NO_OWNER]
                    state = chunk[1]
                    # Figure 2, inline (0=V, 1=E, 2=S, 3=SM).
                    if state == 0:
                        chunk[1] = 1
                        chunk[2] = tid
                    elif state == 1 and tid == chunk[2]:
                        pass
                    else:
                        check = state == 3 or is_write
                        chunk[1] = 3 if check else 2
                        candidate = chunk[0]
                        narrowed = candidate & locks
                        if narrowed != candidate:
                            candidate = chunk[0] = narrowed
                            members = narrowed.bit_count()
                            refined_sizes[members] = refined_sizes.get(members, 0) + 1
                        n_candidate_updates += 1
                        if check and not candidate:
                            log_add(
                                seq=i,
                                thread_id=tid,
                                addr=addr,
                                size=size,
                                site=sites[sid],
                                is_write=is_write,
                                detail="candidate set empty "
                                f"(exact, chunk 0x{chunk_addr:x})",
                            )
                            n_reports += 1
                    if chunk_addr == last:
                        break
                    chunk_addr += granularity
            elif kind == 2:  # LOCK
                self._n_acquires += 1
            elif kind == 3:  # UNLOCK
                self._n_releases += 1
            elif kind == 4:  # BARRIER
                count = arrivals.get(addr, 0) + 1
                if count < participants[i]:
                    arrivals[addr] = count
                else:
                    arrivals[addr] = 0
                    self._n_episodes += 1
                    if barrier_reset:
                        # A reset chunk is indistinguishable from a fresh one.
                        chunks.clear()
            # kind == 5 (COMPUTE): no effect.

        self._n_candidate_updates = n_candidate_updates
        self._n_reports = n_reports

    def finish_batch(self) -> DetectionResult:
        """Assemble the detection result after the last batch."""
        stats = self.run_stats
        if self._n_acquires:
            stats.add("lockset.acquires", self._n_acquires)
        if self._n_releases:
            stats.add("lockset.releases", self._n_releases)
        if self._n_episodes:
            stats.add("lockset.barrier_episodes", self._n_episodes)
        if self._n_reports:
            stats.add("lockset.dynamic_reports", self._n_reports)
        if self._n_candidate_updates:
            stats.add("lockset.candidate_updates", self._n_candidate_updates)
        metrics = self._metrics
        if metrics is not None:
            refinements = sum(self._refined_sizes.values())
            if refinements:
                metrics.add("obs.lockset_refinements", refinements)
            metrics.observe_counts("lockset.candidate_size", self._refined_sizes)
        return DetectionResult(detector=self.d.name, reports=self.log, stats=stats)
