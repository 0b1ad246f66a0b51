"""Eraser-style *software* lockset detection, with its cost model.

The paper's motivation (Sections 1 and 2.1): software implementations of
lockset instrument every shared load/store — a call into the monitor, a
candidate-set table lookup, a set intersection in software — and slow
applications down 10–30×.  HARD exists to eliminate exactly that cost.

This detector runs the same exact lockset algorithm as
:class:`~repro.lockset.exact.IdealLocksetDetector` (it *is* the software
tool: variable granularity, exact sets, unbounded tables) but executes the
program through the machine and charges per-event instrumentation costs,
so the library can regenerate the paper's software-vs-hardware overhead
comparison end to end.

Default costs are Eraser-calibrated figures: every monitored access traps
into the monitor (call, register save, shadow-table hash, dependent loads,
state-machine branches — several hundred cycles), set intersection runs in
software when the candidate set must be updated, and the lock-set hash
table is maintained on every acquire/release.  With these constants the
slowdown over our simulated workloads lands in Eraser's reported 10-30x
band (Section 1).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.addresses import spanned_chunks
from repro.common.config import MachineConfig
from repro.common.errors import DetectorError
from repro.common.events import OpKind, Trace
from repro.common.stats import StatCounters
from repro.core.detector import LOCK_WORD_BYTES
from repro.core.lstate import NO_OWNER, LState, transition
from repro.lockset.exact import ALL_LOCKS, ExactChunk
from repro.reporting import DetectionResult, RaceReportLog
from repro.sim.machine import Machine


@dataclass(frozen=True)
class SoftwareCosts:
    """Per-event instrumentation cycle costs of a software lockset tool."""

    access_check: int = 400
    set_intersection: int = 150
    lock_maintenance: int = 250
    report: int = 600


class SoftwareLocksetDetector:
    """The Eraser-style tool: exact lockset + software instrumentation."""

    def __init__(
        self,
        machine_config: MachineConfig | None = None,
        *,
        granularity: int = 4,
        barrier_reset: bool = True,
        costs: SoftwareCosts | None = None,
        name: str = "lockset-software",
    ):
        self.machine_config = machine_config or MachineConfig()
        self.granularity = granularity
        self.barrier_reset = barrier_reset
        self.costs = costs or SoftwareCosts()
        self.name = name

    def core(self) -> "SoftwareLocksetCore":
        """A fresh incremental core for one pass (the engine entry point)."""
        return SoftwareLocksetCore(self)

    @staticmethod
    def slowdown(result: DetectionResult) -> float:
        """Execution-time multiplier vs the uninstrumented run (e.g. 12.0x)."""
        base = result.baseline_cycles
        return result.cycles / base if base > 0 else 1.0


class SoftwareLocksetCore:
    """Mutable state of one software-lockset pass over one trace."""

    def __init__(self, detector: SoftwareLocksetDetector):
        self.d = detector
        self.name = detector.name
        self.machine_config = detector.machine_config

    def begin(self, trace: Trace, obs=None) -> None:
        """Allocate the pass state and a fresh machine."""
        detector = self.d
        self.machine = Machine(detector.machine_config)
        self.stats = StatCounters()
        self.log = RaceReportLog(detector.name)
        self.extra_cycles = 0
        self.held: dict[int, dict[int, int]] = {}
        self.chunks: dict[int, ExactChunk] = {}
        self._arrivals: dict[int, int] = {}

    def step(self, event) -> None:
        """Process one trace event."""
        op = event.op
        thread_id = event.thread_id
        machine = self.machine
        costs = self.d.costs
        core = machine.core_for_thread(thread_id)
        if op.kind is OpKind.COMPUTE:
            machine.charge(op.cycles, "compute")
        elif op.kind in (OpKind.LOCK, OpKind.UNLOCK):
            machine.access(core, op.addr, LOCK_WORD_BYTES, True)
            locks = self.held.setdefault(thread_id, {})
            if op.kind is OpKind.LOCK:
                locks[op.addr] = locks.get(op.addr, 0) + 1
            else:
                if locks.get(op.addr, 0) <= 0:
                    raise DetectorError(
                        f"t{thread_id} released lock 0x{op.addr:x} it never took"
                    )
                locks[op.addr] -= 1
                if not locks[op.addr]:
                    del locks[op.addr]
            machine.charge(costs.lock_maintenance, "sw.lock_maintenance")
            self.extra_cycles += costs.lock_maintenance
            self.stats.add("sw.sync_events")
        elif op.kind is OpKind.BARRIER:
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
            machine.access(core, op.addr, op.size, op.is_write)
            locks = self.held.setdefault(thread_id, {})
            chunks = self.chunks
            stats = self.stats
            for chunk_addr in spanned_chunks(op.addr, op.size, self.d.granularity):
                machine.charge(costs.access_check, "sw.access_check")
                self.extra_cycles += costs.access_check
                stats.add("sw.monitored_accesses")
                chunk = chunks.get(chunk_addr)
                if chunk is None:
                    chunk = ExactChunk()
                    chunks[chunk_addr] = chunk
                outcome = transition(
                    chunk.lstate, chunk.owner, thread_id, op.is_write
                )
                chunk.lstate = outcome.state
                chunk.owner = outcome.owner
                if not outcome.update_candidate:
                    continue
                chunk.intersect(locks)
                machine.charge(costs.set_intersection, "sw.intersection")
                self.extra_cycles += costs.set_intersection
                if outcome.check_race and chunk.is_empty:
                    machine.charge(costs.report, "sw.report")
                    self.extra_cycles += costs.report
                    self.log.add(
                        seq=event.seq,
                        thread_id=thread_id,
                        addr=op.addr,
                        size=op.size,
                        site=op.site,
                        is_write=op.is_write,
                        detail=f"candidate set empty (sw, 0x{chunk_addr:x})",
                    )

    def finish(self) -> DetectionResult:
        """Assemble the detection result after the last event."""
        self.stats.merge(self.machine.stats)
        self.stats.merge(self.machine.bus.stats)
        return DetectionResult(
            detector=self.d.name,
            reports=self.log,
            stats=self.stats,
            cycles=self.machine.cycles,
            detector_extra_cycles=self.extra_cycles,
        )

    # ------------------------------------------------------------- batch path
    # Vectorized kernel over the columnar trace + machine tape.  The software
    # tool keeps no cache-resident metadata (unbounded shadow tables), so no
    # hook replay is needed; chunk records are flat ``[candidate, state,
    # owner]`` triples with the Figure 2 transition inlined, int-coded
    # 0=V/1=E/2=S/3=SM.  A candidate set is an int over the trace's lock
    # bits (``held_locks``), with -1 standing for ALL_LOCKS.

    def begin_batch(self, cols, tape, obs=None) -> None:
        """Allocate batch-pass state over a columnar trace + machine tape."""
        detector = self.d
        self._tape = tape
        self.stats = StatCounters()
        self.log = RaceReportLog(detector.name)
        self._held = cols.held_locks()
        self._flat_chunks: dict[int, list] = {}
        self._arrivals = {}
        self._n_sync = 0
        self._n_checks = 0
        self._n_intersections = 0
        self._n_reports = 0

    def step_batch(self, cols, lo: int, hi: int) -> None:
        """Process events ``[lo, hi)`` of ``cols`` against the tape."""
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
        n_sync = self._n_sync
        n_checks = self._n_checks
        n_intersections = self._n_intersections
        n_reports = self._n_reports

        for i in range(lo, hi):
            kind, tid, addr, size, sid = rows[i]
            if kind <= 1:  # READ / WRITE
                is_write = kind == 1
                locks = held[i]
                first = addr & chunk_mask
                last = (addr + size - 1) & chunk_mask
                chunk_addr = first
                while True:
                    n_checks += 1
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
                    elif state != 3 and not is_write:
                        chunk[1] = 2
                        chunk[0] &= locks
                        n_intersections += 1
                    else:
                        chunk[1] = 3
                        candidate = chunk[0] = chunk[0] & locks
                        n_intersections += 1
                        if not candidate:
                            log_add(
                                seq=i,
                                thread_id=tid,
                                addr=addr,
                                size=size,
                                site=sites[sid],
                                is_write=is_write,
                                detail="candidate set empty "
                                f"(sw, 0x{chunk_addr:x})",
                            )
                            n_reports += 1
                    if chunk_addr == last:
                        break
                    chunk_addr += granularity
            elif kind <= 3:  # LOCK / UNLOCK
                n_sync += 1
            elif kind == 4:  # BARRIER
                count = arrivals.get(addr, 0) + 1
                if count < participants[i]:
                    arrivals[addr] = count
                else:
                    arrivals[addr] = 0
                    if barrier_reset:
                        # A reset chunk is indistinguishable from a fresh one.
                        chunks.clear()
            # kind == 5 (COMPUTE): cycles already on the tape.

        self._n_sync = n_sync
        self._n_checks = n_checks
        self._n_intersections = n_intersections
        self._n_reports = n_reports

    def finish_batch(self) -> DetectionResult:
        """Assemble the result: private charges over the shared tape totals."""
        tape = self._tape
        costs = self.d.costs
        stats = self.stats
        extra = 0
        if self._n_sync:
            stats.add("sw.sync_events", self._n_sync)
            cycles = self._n_sync * costs.lock_maintenance
            stats.add("cycles.sw.lock_maintenance", cycles)
            extra += cycles
        if self._n_checks:
            stats.add("sw.monitored_accesses", self._n_checks)
            cycles = self._n_checks * costs.access_check
            stats.add("cycles.sw.access_check", cycles)
            extra += cycles
        if self._n_intersections:
            cycles = self._n_intersections * costs.set_intersection
            stats.add("cycles.sw.intersection", cycles)
            extra += cycles
        if self._n_reports:
            cycles = self._n_reports * costs.report
            stats.add("cycles.sw.report", cycles)
            extra += cycles
        stats._counts.update(tape.machine_stats)
        stats._counts.update(tape.bus_stats)
        return DetectionResult(
            detector=self.d.name,
            reports=self.log,
            stats=stats,
            cycles=tape.machine_cycles + extra,
            detector_extra_cycles=extra,
        )
