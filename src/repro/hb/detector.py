"""The default (cache-resident) happens-before detector.

The comparison detector of Section 4: timestamps are stored at cache-line
granularity and live only while the line is in the hierarchy — the same two
approximations HARD's default configuration makes (granularity and
cache-only storage); only the Bloom-filter approximation has no
happens-before analogue.

Mechanically it mirrors :class:`~repro.core.detector.HardDetector`: a fresh
:class:`~repro.sim.machine.Machine` replays the trace, a
:class:`~repro.sim.metadata.CacheMetadataStore` mirrors the access-history
records across cache copies, and lines fetched from memory start with an
empty history.  Vector clocks (thread/lock/barrier state) are kept outside
the caches, as the paper's hardware proposals do for per-thread state.
"""

from __future__ import annotations

from repro.common.addresses import spanned_chunks
from repro.common.config import HappensBeforeConfig, MachineConfig
from repro.common.errors import DetectorError
from repro.common.events import OpKind, Trace
from repro.common.stats import StatCounters
from repro.core.detector import LOCK_WORD_BYTES
from repro.hb.meta import HBChunkMeta, HBLineMeta, check_epochs
from repro.hb.vectorclock import SyncClocks
from repro.reporting import DetectionResult, RaceReportLog
from repro.sim.machine import Machine
from repro.sim.metadata import SharedMetadataStore


class HappensBeforeDetector:
    """Happens-before detection with cache-resident, line-granularity history."""

    def __init__(
        self,
        machine_config: MachineConfig | None = None,
        config: HappensBeforeConfig | None = None,
        name: str = "happens-before",
    ):
        self.machine_config = machine_config or MachineConfig()
        self.config = config or HappensBeforeConfig()
        self.name = name
        if self.config.granularity > self.machine_config.line_size:
            raise DetectorError(
                f"timestamp granularity {self.config.granularity} exceeds the "
                f"line size {self.machine_config.line_size}"
            )

    def core(self) -> "HappensBeforeCore":
        """A fresh incremental core for one pass (the engine entry point)."""
        return HappensBeforeCore(self)


class HappensBeforeCore:
    """Mutable state of one cache-resident happens-before pass."""

    def __init__(self, detector: HappensBeforeDetector):
        self.d = detector
        self.name = detector.name
        self.machine_config = detector.machine_config

    def begin(self, trace: Trace, obs=None) -> None:
        """Allocate the pass state and a fresh machine."""
        detector = self.d
        self.obs = obs
        self._observe = obs is not None and obs.active
        self.machine = Machine(detector.machine_config)
        self.clocks = SyncClocks(trace.num_threads)
        self.stats = StatCounters()
        self.log = RaceReportLog(detector.name)
        self._granularity = detector.config.granularity
        self._line_size = detector.machine_config.line_size
        granularity = self._granularity
        line_size = self._line_size
        # The access-history updates are broadcast to every copy on every
        # access (mirroring HARD's Figure 6 mechanism applied to HB), so
        # all copies are permanently identical and one shared object per
        # line suffices.
        self.store: SharedMetadataStore[HBLineMeta] = SharedMetadataStore(
            fresh=lambda line_addr: HBLineMeta.fresh(granularity, line_size),
        )
        self.machine.add_listener(self.store)
        # Hot per-chunk counter, batched and flushed in finish().
        self._n_history_updates = 0
        # Precomputed address math for the per-chunk loop (hot path).
        self._line_mask = ~(line_size - 1)
        self._offset_mask = line_size - 1
        self._chunk_shift = granularity.bit_length() - 1

    def step(self, event) -> None:
        """Process one trace event."""
        op = event.op
        thread_id = event.thread_id
        machine = self.machine
        clocks = self.clocks
        stats = self.stats
        core = machine.core_for_thread(thread_id)
        if op.kind is OpKind.COMPUTE:
            machine.charge(op.cycles, "compute")
        elif op.kind is OpKind.LOCK:
            machine.access(core, op.addr, LOCK_WORD_BYTES, is_write=True)
            clocks.acquire(thread_id, op.addr)
            stats.add("hb.acquires")
        elif op.kind is OpKind.UNLOCK:
            machine.access(core, op.addr, LOCK_WORD_BYTES, is_write=True)
            clocks.release(thread_id, op.addr)
            stats.add("hb.releases")
        elif op.kind is OpKind.BARRIER:
            if clocks.barrier_arrive(thread_id, op.addr, op.participants):
                stats.add("hb.barrier_episodes")
        else:
            access = machine.access(core, op.addr, op.size, op.is_write)
            if self._observe:
                self.obs.metrics.observe("machine.access_cycles", access.cycles)
            clock = clocks.clock(thread_id)
            require = self.store.require
            line_mask = self._line_mask
            offset_mask = self._offset_mask
            chunk_shift = self._chunk_shift
            for chunk_addr in spanned_chunks(op.addr, op.size, self._granularity):
                line_addr = chunk_addr & line_mask
                meta = require(core, line_addr)
                chunk = meta.chunks[(chunk_addr & offset_mask) >> chunk_shift]
                conflicts = chunk.check_and_update(thread_id, clock, op.is_write)
                self._n_history_updates += 1
                for detail in conflicts:
                    self.log.add(
                        seq=event.seq,
                        thread_id=thread_id,
                        addr=op.addr,
                        size=op.size,
                        site=op.site,
                        is_write=op.is_write,
                        detail=f"{detail} (chunk 0x{chunk_addr:x})",
                    )
                    stats.add("hb.dynamic_reports")

    def finish(self) -> DetectionResult:
        """Assemble the detection result after the last event."""
        if self._n_history_updates:
            self.stats.add("hb.history_updates", self._n_history_updates)
        self.stats.merge(self.machine.stats)
        self.stats.merge(self.machine.bus.stats)
        return DetectionResult(
            detector=self.d.name,
            reports=self.log,
            stats=self.stats,
            cycles=self.machine.cycles,
        )

    # ------------------------------------------------------------- batch path
    # Vectorized kernel over the columnar trace + machine tape.  The shared
    # metadata store keeps one object per line, so only memory fills (fresh
    # history) and L2 displacements (history lost) need replaying from the
    # tape's hook stream; vector clocks and chunk histories are the same
    # objects the scalar path uses.  A filled line holds None per chunk until
    # an access first touches it: an untouched history is empty.

    def begin_batch(self, cols, tape, obs=None) -> None:
        """Allocate batch-pass state over a columnar trace + machine tape."""
        detector = self.d
        self._tape = tape
        self._metrics = obs.metrics if obs is not None and obs.active else None
        self._access_cycles = (
            tape.access_cycles(cols) if self._metrics is not None else None
        )
        self.clocks = SyncClocks(cols.num_threads)
        self.stats = StatCounters()
        self.log = RaceReportLog(detector.name)
        granularity = detector.config.granularity
        line_size = detector.machine_config.line_size
        self._granularity = granularity
        self._chunks_per_line = line_size // granularity
        self._line_mask = ~(line_size - 1)
        self._offset_mask = line_size - 1
        self._chunk_shift = granularity.bit_length() - 1
        self._chunk_mask = ~(granularity - 1)
        self._lines: dict[int, list] = {}
        self._n_history_updates = 0
        self._n_acquires = 0
        self._n_releases = 0
        self._n_episodes = 0
        self._n_reports = 0

    def step_batch(self, cols, lo: int, hi: int) -> None:
        """Process events ``[lo, hi)`` of ``cols`` against the tape."""
        rows = cols.rows()
        sites = cols.sites
        participants = cols.participants
        tape = self._tape
        hook_off = tape.hook_off
        hook_code = tape.hook_code
        hook_line = tape.hook_line

        clocks = self.clocks
        threads = clocks.threads
        acquire = clocks.acquire
        release = clocks.release
        barrier_arrive = clocks.barrier_arrive
        lines = self._lines
        log_add = self.log.add
        granularity = self._granularity
        chunks_per_line = self._chunks_per_line
        line_mask = self._line_mask
        offset_mask = self._offset_mask
        chunk_shift = self._chunk_shift
        chunk_mask = self._chunk_mask
        n_history_updates = self._n_history_updates
        n_reports = self._n_reports

        h = hook_off[lo]
        for i in range(lo, hi):
            kind, tid, addr, size, sid = rows[i]
            h1 = hook_off[i + 1]
            while h < h1:
                code = hook_code[h]
                if code == 0:  # fill from memory: fresh (empty) history
                    lines[hook_line[h]] = [None] * chunks_per_line
                elif code == 6:  # L2 displacement: history lost
                    del lines[hook_line[h]]
                h += 1

            if kind <= 1:  # READ / WRITE
                is_write = kind == 1
                values = threads[tid].values
                first = addr & chunk_mask
                last = (addr + size - 1) & chunk_mask
                chunk_addr = first
                while True:
                    meta = lines[chunk_addr & line_mask]
                    index = (chunk_addr & offset_mask) >> chunk_shift
                    chunk = meta[index]
                    if chunk is None:  # first touch since the fill
                        chunk = meta[index] = HBChunkMeta()
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
                self._n_acquires += 1
            elif kind == 3:  # UNLOCK
                release(tid, addr)
                self._n_releases += 1
            elif kind == 4:  # BARRIER
                if barrier_arrive(tid, addr, participants[i]):
                    self._n_episodes += 1
            # kind == 5 (COMPUTE): cycles already on the tape.

        self._n_history_updates = n_history_updates
        self._n_reports = n_reports

    def finish_batch(self) -> DetectionResult:
        """Assemble the result: private counters over the shared tape totals."""
        tape = self._tape
        stats = self.stats
        if self._n_acquires:
            stats.add("hb.acquires", self._n_acquires)
        if self._n_releases:
            stats.add("hb.releases", self._n_releases)
        if self._n_episodes:
            stats.add("hb.barrier_episodes", self._n_episodes)
        if self._n_reports:
            stats.add("hb.dynamic_reports", self._n_reports)
        if self._n_history_updates:
            stats.add("hb.history_updates", self._n_history_updates)
        stats._counts.update(tape.machine_stats)
        stats._counts.update(tape.bus_stats)
        metrics = self._metrics
        if metrics is not None:
            metrics.observe_counts("machine.access_cycles", self._access_cycles)
        return DetectionResult(
            detector=self.d.name,
            reports=self.log,
            stats=stats,
            cycles=tape.machine_cycles,
        )

