"""The HARD detector: hardware lockset race detection on the simulated CMP.

This is the paper's primary contribution (Section 3) assembled from its
parts:

* per-line candidate sets and LStates live in every cache copy of the line
  (:class:`~repro.sim.metadata.CacheMetadataStore` mirrors the coherence
  protocol; metadata is lost on L2 displacement — Section 3.6);
* per-core Lock Registers + Counter Registers hold the running thread's
  lock set (Section 3.3);
* every shared access intersects the chunk's BFVector with the Lock
  Register (one AND) and reports a race when the result is empty while the
  chunk is Shared-Modified (Sections 2, 3.2);
* changed candidate sets on lines with other L1 holders are broadcast to
  the other caches and the L2, and metadata rides coherence transfers as an
  18-bit piggyback (Section 3.4, Figure 6);
* on barrier exit, every cached BFVector is flash-reset to all-ones
  (Section 3.5).

Costs are charged to the machine's cycle ledger under ``hard.*`` reasons so
the Figure 8 overhead study can separate them from baseline execution.

Known modelling approximation: metadata mutated on a line whose only copy is
one L1 in Exclusive cache state is lost if that line is evicted *clean*
(real hardware faces the same choice unless it makes metadata changes dirty
the line).  Dirty lines write their metadata back with the data, and any
line with other holders is covered by the broadcast.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.addresses import spanned_chunks
from repro.common.config import HardConfig, MachineConfig
from repro.common.errors import DetectorError
from repro.common.events import OpKind, Trace
from repro.common.stats import StatCounters
from repro.core.bloom import BloomMapper
from repro.core.candidate import LineMeta
from repro.core.lockregister import LockRegister
from repro.core.lstate import NO_OWNER, transition
from repro.obs.trace import emit_alarm
from repro.reporting import DetectionResult, RaceReportLog, run_deprecated
from repro.sim.coherence import SourceKind
from repro.sim.machine import LOCK_WORD_BYTES, Machine
from repro.sim.metadata import CacheMetadataStore


@dataclass(frozen=True)
class HardCosts:
    """Cycle costs of the HARD hardware extensions.

    These are the *additional* latencies HARD introduces on top of the
    baseline machine; Section 5.1 names the three sources: candidate-set
    traffic, longer shared-access time, and lock-register updates — and
    finds the traffic dominant.  The defaults reflect what actually sits on
    a critical path:

    * ``lock_register_update`` is 0: the register OR/counter update is a
      local register write fully overlapped by the lock-word bus
      transaction it accompanies;
    * ``candidate_check`` (1 cycle) is charged only when the intersection
      *changes* the stored metadata — the silent common case (the AND and
      zero-part test in parallel with the cache access) adds no latency,
      but a changed candidate set must be written back into the line's
      metadata bits;
    * the barrier reset is a flash-clear of the metadata arrays.
    """

    lock_register_update: int = 0
    candidate_check: int = 1
    barrier_reset_flash: int = 32


class HardDetector:
    """Hardware-assisted lockset detection (the paper's default setup)."""

    def __init__(
        self,
        machine_config: MachineConfig | None = None,
        config: HardConfig | None = None,
        costs: HardCosts | None = None,
        name: str = "HARD",
    ):
        self.machine_config = machine_config or MachineConfig()
        self.config = config or HardConfig()
        self.costs = costs or HardCosts()
        self.name = name
        if self.config.granularity > self.machine_config.line_size:
            raise DetectorError(
                f"metadata granularity {self.config.granularity} exceeds the "
                f"line size {self.machine_config.line_size}"
            )

    # ------------------------------------------------------------------- run

    def core(self) -> "HardCore":
        """A fresh incremental core for one pass (the engine entry point)."""
        return HardCore(self)

    def run(self, trace: Trace, obs=None) -> DetectionResult:
        """Replay ``trace`` through a fresh machine with HARD attached.

        ``obs`` is an optional :class:`repro.obs.Observability`; when absent
        or inactive the replay takes the uninstrumented fast path.
        """
        return run_deprecated(self, trace, obs=obs)


class HardCore:
    """Mutable state of one detector pass over one trace."""

    def __init__(self, detector: HardDetector):
        self.d = detector
        self.name = detector.name
        self.machine_config = detector.machine_config

    def begin(self, trace: Trace, obs=None, machine=None) -> None:
        """Allocate the pass state (``machine`` may be a shared engine lane)."""
        detector = self.d
        self.machine = (
            machine
            if machine is not None
            else Machine(detector.machine_config, obs=obs)
        )
        self.mapper = BloomMapper(detector.config.bloom)
        self.stats = StatCounters()
        self.log = RaceReportLog(detector.name)
        self.extra_cycles = 0
        # Observability gates, resolved once: ``_observe`` guards all metric
        # recording, ``_tracing`` additionally guards event emission.  With
        # the default null sink both are False and the per-event cost is one
        # attribute load + branch.
        self.obs = obs
        self._observe = obs is not None and obs.active
        self._tracing = obs is not None and obs.emitter.enabled
        self._lock_registers: dict[int, LockRegister] = {}
        self._barrier_arrivals: dict[int, int] = {}
        # Hot per-chunk counters, batched into plain ints and flushed in
        # finish(); the final stats are identical to per-event add() calls.
        self._n_candidate_updates = 0
        self._n_piggybacks = 0
        line_size = detector.machine_config.line_size
        config = detector.config
        self.store: CacheMetadataStore[LineMeta] = CacheMetadataStore(
            fresh=lambda line_addr: LineMeta.fresh(config, line_size),
            clone=LineMeta.clone,
        )
        self.machine.add_listener(self.store)
        # One metadata record's bus payload: vector + 2-bit LState per chunk.
        chunks = line_size // config.granularity
        self._line_meta_bits = (config.bloom.vector_bits + 2) * chunks
        # Precomputed address math for the per-chunk loop (hot path): chunk
        # base addresses are granularity-aligned, so the slot index is the
        # line offset shifted down by log2(granularity).
        self._line_mask = ~(line_size - 1)
        self._offset_mask = line_size - 1
        self._chunk_shift = config.granularity.bit_length() - 1

    # ---------------------------------------------------------------- events

    def step(self, event) -> None:
        """Process one trace event."""
        op = event.op
        thread_id = event.thread_id
        core = self.machine.core_for_thread(thread_id)

        if op.kind is OpKind.COMPUTE:
            self.machine.charge(op.cycles, "compute")
        elif op.kind is OpKind.LOCK:
            self.machine.access(core, op.addr, LOCK_WORD_BYTES, is_write=True)
            self._lock_register(thread_id).acquire(op.addr)
            self._charge(self.d.costs.lock_register_update, "hard.lockreg")
            self.stats.add("hard.lock_acquires")
        elif op.kind is OpKind.UNLOCK:
            self.machine.access(core, op.addr, LOCK_WORD_BYTES, is_write=True)
            self._lock_register(thread_id).release(op.addr)
            self._charge(self.d.costs.lock_register_update, "hard.lockreg")
            self.stats.add("hard.lock_releases")
        elif op.kind is OpKind.BARRIER:
            self._barrier_arrival(op.addr, op.participants)
        else:
            self._memory_access(event, core)

    def finish(self) -> DetectionResult:
        """Assemble the detection result after the last event."""
        if self._n_candidate_updates:
            self.stats.add("hard.candidate_updates", self._n_candidate_updates)
        if self._n_piggybacks:
            self.stats.add("hard.metadata_piggybacks", self._n_piggybacks)
        self.stats.merge(self.machine.stats)
        self.stats.merge(self.machine.bus.stats)
        return DetectionResult(
            detector=self.d.name,
            reports=self.log,
            stats=self.stats,
            cycles=self.machine.cycles,
            detector_extra_cycles=self.extra_cycles,
        )

    # -------------------------------------------------------------- internals

    def _lock_register(self, thread_id: int) -> LockRegister:
        register = self._lock_registers.get(thread_id)
        if register is None:
            register = LockRegister(self.d.config, self.mapper)
            self._lock_registers[thread_id] = register
        return register

    def _barrier_arrival(self, barrier_id: int, participants: int) -> None:
        count = self._barrier_arrivals.get(barrier_id, 0) + 1
        if count < participants:
            self._barrier_arrivals[barrier_id] = count
            return
        self._barrier_arrivals[barrier_id] = 0
        self.stats.add("hard.barrier_episodes")
        if not self.d.config.barrier_reset:
            return
        full = self.mapper.full_mask
        touched = self.store.update_everywhere(
            lambda meta: meta.reset_for_barrier(full)
        )
        self.stats.add("hard.barrier_reset_copies", touched)
        self._charge(self.d.costs.barrier_reset_flash, "hard.barrier_reset")
        if self._observe:
            self.obs.metrics.observe("hard.barrier_reset_copies", touched)
            if self._tracing:
                self.obs.emitter.emit(
                    "barrier.reset", barrier=barrier_id, copies=touched
                )

    def _memory_access(self, event, core: int) -> None:
        op = event.op
        thread_id = event.thread_id
        config = self.d.config
        lock_vector = self._lock_register(thread_id).value

        result = self.machine.access(core, op.addr, op.size, op.is_write)
        if self._observe:
            self.obs.metrics.observe("machine.access_cycles", result.cycles)

        # Metadata rides every transfer that carries history: fills from the
        # L2 or a peer cache, and dirty-victim writebacks (whose candidate
        # sets return to the L2 with the data).  Fresh memory fills carry
        # none.
        for line_result in result.lines:
            source = line_result.fill_source
            if source is not None and source.kind is not SourceKind.MEMORY:
                cycles = self.machine.bus.metadata_piggyback(self._line_meta_bits)
                self._charge(cycles, "hard.piggyback")
                self._n_piggybacks += 1
            victim = line_result.l1_victim
            if victim is not None and victim.dirty:
                cycles = self.machine.bus.metadata_piggyback(self._line_meta_bits)
                self._charge(cycles, "hard.piggyback")
                self._n_piggybacks += 1

        changed_lines: set[int] = set()
        require = self.store.require
        line_mask = self._line_mask
        offset_mask = self._offset_mask
        chunk_shift = self._chunk_shift
        for chunk_addr in spanned_chunks(op.addr, op.size, config.granularity):
            line_addr = chunk_addr & line_mask
            meta = require(core, line_addr)
            chunk = meta.chunks[(chunk_addr & offset_mask) >> chunk_shift]
            outcome = transition(chunk.lstate, chunk.owner, thread_id, op.is_write)
            state_changed = (
                outcome.state is not chunk.lstate or outcome.owner != chunk.owner
            )
            if self._tracing and outcome.state is not chunk.lstate:
                self.obs.emitter.emit(
                    "lstate.transition",
                    seq=event.seq,
                    thread=thread_id,
                    chunk=chunk_addr,
                    **{"from": chunk.lstate.value, "to": outcome.state.value},
                )
            chunk.lstate = outcome.state
            chunk.owner = outcome.owner

            if outcome.update_candidate:
                new_bf = chunk.bf & lock_vector
                if new_bf != chunk.bf:
                    if self._observe:
                        self._note_refinement(event, chunk_addr, chunk.bf, new_bf)
                    chunk.bf = new_bf
                    state_changed = True
                self._n_candidate_updates += 1
                if state_changed:
                    # Only a *changed* record costs latency: the new
                    # metadata must be written into the line's extra bits.
                    self._charge(self.d.costs.candidate_check, "hard.check")
                if outcome.check_race and self.mapper.is_empty(new_bf):
                    report = self.log.add(
                        seq=event.seq,
                        thread_id=thread_id,
                        addr=op.addr,
                        size=op.size,
                        site=op.site,
                        is_write=op.is_write,
                        detail=f"candidate set empty (chunk 0x{chunk_addr:x})",
                    )
                    self.stats.add("hard.dynamic_reports")
                    if self._observe:
                        self._note_alarm(report, chunk_addr, new_bf)
            if state_changed:
                changed_lines.add(line_addr)

        # Broadcast changed metadata to the other holders (Figure 6).
        if not config.broadcast_updates:
            return
        for line_addr in changed_lines:
            if not self.machine.has_other_sharers(line_addr, excluding=core):
                continue
            meta = self.store.require(core, line_addr)
            self.store.update_all_copies(line_addr, meta)
            cycles = self.machine.bus.metadata_broadcast(self._line_meta_bits)
            self._charge(cycles, "hard.broadcast")
            self.stats.add("hard.metadata_broadcasts")

    def _charge(self, cycles: int, reason: str) -> None:
        self.machine.charge(cycles, reason)
        self.extra_cycles += cycles

    # ------------------------------------------------------------- batch path
    # The vectorized kernel: same algorithm over the columnar trace and a
    # prerecorded machine tape, bit-for-bit identical results.  Chunk records
    # are flat int triples ``[bf, lstate, owner]`` (LState int-coded 0..3 in
    # Figure 2 order), per-holder metadata copies are plain lists keyed by
    # core id (L2 copy under ``_L2``), and the Figure 2 transition runs
    # inline — no Transition/ChunkMeta/Machine objects on the hot path.

    _L2 = -2  # metadata holder key of the shared L2's copy
    _VIRGIN, _EXCLUSIVE, _SHARED, _SHARED_MODIFIED = 0, 1, 2, 3

    def begin_batch(self, cols, tape) -> None:
        """Allocate batch-pass state over a columnar trace + machine tape."""
        detector = self.d
        config = detector.config
        machine_config = detector.machine_config
        self._tape = tape
        self.mapper = BloomMapper(config.bloom)
        self.stats = StatCounters()
        self.log = RaceReportLog(detector.name)
        self._lock_registers = {}
        self._barrier_arrivals = {}
        line_size = machine_config.line_size
        chunks = line_size // config.granularity
        self._line_meta_bits = (config.bloom.vector_bits + 2) * chunks
        self._line_mask = ~(line_size - 1)
        self._offset_mask = line_size - 1
        self._chunk_shift = config.granularity.bit_length() - 1
        self._chunk_mask = ~(config.granularity - 1)
        self._num_cores = machine_config.num_cores
        # Thread→core placement, pre-resolved for the hot loop: ``None``
        # means pure modulo; under a pinned map the kernel must agree with
        # MachineConfig.core_of so the tape's hook cores line up.
        self._pins = (
            machine_config.thread_pins
            if machine_config.thread_mapping == "pinned"
            else None
        )
        # line -> holder -> flat [bf, lstate, owner] * chunks
        self._lines: dict[int, dict[int, list[int]]] = {}
        self._fresh = [self.mapper.full_mask, self._VIRGIN, NO_OWNER] * chunks
        self._empty_memo: dict[int, bool] = {}
        # Occurrence counters: every scalar-path ``charge``/``stats.add`` call
        # site gets one, so finish_batch can reconstruct the exact stat keys
        # (including zero-valued ones like ``cycles.hard.lockreg``).
        self._n_candidate_updates = 0
        self._n_piggybacks = 0
        self._n_acquires = 0
        self._n_releases = 0
        self._n_lockreg = 0
        self._n_checks = 0
        self._n_broadcasts = 0
        self._n_reports = 0
        self._n_episodes = 0
        self._n_resets = 0
        self._n_reset_copies = 0

    def step_batch(self, cols, lo: int, hi: int) -> None:
        """Process events ``[lo, hi)`` of ``cols`` against the tape."""
        rows = cols.rows()
        sites = cols.sites
        participants = cols.participants
        tape = self._tape
        hook_off = tape.hook_off
        hook_code = tape.hook_code
        hook_line = tape.hook_line
        hook_core = tape.hook_core
        hook_aux = tape.hook_aux
        pig = tape.pig
        sharer_off = tape.sharer_off
        sharer_line = tape.sharer_line
        sharer_flag = tape.sharer_flag

        detector = self.d
        config = detector.config
        broadcast_updates = config.broadcast_updates
        barrier_reset = config.barrier_reset
        granularity = config.granularity
        full_mask = self.mapper.full_mask
        is_empty = self.mapper.is_empty
        empty_memo = self._empty_memo
        lines = self._lines
        fresh = self._fresh
        registers = self._lock_registers
        arrivals = self._barrier_arrivals
        log_add = self.log.add
        line_mask = self._line_mask
        offset_mask = self._offset_mask
        chunk_shift = self._chunk_shift
        chunk_mask = self._chunk_mask
        num_cores = self._num_cores
        pins = self._pins
        n_pins = len(pins) if pins is not None else 0
        L2 = self._L2

        n_candidate_updates = self._n_candidate_updates
        n_piggybacks = self._n_piggybacks
        n_lockreg = self._n_lockreg
        n_checks = self._n_checks
        n_broadcasts = self._n_broadcasts
        n_reports = self._n_reports

        h = hook_off[lo]
        for i in range(lo, hi):
            kind, tid, addr, size, sid = rows[i]
            h1 = hook_off[i + 1]
            while h < h1:
                code = hook_code[h]
                line_addr = hook_line[h]
                if code == 0:  # fill from memory: fresh copies, L2 + core
                    meta = fresh[:]
                    lines[line_addr] = {L2: meta[:], hook_core[h]: meta}
                elif code <= 2:  # fill from the L2 (1) or a peer core (2)
                    holders = lines[line_addr]
                    supplier = L2 if code == 1 else hook_aux[h]
                    holders[hook_core[h]] = holders[supplier][:]
                elif code == 3:  # writeback refreshes the L2 copy
                    holders = lines[line_addr]
                    holders[L2] = holders[hook_core[h]][:]
                elif code == 6:  # L2 displacement: all record disappears
                    del lines[line_addr]
                else:  # L1 eviction / invalidation drops that copy
                    del lines[line_addr][hook_core[h]]
                h += 1

            if kind <= 1:  # READ / WRITE
                is_write = kind == 1
                core = pins[tid] if tid < n_pins else tid % num_cores
                count = pig[i]
                if count:
                    n_piggybacks += count
                register = registers.get(tid)
                lock_vector = register.value if register is not None else 0

                first = addr & chunk_mask
                last = (addr + size - 1) & chunk_mask
                chunk_addr = first
                changed_lines = None
                changed_line = -1
                while True:
                    line_addr = chunk_addr & line_mask
                    meta = lines[line_addr][core]
                    slot = ((chunk_addr & offset_mask) >> chunk_shift) * 3
                    state = meta[slot + 1]
                    owner = meta[slot + 2]
                    # Figure 2, inline (0=V, 1=E, 2=S, 3=SM).
                    if state == 0:
                        next_state = 1
                        next_owner = tid
                        update = check = False
                    elif state == 1 and tid == owner:
                        next_state = 1
                        next_owner = owner
                        update = check = False
                    elif state != 3 and not is_write:
                        next_state = 2
                        next_owner = owner
                        update = True
                        check = False
                    else:
                        next_state = 3
                        next_owner = owner
                        update = check = True
                    state_changed = next_state != state or next_owner != owner
                    meta[slot + 1] = next_state
                    meta[slot + 2] = next_owner
                    if update:
                        bf = meta[slot]
                        new_bf = bf & lock_vector
                        if new_bf != bf:
                            meta[slot] = new_bf
                            state_changed = True
                        n_candidate_updates += 1
                        if state_changed:
                            n_checks += 1
                        if check:
                            empty = empty_memo.get(new_bf)
                            if empty is None:
                                empty = empty_memo[new_bf] = is_empty(new_bf)
                            if empty:
                                log_add(
                                    seq=i,
                                    thread_id=tid,
                                    addr=addr,
                                    size=size,
                                    site=sites[sid],
                                    is_write=is_write,
                                    detail="candidate set empty "
                                    f"(chunk 0x{chunk_addr:x})",
                                )
                                n_reports += 1
                    if state_changed:
                        if changed_line < 0:
                            changed_line = line_addr
                        elif line_addr != changed_line:
                            if changed_lines is None:
                                changed_lines = [changed_line]
                            if line_addr not in changed_lines:
                                changed_lines.append(line_addr)
                    if chunk_addr == last:
                        break
                    chunk_addr += granularity

                if changed_line >= 0 and broadcast_updates:
                    if changed_lines is None:
                        changed_lines = (changed_line,)
                    s0 = sharer_off[i]
                    s1 = sharer_off[i + 1]
                    for line_addr in changed_lines:
                        shared = False
                        for s in range(s0, s1):
                            if sharer_line[s] == line_addr:
                                shared = sharer_flag[s] == 1
                                break
                        if not shared:
                            continue
                        holders = lines[line_addr]
                        meta = holders[core]
                        for holder in holders:
                            holders[holder] = meta[:]
                        n_broadcasts += 1
            elif kind == 2:  # LOCK
                register = registers.get(tid)
                if register is None:
                    register = registers[tid] = LockRegister(config, self.mapper)
                register.acquire(addr)
                n_lockreg += 1
                self._n_acquires += 1
            elif kind == 3:  # UNLOCK
                register = registers.get(tid)
                if register is None:
                    register = registers[tid] = LockRegister(config, self.mapper)
                register.release(addr)
                n_lockreg += 1
                self._n_releases += 1
            elif kind == 4:  # BARRIER
                count = arrivals.get(addr, 0) + 1
                if count < participants[i]:
                    arrivals[addr] = count
                else:
                    arrivals[addr] = 0
                    self._n_episodes += 1
                    if barrier_reset:
                        touched = 0
                        for holders in lines.values():
                            for meta in holders.values():
                                for slot in range(0, len(meta), 3):
                                    meta[slot] = full_mask
                                    meta[slot + 1] = 0
                                    meta[slot + 2] = NO_OWNER
                                touched += 1
                        self._n_resets += 1
                        self._n_reset_copies += touched
            # kind == 5 (COMPUTE): cycles already on the tape.

        self._n_candidate_updates = n_candidate_updates
        self._n_piggybacks = n_piggybacks
        self._n_lockreg = n_lockreg
        self._n_checks = n_checks
        self._n_broadcasts = n_broadcasts
        self._n_reports = n_reports

    def finish_batch(self) -> DetectionResult:
        """Assemble the result: private charges over the shared tape totals.

        Metadata costs come from the machine's
        :class:`~repro.sim.bus.MetaCostModel` — the same constants and stat
        keys the scalar fabric methods charge — so the reconstruction is
        exact on the snoopy bus and the directory fabric alike.
        """
        from repro.sim.fabric import meta_cost_model

        tape = self._tape
        costs = self.d.costs
        meta_model = meta_cost_model(self.d.machine_config)
        stats = self.stats
        extra = 0

        if self._n_candidate_updates:
            stats.add("hard.candidate_updates", self._n_candidate_updates)
        if self._n_piggybacks:
            stats.add("hard.metadata_piggybacks", self._n_piggybacks)
        if self._n_acquires:
            stats.add("hard.lock_acquires", self._n_acquires)
        if self._n_releases:
            stats.add("hard.lock_releases", self._n_releases)
        if self._n_episodes:
            stats.add("hard.barrier_episodes", self._n_episodes)
        if self._n_resets:
            stats.add("hard.barrier_reset_copies", self._n_reset_copies)
            cycles = self._n_resets * costs.barrier_reset_flash
            stats.add("cycles.hard.barrier_reset", cycles)
            extra += cycles
        if self._n_reports:
            stats.add("hard.dynamic_reports", self._n_reports)
        if self._n_lockreg:
            cycles = self._n_lockreg * costs.lock_register_update
            stats.add("cycles.hard.lockreg", cycles)
            extra += cycles
        if self._n_checks:
            cycles = self._n_checks * costs.candidate_check
            stats.add("cycles.hard.check", cycles)
            extra += cycles
        meta_bytes = (self._line_meta_bits + 7) // 8
        if self._n_piggybacks:
            cycles = self._n_piggybacks * meta_model.piggyback_cycles
            stats.add("cycles.hard.piggyback", cycles)
            stats.add(meta_model.piggyback_cycle_key, cycles)
            extra += cycles
        if self._n_broadcasts:
            stats.add("hard.metadata_broadcasts", self._n_broadcasts)
            cycles = self._n_broadcasts * meta_model.update_cycles
            stats.add("cycles.hard.broadcast", cycles)
            stats.add(meta_model.update_cycle_key, cycles)
            stats.add(meta_model.update_count_key, self._n_broadcasts)
            if meta_model.update_control_bytes:
                stats.add(
                    meta_model.control_bytes_key,
                    self._n_broadcasts * meta_model.update_control_bytes,
                )
            extra += cycles
        if self._n_piggybacks or self._n_broadcasts:
            stats.add(
                meta_model.metadata_bytes_key,
                (self._n_piggybacks + self._n_broadcasts) * meta_bytes,
            )
        stats._counts.update(tape.machine_stats)
        stats._counts.update(tape.bus_stats)
        return DetectionResult(
            detector=self.d.name,
            reports=self.log,
            stats=stats,
            cycles=tape.machine_cycles + extra,
            detector_extra_cycles=extra,
        )

    # ---------------------------------------------------------- observability
    # Cold paths: called only when an Observability bundle is active.

    def _note_refinement(self, event, chunk_addr: int, before: int, after: int) -> None:
        metrics = self.obs.metrics
        metrics.add("obs.lockset_refinements")
        metrics.observe("hard.candidate_popcount", after.bit_count())
        if self._tracing:
            self.obs.emitter.emit(
                "lockset.refine",
                seq=event.seq,
                thread=event.thread_id,
                chunk=chunk_addr,
                before=before,
                after=after,
            )

    def _note_alarm(self, report, chunk_addr: int, vector: int) -> None:
        metrics = self.obs.metrics
        metrics.add("obs.alarms")
        if vector:
            # The set is empty (some part all-zero) yet residual collision
            # bits remain: the Bloom aliasing of Section 3.2 made visible.
            metrics.add("obs.bloom_collision_bits")
        if not self._tracing:
            return
        emitter = self.obs.emitter
        if vector:
            emitter.emit(
                "bloom.collision",
                seq=report.seq,
                thread=report.thread_id,
                chunk=chunk_addr,
                vector=vector,
            )
        emit_alarm(emitter, report)
