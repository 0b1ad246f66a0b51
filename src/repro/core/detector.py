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
from repro.core.lstate import NO_OWNER, LState, transition
from repro.reporting import DetectionResult, RaceReportLog
from repro.sim.coherence import SourceKind
from repro.sim.fabric import meta_cost_model
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


class HardCore:
    """Mutable state of one detector pass over one trace."""

    def __init__(self, detector: HardDetector):
        self.d = detector
        self.name = detector.name
        self.machine_config = detector.machine_config

    def begin(self, trace: Trace, obs=None) -> None:
        """Allocate the pass state and a fresh machine."""
        detector = self.d
        self.machine = Machine(detector.machine_config)
        self.mapper = BloomMapper(detector.config.bloom)
        self.stats = StatCounters()
        self.log = RaceReportLog(detector.name)
        self.extra_cycles = 0
        # The metrics gate, resolved once: without an active bundle the
        # per-event cost is one attribute load + branch.  Trace events ride
        # the batch walk only (``begin_batch``).
        self.obs = obs
        self._observe = obs is not None and obs.active
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
            register = LockRegister(self.d.config, self.mapper, thread_id)
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
            chunk.lstate = outcome.state
            chunk.owner = outcome.owner

            if outcome.update_candidate:
                new_bf = chunk.bf & lock_vector
                if new_bf != chunk.bf:
                    if self._observe:
                        metrics = self.obs.metrics
                        metrics.add("obs.lockset_refinements")
                        metrics.observe("hard.candidate_popcount", new_bf.bit_count())
                    chunk.bf = new_bf
                    state_changed = True
                self._n_candidate_updates += 1
                if state_changed:
                    # Only a *changed* record costs latency: the new
                    # metadata must be written into the line's extra bits.
                    self._charge(self.d.costs.candidate_check, "hard.check")
                if outcome.check_race and self.mapper.is_empty(new_bf):
                    self.log.add(
                        seq=event.seq,
                        thread_id=thread_id,
                        addr=op.addr,
                        size=op.size,
                        site=op.site,
                        is_write=op.is_write,
                        detail=f"candidate set empty (chunk 0x{chunk_addr:x})",
                    )
                    self.stats.add("hard.dynamic_reports")
                    if self._observe and new_bf:
                        # The set is empty (some part all-zero) yet
                        # residual collision bits remain: the Bloom
                        # aliasing of Section 3.2 made visible.
                        self.obs.metrics.add("obs.bloom_collision_bits")
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
    # prerecorded machine tape, bit-for-bit identical results.  A holder's
    # copy of a line's metadata is an immutable flat tuple
    # ``(bf, lstate, owner) * chunks`` (LState int-coded 0..3 in Figure 2
    # order), keyed by core id (the L2's copy under ``_L2``).  Metadata
    # moves by reference: a fill, a writeback, a broadcast and a barrier
    # reset store a shared tuple, and a new tuple is built only where an
    # access changes the record.  The Lock and Counter Registers are plain
    # per-thread ints and lists updated inline from each lock's memoised
    # signature bits, and the Figure 2 transition runs inline — no
    # Transition/ChunkMeta/LockRegister/Machine objects on the hot path.

    _L2 = -2  # metadata holder key of the shared L2's copy
    _VIRGIN, _EXCLUSIVE, _SHARED, _SHARED_MODIFIED = 0, 1, 2, 3
    #: The ``lstate.transition`` event names of the int codes.
    _LSTATE_NAMES = tuple(state.value for state in LState)

    def begin_batch(self, cols, tape, obs=None) -> None:
        """Allocate batch-pass state over a columnar trace + machine tape."""
        detector = self.d
        config = detector.config
        machine_config = detector.machine_config
        self._tape = tape
        self._metrics = obs.metrics if obs is not None and obs.active else None
        self._access_cycles = (
            tape.access_cycles(cols) if self._metrics is not None else None
        )
        # Trace events ride this walk: an enabled emitter is called inside
        # branches the kernel takes anyway to count its metrics.
        self._emitter = obs.emitter if obs is not None and obs.emitter.enabled else None
        self._meta_model = meta_cost_model(machine_config)
        self.mapper = BloomMapper(config.bloom)
        self.stats = StatCounters()
        self.log = RaceReportLog(detector.name)
        # The Lock Register (thread -> vector), the Counter Register
        # (thread -> one counter per vector bit), the held-lock multiset
        # that validates releases (thread -> lock -> depth), and each lock's
        # signature with its set bit positions.
        self._lock_values: dict[int, int] = {}
        self._lock_counters: dict[int, list[int]] = {}
        self._lock_held: dict[int, dict[int, int]] = {}
        self._lock_sigs: dict[int, tuple[int, tuple[int, ...]]] = {}
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
        # line -> holder -> immutable (bf, lstate, owner) * chunks
        self._lines: dict[int, dict[int, tuple[int, ...]]] = {}
        self._fresh = (self.mapper.full_mask, self._VIRGIN, NO_OWNER) * chunks
        self._empty_memo: dict[int, bool] = {}
        # Occurrence counters: every scalar-path ``charge``/``stats.add`` call
        # site gets one, so finish_batch can reconstruct the exact stat keys
        # (including zero-valued ones like ``cycles.hard.lockreg``).
        self._n_candidate_updates = 0
        self._n_piggybacks = 0
        self._n_acquires = 0
        self._n_releases = 0
        self._n_checks = 0
        self._n_broadcasts = 0
        self._n_reports = 0
        self._n_episodes = 0
        self._n_resets = 0
        self._n_reset_copies = 0
        # The per-event metrics the scalar ``step`` books, counted where
        # the kernel branches anyway: refinements by the popcount of the
        # refined vector, reports that leave collision bits, and barrier
        # resets by the number of copies they touched.
        self._refined_popcounts = [0] * (config.bloom.vector_bits + 1)
        self._n_collisions = 0
        self._reset_touched: dict[int, int] = {}

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
        use_counters = config.use_counter_register
        counter_max = (1 << config.counter_bits) - 1
        vector_bits = config.bloom.vector_bits
        granularity = config.granularity
        signature = self.mapper.signature
        is_empty = self.mapper.is_empty
        empty_memo = self._empty_memo
        lines = self._lines
        fresh = self._fresh
        single = len(fresh) == 3
        lock_values = self._lock_values
        lock_counters = self._lock_counters
        lock_held = self._lock_held
        lock_sigs = self._lock_sigs
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
        n_acquires = self._n_acquires
        n_releases = self._n_releases
        n_checks = self._n_checks
        n_broadcasts = self._n_broadcasts
        n_reports = self._n_reports
        n_collisions = self._n_collisions
        refined_popcounts = self._refined_popcounts
        reset_touched = self._reset_touched
        emitter = self._emitter
        tracing = emitter is not None
        if tracing:
            emit = emitter.emit
            meta_bits = self._line_meta_bits
            update_event = self._meta_model.update_event
            lstate_names = self._LSTATE_NAMES

        h = hook_off[lo]
        for i in range(lo, hi):
            kind, tid, addr, size, sid = rows[i]
            h1 = hook_off[i + 1]
            while h < h1:
                code = hook_code[h]
                line_addr = hook_line[h]
                if code == 0:  # fill from memory: fresh copies, L2 + core
                    lines[line_addr] = {L2: fresh, hook_core[h]: fresh}
                elif code <= 2:  # fill from the L2 (1) or a peer core (2)
                    holders = lines[line_addr]
                    holders[hook_core[h]] = holders[L2 if code == 1 else hook_aux[h]]
                elif code == 3:  # writeback refreshes the L2 copy
                    holders = lines[line_addr]
                    holders[L2] = holders[hook_core[h]]
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
                    if tracing:
                        for _ in range(count):
                            emit("metadata.piggyback", bits=meta_bits)
                chunk_addr = addr & chunk_mask
                last = (addr + size - 1) & chunk_mask
                changed_lines = None
                changed_line = -1
                while True:
                    line_addr = chunk_addr & line_mask
                    holders = lines[line_addr]
                    meta = holders[core]
                    if single:
                        bf, state, owner = meta
                    else:
                        slot = ((chunk_addr & offset_mask) >> chunk_shift) * 3
                        bf, state, owner = meta[slot : slot + 3]
                    # Figure 2, inline (0=V, 1=E, 2=S, 3=SM).
                    new_bf = bf
                    next_owner = owner
                    if state == 0:
                        next_state = 1
                        next_owner = tid
                        state_changed = True
                        update = check = False
                    elif state == 1 and tid == owner:  # the owner again: no change
                        state_changed = update = check = False
                    elif state != 3 and not is_write:
                        next_state = 2
                        state_changed = state != 2
                        update = True
                        check = False
                    else:
                        next_state = 3
                        state_changed = state != 3
                        update = check = True
                    if update:
                        new_bf = bf & lock_values.get(tid, 0)
                        if new_bf != bf:
                            state_changed = True
                            refined_popcounts[new_bf.bit_count()] += 1
                            if tracing:
                                emit(
                                    "lockset.refine",
                                    seq=i,
                                    thread=tid,
                                    chunk=chunk_addr,
                                    before=bf,
                                    after=new_bf,
                                )
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
                                if new_bf:
                                    n_collisions += 1
                                    if tracing:
                                        emit(
                                            "bloom.collision",
                                            seq=i,
                                            thread=tid,
                                            chunk=chunk_addr,
                                            vector=new_bf,
                                        )
                    if state_changed:
                        # Only a changed record builds a new value.
                        record = (new_bf, next_state, next_owner)
                        holders[core] = (
                            record
                            if single
                            else meta[:slot] + record + meta[slot + 3 :]
                        )
                        if tracing and next_state != state:
                            emit(
                                "lstate.transition",
                                seq=i,
                                thread=tid,
                                chunk=chunk_addr,
                                **{
                                    "from": lstate_names[state],
                                    "to": lstate_names[next_state],
                                },
                            )
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
                            holders[holder] = meta
                        n_broadcasts += 1
                        if tracing:
                            emit(update_event, bits=meta_bits)
            elif kind == 2:  # LOCK: OR the signature in, bump its counters
                entry = lock_sigs.get(addr)
                if entry is None:
                    sig = signature(addr)
                    entry = lock_sigs[addr] = (
                        sig,
                        tuple(bit for bit in range(vector_bits) if sig >> bit & 1),
                    )
                lock_values[tid] = lock_values.get(tid, 0) | entry[0]
                counters = lock_counters.get(tid)
                if counters is None:
                    counters = lock_counters[tid] = [0] * vector_bits
                for bit in entry[1]:
                    if counters[bit] < counter_max:
                        counters[bit] += 1
                held = lock_held.get(tid)
                if held is None:
                    held = lock_held[tid] = {}
                held[addr] = held.get(addr, 0) + 1
                n_acquires += 1
            elif kind == 3:  # UNLOCK: drop the counters, clear bits at zero
                held = lock_held.get(tid)
                depth = held.get(addr, 0) if held is not None else 0
                if depth <= 0:
                    raise DetectorError(
                        f"t{tid} released lock 0x{addr:x} it never took"
                    )
                if depth == 1:
                    del held[addr]
                else:
                    held[addr] = depth - 1
                sig, bits = lock_sigs[addr]
                value = lock_values[tid]
                if use_counters:
                    counters = lock_counters[tid]
                    for bit in bits:
                        count = counters[bit]
                        if count:
                            count = counters[bit] = count - 1
                        if not count:
                            value &= ~(1 << bit)
                else:
                    value &= ~sig
                lock_values[tid] = value
                n_releases += 1
            elif kind == 4:  # BARRIER
                count = arrivals.get(addr, 0) + 1
                if count < participants[i]:
                    arrivals[addr] = count
                else:
                    arrivals[addr] = 0
                    self._n_episodes += 1
                    if barrier_reset:
                        # Every live copy becomes the one fresh record.
                        touched = 0
                        for holders in lines.values():
                            touched += len(holders)
                            for holder in holders:
                                holders[holder] = fresh
                        self._n_resets += 1
                        self._n_reset_copies += touched
                        reset_touched[touched] = reset_touched.get(touched, 0) + 1
                        if tracing:
                            emit("barrier.reset", barrier=addr, copies=touched)
            # kind == 5 (COMPUTE): cycles already on the tape.

        self._n_candidate_updates = n_candidate_updates
        self._n_piggybacks = n_piggybacks
        self._n_acquires = n_acquires
        self._n_releases = n_releases
        self._n_checks = n_checks
        self._n_broadcasts = n_broadcasts
        self._n_reports = n_reports
        self._n_collisions = n_collisions

    def finish_batch(self) -> DetectionResult:
        """Assemble the result: private charges over the shared tape totals.

        Metadata costs come from the machine's
        :class:`~repro.sim.bus.MetaCostModel` — the same constants and stat
        keys the scalar fabric methods charge — so the reconstruction is
        exact on the snoopy bus and the directory fabric alike.
        """
        tape = self._tape
        costs = self.d.costs
        meta_model = self._meta_model
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
        n_lockreg = self._n_acquires + self._n_releases
        if n_lockreg:
            cycles = n_lockreg * costs.lock_register_update
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
        metrics = self._metrics
        if metrics is not None:
            metrics.observe_counts("machine.access_cycles", self._access_cycles)
            refinements = sum(self._refined_popcounts)
            if refinements:
                metrics.add("obs.lockset_refinements", refinements)
            metrics.observe_counts(
                "hard.candidate_popcount", dict(enumerate(self._refined_popcounts))
            )
            if self._n_collisions:
                metrics.add("obs.bloom_collision_bits", self._n_collisions)
            metrics.observe_counts("hard.barrier_reset_copies", self._reset_touched)
        return DetectionResult(
            detector=self.d.name,
            reports=self.log,
            stats=stats,
            cycles=tape.machine_cycles + extra,
            detector_extra_cycles=extra,
        )
