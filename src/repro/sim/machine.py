"""The simulated CMP: private L1s, inclusive shared L2, a coherence fabric.

The :class:`Machine` satisfies program-level memory accesses one cache line
at a time, maintains MESI coherence among the per-core L1s with an inclusive
shared L2 behind them, charges latency cycles (Table 1 parameters), and
routes every coherence decision through the configured fabric — the
paper's snoopy broadcast bus by default, or the Section 3.4 directory
(:mod:`repro.sim.fabric`) when ``MachineConfig.coherence = "directory"`` —
at any power-of-two core count.  It also
notifies registered :class:`~repro.sim.coherence.MachineListener` objects of
every metadata-relevant event: fills (with their data source), writebacks,
evictions, invalidations, and L2 displacements.  :meth:`Machine.access` is
the per-event path; :meth:`Machine.record` walks a whole columnar trace
through the same state and returns the event stream as a machine tape's
packed arrays instead of calling listeners.

Invariants maintained (checked in tests and by :meth:`check_invariants`):

* inclusion — every valid L1 line is also valid in the L2;
* single writer — at most one L1 holds a line in Modified/Exclusive state,
  and then no other L1 holds it at all;
* shared readers — if two or more L1s hold a line, all hold it Shared.
"""

from __future__ import annotations

from array import array

from repro.common.addresses import spanned_lines
from repro.common.coltrace import KIND_COMPUTE, KIND_UNLOCK, ColumnarTrace
from repro.common.config import MachineConfig
from repro.common.errors import CoherenceError, ConfigError, SimulationError
from repro.common.stats import StatCounters
from repro.sim.cache import MESI, Cache, CacheLine, Victim
from repro.sim.fabric import make_fabric
from repro.sim.coherence import (
    HOOK_FILL_CORE,
    HOOK_FILL_L2,
    HOOK_FILL_MEM,
    HOOK_INVALIDATE,
    HOOK_L1_EVICT,
    HOOK_L2_EVICT,
    HOOK_WRITEBACK,
    L2_SOURCE,
    MEMORY_SOURCE,
    AccessResult,
    EvictionRecord,
    FillSource,
    LineAccessResult,
    MachineListener,
)

_MODIFIED = MESI.MODIFIED
_EXCLUSIVE = MESI.EXCLUSIVE
_SHARED = MESI.SHARED
_INVALID = MESI.INVALID
_OWNER_STATES = (_MODIFIED, _EXCLUSIVE)

#: Size in bytes of a lock word: each lock and unlock writes one (its
#: acquire/release bus traffic).
LOCK_WORD_BYTES = 4

#: Pre-built stat names for the per-access counters (hot path).
_ACCESS_STAT = {
    (level, is_write): f"access.{level}_{'w' if is_write else 'r'}"
    for level in ("l1", "c2c", "l2", "memory")
    for is_write in (False, True)
}


class Machine:
    """A functional model of the paper's CMP memory system (4..N cores).

    The access path is the cost of every scalar walk (tape recording has
    its own columnar kernel, :meth:`record`), so it avoids per-access
    allocation and helper calls where it can: fill sources are built once
    per machine, listener callbacks are bound once per (un)registration,
    counters whose increments are literal constants bump the live counter
    directly, and the ``_holders`` map answers every "who else holds this
    line" question — the E-vs-S fill state, the ``shared_after`` flag and
    L2 back-invalidation — without building a sorted list or scanning the
    L1s.
    """

    def __init__(self, config: MachineConfig | None = None):
        self.config = config or MachineConfig()
        self.l1s = [
            Cache(self.config.l1, name=f"L1#{core}")
            for core in range(self.config.num_cores)
        ]
        self.l2 = Cache(self.config.l2, name="L2")
        self.bus = make_fabric(self.config)
        self.stats = StatCounters()
        self.evictions = EvictionRecord()
        self._listeners: list[MachineListener] = []
        self._bind_hooks()
        self._cycles = 0
        # line address -> set of cores whose L1 holds a valid copy.  Kept in
        # lockstep with the L1 contents; profiling showed deriving this by
        # probing every L1 per access dominated simulation time.
        self._holders: dict[int, set[int]] = {}
        # thread id -> placed core, filled lazily on first sighting so the
        # placement counters reflect the threads that actually ran.
        self._thread_cores: dict[int, int] = {}
        self._occupied_cores: set[int] = set()
        # Hot-path constants.
        self._counts = self.stats._counts
        self._num_cores = self.config.num_cores
        self._line_size = self.config.line_size
        self._line_mask = ~(self._line_size - 1)
        self._l1_latency = self.config.l1.latency_cycles
        self._l2_latency = self.config.l2.latency_cycles
        self._memory_latency = self.config.memory_latency_cycles
        self._charge_keys: dict[str, str] = {}
        self._core_sources = tuple(
            FillSource.from_core(core) for core in range(self._num_cores)
        )

    # -------------------------------------------------------------- listeners

    def add_listener(self, listener: MachineListener) -> None:
        """Register a coherence-event observer (e.g. a race detector)."""
        self._listeners.append(listener)
        self._bind_hooks()

    def remove_listener(self, listener: MachineListener) -> None:
        """Unregister a previously added observer."""
        self._listeners.remove(listener)
        self._bind_hooks()

    def _bind_hooks(self) -> None:
        """Bind every listener's callbacks once, in registration order."""
        listeners = self._listeners
        self._on_fill = tuple(lst.on_fill for lst in listeners)
        self._on_writeback = tuple(lst.on_writeback for lst in listeners)
        self._on_l1_evict = tuple(lst.on_l1_evict for lst in listeners)
        self._on_invalidate = tuple(lst.on_invalidate for lst in listeners)
        self._on_l2_evict = tuple(lst.on_l2_evict for lst in listeners)

    # ----------------------------------------------------------------- timing

    @property
    def cycles(self) -> int:
        """Total cycles charged so far (accesses + extensions + compute)."""
        return self._cycles

    def charge(self, cycles: int, reason: str) -> None:
        """Charge extra cycles (used by detectors and the compute model)."""
        if cycles < 0:
            raise SimulationError(f"negative cycle charge: {cycles}")
        self._cycles += cycles
        key = self._charge_keys.get(reason)
        if key is None:
            key = self._charge_keys[reason] = f"cycles.{reason}"
        self.stats.add(key, cycles)

    # -------------------------------------------------------------- topology

    def sharers(self, line_addr: int, *, excluding: int | None = None) -> list[int]:
        """Cores whose L1 holds a valid copy of ``line_addr``."""
        holders = self._holders.get(line_addr)
        if not holders:
            return []
        if excluding is None:
            return sorted(holders)
        return sorted(core for core in holders if core != excluding)

    def has_other_sharers(self, line_addr: int, *, excluding: int) -> bool:
        """True iff any core besides ``excluding`` holds ``line_addr``.

        Equivalent to ``bool(self.sharers(line_addr, excluding=excluding))``
        but without building (and sorting) the list — the detectors call this
        on every metadata change to decide whether a broadcast is needed.
        """
        holders = self._holders.get(line_addr)
        if not holders:
            return False
        return len(holders) > 1 or excluding not in holders

    def _track_drop(self, core: int, line_addr: int) -> None:
        holders = self._holders.get(line_addr)
        if holders is not None:
            holders.discard(core)
            if not holders:
                del self._holders[line_addr]

    def core_for_thread(self, thread_id: int) -> int:
        """Thread→core placement under the configured policy.

        Delegates the mapping itself to
        :meth:`~repro.common.config.MachineConfig.core_of` (the single
        source of truth shared with the tape recorder and the batch
        kernels) and counts placements: ``machine.threads.placed`` ticks
        once per distinct thread, ``machine.cores.oversubscribed`` once
        per thread that lands on an already-occupied core — so a 64-core
        run with 8 threads, or an 8-thread run folded onto 4 cores, is
        visible in the counters instead of silent.
        """
        core = self._thread_cores.get(thread_id)
        if core is None:
            core = self.config.core_of(thread_id)
            self._thread_cores[thread_id] = core
            self.stats.add("machine.threads.placed")
            if core in self._occupied_cores:
                self.stats.add("machine.cores.oversubscribed")
            else:
                self._occupied_cores.add(core)
        return core

    # ------------------------------------------------------------ access path

    def access(self, core: int, addr: int, size: int, is_write: bool) -> AccessResult:
        """Perform one program access, spanning lines if necessary."""
        if not 0 <= core < self._num_cores:
            raise SimulationError(f"no such core: {core}")
        line_addr = addr & self._line_mask
        if size > 0 and (addr + size - 1) & self._line_mask == line_addr:
            result = self._access_line(core, line_addr, is_write)
            lines = (result,)
            total = result.cycles
        else:
            # Straddling accesses (and the size check) take the general path.
            # A line the access already touched is pinned in the L2 until
            # the access completes: a later line's memory fill must not
            # displace it, which would back-invalidate the copy just used.
            line_size = self._line_size
            lines = tuple(
                self._access_line(
                    core, line, is_write, range(line_addr, line, line_size)
                )
                for line in spanned_lines(addr, size, line_size)
            )
            total = sum(r.cycles for r in lines)
        counts = self._counts
        counts["access.total"] += 1
        counts["access.writes" if is_write else "access.reads"] += 1
        return AccessResult(core, addr, size, is_write, lines, total)

    # Internal: one line's worth of the access.
    def _access_line(
        self, core: int, line_addr: int, is_write: bool, pinned=()
    ) -> LineAccessResult:
        line = self.l1s[core].access(line_addr)
        if line is not None:
            result = self._hit_path(core, line_addr, line, is_write)
        else:
            result = self._miss_path(core, line_addr, is_write, pinned)
        cycles = result.cycles
        self._cycles += cycles
        self.stats.add("cycles.access", cycles)
        self._counts[_ACCESS_STAT[result.hit_level, is_write]] += 1
        return result

    def _hit_path(
        self, core: int, line_addr: int, line: CacheLine, is_write: bool
    ) -> LineAccessResult:
        cycles = self._l1_latency
        upgraded = False
        invalidated: tuple[int, ...] = ()
        if is_write:
            state = line.state
            if state is _SHARED:
                # Bus upgrade: invalidate the other Shared copies.  The
                # fabric hooks charge the directory's indirection (home
                # lookup + exact-sharer invalidations); on the snoopy bus
                # they are free — the address phase above was the broadcast.
                bus = self.bus
                cycles += bus.address_only("upgrade")
                cycles += bus.home_lookup("upgrade")
                invalidated = tuple(self.sharers(line_addr, excluding=core))
                for other in invalidated:
                    self.l1s[other].set_state(line_addr, _INVALID)
                    self._track_drop(other, line_addr)
                    self.evictions.invalidations += 1
                    for hook in self._on_invalidate:
                        hook(other, line_addr)
                cycles += bus.sharer_invalidations(len(invalidated))
                upgraded = True
                line.state = _MODIFIED
            elif state is _EXCLUSIVE:
                line.state = _MODIFIED
        holders = self._holders.get(line_addr)
        # Positional in field order: this record is built on every access.
        return LineAccessResult(
            line_addr,
            is_write,
            "l1",
            None,  # fill_source
            upgraded,
            invalidated,
            None,  # l1_victim
            None,  # l2_victim_line
            # shared_after: has_other_sharers(line_addr, excluding=core).
            holders is not None and (len(holders) > 1 or core not in holders),
            cycles,
        )

    def _miss_path(
        self, core: int, line_addr: int, is_write: bool, pinned=()
    ) -> LineAccessResult:
        l1 = self.l1s[core]
        bus = self.bus
        line_size = self._line_size
        cycles = self._l1_latency

        # 1. Make room in the requester's L1 *first*, so the listener sees the
        #    victim leave before the new line arrives.
        l1_victim = l1.choose_victim(line_addr)
        if l1_victim is not None:
            l1.evict(l1_victim.line_addr)
            self._track_drop(core, l1_victim.line_addr)
            self._retire_l1_line(core, l1_victim)

        # 2. Locate the line: snoop the other L1s (free on the bus) or ask
        #    the home node (charged by the directory fabric).  The requester
        #    missed, so it is not among the holders.
        cycles += bus.home_lookup("miss")
        holders = self.sharers(line_addr)
        owner = self._owner_among(holders, line_addr)
        # Invalidations of the *requested* line are announced only after the
        # requester's on_fill, because the fill copies metadata from the
        # very copy the invalidation destroys.
        invalidated: list[int] = []
        l2_victim_line: int | None = None

        if owner is not None:
            # Cache-to-cache transfer from the Modified/Exclusive holder.
            hit_level = "c2c"
            source = self._core_sources[owner]
            cycles += bus.owner_forward()
            owner_l1 = self.l1s[owner]
            if owner_l1.lookup(line_addr).state is _MODIFIED:
                # Demotion writes the dirty data back into the L2.
                cycles += bus.line_transfer(line_size, "writeback")
                self.evictions.l1_writebacks += 1
                self._set_l2_dirty(line_addr)
                for hook in self._on_writeback:
                    hook(owner, line_addr)
            cycles += bus.line_transfer(line_size, "c2c")
            if is_write:
                owner_l1.set_state(line_addr, _INVALID)
                self._track_drop(owner, line_addr)
                self.evictions.invalidations += 1
                invalidated.append(owner)
                cycles += bus.sharer_invalidations(1)
            else:
                owner_l1.set_state(line_addr, _SHARED)
        elif holders:
            # Shared copies exist; the inclusive L2 supplies the data.
            hit_level = "l2"
            source = L2_SOURCE
            cycles += self._l2_latency
            cycles += bus.line_transfer(line_size, "l2_fill")
            if is_write:
                for other in holders:
                    self.l1s[other].set_state(line_addr, _INVALID)
                    self._track_drop(other, line_addr)
                    self.evictions.invalidations += 1
                    invalidated.append(other)
                cycles += bus.sharer_invalidations(len(holders))
        elif self.l2.access(line_addr) is not None:  # refreshes L2 LRU
            hit_level = "l2"
            source = L2_SOURCE
            cycles += self._l2_latency
            cycles += bus.line_transfer(line_size, "l2_fill")
        else:
            hit_level = "memory"
            source = MEMORY_SOURCE
            cycles += self._l2_latency  # L2 lookup that missed
            cycles += self._memory_latency
            cycles += bus.line_transfer(line_size, "mem_fill")
            l2_victim_line = self._fill_l2_from_memory(line_addr, pinned)

        # 3. Install in the requester's L1 — Shared if another core still
        #    holds the line after any invalidations, else Exclusive.
        sharers = self._holders.get(line_addr)
        shared_after = sharers is not None
        if is_write:
            new_state = _MODIFIED
        else:
            new_state = _SHARED if shared_after else _EXCLUSIVE
        # Step 1 made room, so the fill displaces nothing.
        if l1.fill(line_addr, new_state) is not None:  # pragma: no cover
            raise CoherenceError("L1 victim selected twice for one miss")
        if sharers is None:
            self._holders[line_addr] = {core}
        else:
            sharers.add(core)
        for hook in self._on_fill:
            hook(core, line_addr, source)
        for other in invalidated:
            for hook in self._on_invalidate:
                hook(other, line_addr)

        return LineAccessResult(
            line_addr,
            is_write,
            hit_level,
            source,
            False,  # upgraded
            tuple(invalidated),
            l1_victim,
            l2_victim_line,
            shared_after,
            cycles,
        )

    # ------------------------------------------------------- columnar kernel

    def record(self, cols: ColumnarTrace) -> tuple[array, ...]:
        """Walk ``cols``'s data-path events through this machine: a tape.

        The batch counterpart of :meth:`access`, as ``step_batch`` is of a
        detector's ``step``: every READ/WRITE and every lock word a
        LOCK/UNLOCK writes goes through the same L1s, L2, holders map and
        counters, with the same MESI decisions, LRU order and error
        checks, but as one loop body per line instead of a call chain, a
        result record and a listener callback per event.  COMPUTE events
        charge their cycles; every thread is placed as the scalar walk
        places it.

        Returns the nine packed arrays of a
        :class:`~repro.engine.tape.MachineTape`, in its serialisation
        order: ``hook_off``, ``hook_code``, ``hook_line``, ``hook_core``,
        ``hook_aux`` (one record per callback a listener would have
        received, in callback order), ``pig`` (per data event, non-memory
        fills plus dirty L1 victims), and ``sharer_off``, ``sharer_line``,
        ``sharer_flag`` (per line a data event touched, whether another
        core held it once the whole access was done).

        Counters are summed in locals and booked once at the end, with
        exactly the keys the scalar path would have created: a counter
        appears iff its event happened at least once, even when its value
        is 0 (a zero-cycle COMPUTE still creates ``cycles.compute``).

        Raises :class:`SimulationError` when a listener is registered:
        this kernel makes no listener callbacks, so such a machine must be
        driven per event through :meth:`access`.
        """
        if self._listeners:
            raise SimulationError(
                "Machine.record makes no listener callbacks, but "
                f"{len(self._listeners)} listener(s) are registered; drive "
                "the scalar Machine.access path per event instead"
            )
        n = cols.n
        kinds = cols.kind
        tids = cols.tid
        addrs = cols.addr
        sizes = cols.size
        cycles_col = cols.cycles

        hooks: list[int] = []
        extend = hooks.extend
        hook_off = array("q", bytes(8 * (n + 1)))
        pig = array("B", bytes(n))
        sharer_off = array("q", bytes(8 * (n + 1)))
        sharer_line = array("q")
        sharer_flag = array("B")
        append_line = sharer_line.append
        append_flag = sharer_flag.append
        n_sharers = 0

        l1_sets = [l1._sets for l1 in self.l1s]
        l2_sets = self.l2._sets
        holders = self._holders
        by_line = self.evictions.by_line
        line_size = self._line_size
        line_mask = self._line_mask
        shift = self.l2._line_shift
        l1_set_mask = self.l1s[0]._set_mask
        l1_ways = self.l1s[0]._ways
        l2_set_mask = self.l2._set_mask
        l2_ways = self.l2._ways

        # Occurrence counts; every cycle and counter total is a fixed
        # multiple of one of them (see the booking after the loop).
        hits = hits_w = 0  # L1 hits
        upgrades = upgrade_rounds = upgrade_msgs = 0  # S->M on a write hit
        c2c = c2c_w = c2c_dirty = 0  # fills from an M/E owner's L1
        l2_shared = l2_shared_w = l2_shared_msgs = 0  # L2 supply, S copies
        l2_hits = l2_hits_w = 0  # L2 supply, no L1 copy
        mem = mem_w = 0  # memory fills
        l1_victims = writebacks = 0
        l2_victims = l2_dirty_victims = back_rounds = back_msgs = 0
        accesses = access_writes = 0
        computes = compute_cycles = 0

        # Place every thread up front, as the scalar walk places each at
        # its first event of any kind (the placement counters do not
        # depend on the order).
        placed = {tid: self.core_for_thread(tid) for tid in sorted(set(tids))}

        for i, kind, tid, addr in zip(range(n), kinds, tids, addrs):
            hook_off[i] = len(hooks) >> 2
            sharer_off[i] = n_sharers
            if kind > KIND_UNLOCK:  # BARRIER / COMPUTE
                if kind == KIND_COMPUTE:
                    cycles = cycles_col[i]
                    if cycles < 0:
                        raise SimulationError(f"negative cycle charge: {cycles}")
                    computes += 1
                    compute_cycles += cycles
                continue
            core = placed[tid]
            core_sets = l1_sets[core]
            # Lock and unlock events write their lock word.
            size = sizes[i] if kind <= 1 else LOCK_WORD_BYTES
            is_write = kind != 0
            if size <= 0:
                raise ConfigError(f"access size must be positive, got {size}")
            first = line_addr = addr & line_mask
            last = (addr + size - 1) & line_mask
            accesses += 1
            if is_write:
                access_writes += 1
            count = 0
            while True:  # one pass per spanned line
                si = (line_addr >> shift) & l1_set_mask
                cset = core_sets[si]
                line = cset.get(line_addr)
                if line is not None:
                    # ---- L1 hit: refresh recency; a write may upgrade.
                    del cset[line_addr]
                    cset[line_addr] = line
                    hits += 1
                    if is_write:
                        hits_w += 1
                        state = line.state
                        if state is _SHARED:
                            upgrades += 1
                            sharers = holders.get(line_addr)
                            if sharers is not None and (
                                len(sharers) > 1 or core not in sharers
                            ):
                                upgrade_rounds += 1
                                for other in sorted(sharers):
                                    if other == core:
                                        continue
                                    if l1_sets[other][si].pop(line_addr, None) is None:
                                        # raises: state change on an absent line
                                        self.l1s[other].set_state(line_addr, _INVALID)
                                    sharers.discard(other)
                                    upgrade_msgs += 1
                                    extend((HOOK_INVALIDATE, line_addr, other, 0))
                                if not sharers:
                                    del holders[line_addr]
                            line.state = _MODIFIED
                        elif state is _EXCLUSIVE:
                            line.state = _MODIFIED
                else:
                    # ---- L1 miss.  1. Make room: the LRU way leaves first.
                    if len(cset) >= l1_ways:
                        for victim in cset:
                            break
                        victim_line = cset.pop(victim)
                        victim_holders = holders.get(victim)
                        if victim_holders is not None:
                            victim_holders.discard(core)
                            if not victim_holders:
                                del holders[victim]
                        l1_victims += 1
                        if victim_line.state is _MODIFIED:
                            writebacks += 1
                            l2_line = l2_sets[(victim >> shift) & l2_set_mask].get(victim)
                            if l2_line is None:
                                self._set_l2_dirty(victim)  # raises: inclusion
                            l2_line.state = _MODIFIED
                            extend((
                                HOOK_WRITEBACK, victim, core, 0,
                                HOOK_L1_EVICT, victim, core, 1,
                            ))
                            count += 1
                        else:
                            extend((HOOK_L1_EVICT, victim, core, 0))
                    # 2. Locate the line and take it from its supplier.
                    sharers = holders.get(line_addr)
                    if sharers:
                        owner = -1
                        for other in sharers:
                            other_line = l1_sets[other][si].get(line_addr)
                            if other_line is not None and other_line.state in _OWNER_STATES:
                                if owner >= 0:
                                    self._owner_among(sorted(sharers), line_addr)
                                owner = other
                                owner_line = other_line
                        count += 1
                        if owner >= 0:
                            c2c += 1
                            if owner_line.state is _MODIFIED:
                                c2c_dirty += 1
                                writebacks += 1
                                l2_line = l2_sets[(line_addr >> shift) & l2_set_mask].get(
                                    line_addr
                                )
                                if l2_line is None:
                                    self._set_l2_dirty(line_addr)  # raises
                                l2_line.state = _MODIFIED
                                extend((HOOK_WRITEBACK, line_addr, owner, 0))
                            if is_write:
                                c2c_w += 1
                                del l1_sets[owner][si][line_addr]
                                sharers.discard(owner)
                                sharers.add(core)
                                state = _MODIFIED
                                extend((
                                    HOOK_FILL_CORE, line_addr, core, owner,
                                    HOOK_INVALIDATE, line_addr, owner, 0,
                                ))
                            else:
                                owner_line.state = _SHARED
                                sharers.add(core)
                                state = _SHARED
                                extend((HOOK_FILL_CORE, line_addr, core, owner))
                        else:
                            # Shared copies only: the inclusive L2 supplies.
                            l2_shared += 1
                            extend((HOOK_FILL_L2, line_addr, core, 0))
                            if is_write:
                                l2_shared_w += 1
                                for other in sorted(sharers):
                                    if l1_sets[other][si].pop(line_addr, None) is None:
                                        # raises: state change on an absent line
                                        self.l1s[other].set_state(line_addr, _INVALID)
                                    l2_shared_msgs += 1
                                    extend((HOOK_INVALIDATE, line_addr, other, 0))
                                sharers.clear()
                                state = _MODIFIED
                            else:
                                state = _SHARED
                            sharers.add(core)
                    else:
                        l2_set = l2_sets[(line_addr >> shift) & l2_set_mask]
                        l2_line = l2_set.get(line_addr)
                        if l2_line is not None:
                            del l2_set[line_addr]
                            l2_set[line_addr] = l2_line
                            l2_hits += 1
                            if is_write:
                                l2_hits_w += 1
                            count += 1
                        else:
                            mem += 1
                            if is_write:
                                mem_w += 1
                            if len(l2_set) >= l2_ways:
                                # L2 displacement: back-invalidate every L1
                                # copy of the victim (inclusion), in core order.
                                # The LRU line goes, unless this access already
                                # touched it (lines first..line_addr - 1 are
                                # pinned while another way can go).
                                for victim in l2_set:
                                    if victim < first or victim >= line_addr:
                                        break
                                else:
                                    for victim in l2_set:
                                        break
                                victim_dirty = l2_set.pop(victim).state is _MODIFIED
                                victim_holders = holders.pop(victim, None)
                                if victim_holders:
                                    vsi = (victim >> shift) & l1_set_mask
                                    for other in sorted(victim_holders):
                                        other_line = l1_sets[other][vsi].pop(victim, None)
                                        if other_line is None:
                                            raise CoherenceError(
                                                f"holders map names core {other} for "
                                                f"0x{victim:x} but its L1 has no copy"
                                            )
                                        if other_line.state is _MODIFIED:
                                            victim_dirty = True
                                            writebacks += 1
                                        back_msgs += 1
                                        extend((HOOK_INVALIDATE, victim, other, 0))
                                    back_rounds += 1
                                if victim_dirty:
                                    l2_dirty_victims += 1
                                l2_victims += 1
                                by_line[victim] = by_line.get(victim, 0) + 1
                                extend((HOOK_L2_EVICT, victim, -1, 0))
                            l2_set[line_addr] = CacheLine(line_addr, _EXCLUSIVE)
                        holders[line_addr] = {core}
                        if l2_line is not None:
                            extend((HOOK_FILL_L2, line_addr, core, 0))
                        else:
                            extend((HOOK_FILL_MEM, line_addr, core, 0))
                        state = _MODIFIED if is_write else _EXCLUSIVE
                    # 3. Install in the requester's L1.
                    cset[line_addr] = CacheLine(line_addr, state)
                if line_addr == last:
                    break
                line_addr += line_size
            if kind <= 1:
                # Sharer flags are read once the whole access is done.
                pig[i] = count
                line_addr = first
                while True:
                    sharers = holders.get(line_addr)
                    append_line(line_addr)
                    append_flag(
                        1
                        if sharers is not None
                        and (len(sharers) > 1 or core not in sharers)
                        else 0
                    )
                    n_sharers += 1
                    if line_addr == last:
                        break
                    line_addr += line_size
        hook_off[n] = len(hooks) >> 2
        sharer_off[n] = n_sharers

        # ---- Book the totals, creating exactly the scalar path's keys.
        counts = self._counts
        l2_fills = l2_shared + l2_hits
        for level, total, writes in (
            ("l1", hits, hits_w),
            ("c2c", c2c, c2c_w),
            ("l2", l2_fills, l2_shared_w + l2_hits_w),
            ("memory", mem, mem_w),
        ):
            if writes:
                counts[_ACCESS_STAT[level, True]] += writes
            if total > writes:
                counts[_ACCESS_STAT[level, False]] += total - writes
        misses = c2c + l2_fills + mem
        if hits or misses:
            home, invalidate, forward = self.bus.scale_cycles
            transfer = self.config.bus.line_transfer_cycles(line_size)
            access_cycles = (
                self._l1_latency * (hits + misses)
                + home * (misses + upgrades)
                + self.config.bus.cycles_per_transaction * upgrades
                + invalidate * (upgrade_rounds + c2c_w + l2_shared_w)
                + (forward + transfer) * c2c
                + transfer * c2c_dirty
                + (self._l2_latency + transfer) * l2_fills
                + (self._l2_latency + self._memory_latency + transfer) * mem
            )
            self._cycles += access_cycles
            counts["cycles.access"] += access_cycles
        if accesses:
            counts["access.total"] += accesses
        if access_writes:
            counts["access.writes"] += access_writes
        if accesses > access_writes:
            counts["access.reads"] += accesses - access_writes
        if computes:
            self.charge(compute_cycles, "compute")
        self.bus.book(
            line_size,
            {
                "writeback": writebacks,
                "c2c": c2c,
                "l2_fill": l2_fills,
                "mem_fill": mem,
                "mem_writeback": l2_dirty_victims,
            },
            {"upgrade": upgrades},
            home_lookups=misses + upgrades,
            invalidation_rounds=upgrade_rounds + c2c_w + l2_shared_w + back_rounds,
            invalidation_messages=upgrade_msgs + c2c_w + l2_shared_msgs + back_msgs,
            owner_forwards=c2c,
        )
        ev = self.evictions
        ev.l1_evictions += l1_victims
        ev.l1_writebacks += writebacks
        ev.invalidations += upgrade_msgs + c2c_w + l2_shared_msgs
        ev.back_invalidations += back_msgs
        ev.l2_evictions += l2_victims
        ev.l2_writebacks_to_memory += l2_dirty_victims
        return (
            hook_off,
            array("B", hooks[0::4]),
            array("q", hooks[1::4]),
            array("i", hooks[2::4]),
            array("i", hooks[3::4]),
            pig,
            sharer_off,
            sharer_line,
            sharer_flag,
        )

    # ------------------------------------------------------- eviction helpers

    def _retire_l1_line(self, core: int, victim: Victim) -> None:
        """Handle a capacity eviction from an L1."""
        self.evictions.l1_evictions += 1
        if victim.dirty:
            self.bus.line_transfer(self._line_size, "writeback")
            self.evictions.l1_writebacks += 1
            self._set_l2_dirty(victim.line_addr)
            for hook in self._on_writeback:
                hook(core, victim.line_addr)
        for hook in self._on_l1_evict:
            hook(core, victim.line_addr, victim.dirty)

    def _set_l2_dirty(self, line_addr: int) -> None:
        if not self.l2.contains(line_addr):
            raise CoherenceError(
                f"inclusion violated: writeback of 0x{line_addr:x} missed the L2"
            )
        self.l2.set_state(line_addr, _MODIFIED)

    def _fill_l2_from_memory(self, line_addr: int, pinned=()) -> int | None:
        """Install a fresh line in the L2; handle the inclusion victim.

        ``pinned`` holds the lines the in-flight access already touched,
        which the L2 does not choose as the victim while another way can go.
        """
        victim = self.l2.fill(line_addr, _EXCLUSIVE, pinned)
        if victim is None:
            return None
        # Back-invalidate every L1 copy of the victim (inclusion), in core
        # order; the holders map names exactly the L1s that have one.
        victim_line = victim.line_addr
        victim_dirty = victim.dirty
        holders = self.sharers(victim_line)
        for other in holders:
            l1 = self.l1s[other]
            line = l1.lookup(victim_line)
            if line is None:
                raise CoherenceError(
                    f"holders map names core {other} for 0x{victim_line:x} "
                    "but its L1 has no copy"
                )
            if line.state is _MODIFIED:
                victim_dirty = True
                self.evictions.l1_writebacks += 1
                self.bus.line_transfer(self._line_size, "writeback")
            l1.set_state(victim_line, _INVALID)
            self._track_drop(other, victim_line)
            self.evictions.back_invalidations += 1
            for hook in self._on_invalidate:
                hook(other, victim_line)
        self.bus.sharer_invalidations(len(holders))
        if victim_dirty:
            self.bus.line_transfer(self._line_size, "mem_writeback")
            self.evictions.l2_writebacks_to_memory += 1
        self.evictions.note_l2_eviction(victim_line)
        for hook in self._on_l2_evict:
            hook(victim_line)
        return victim_line

    def _owner_among(self, holders: list[int], line_addr: int) -> int | None:
        """The single M/E holder among ``holders``, if any."""
        owners = []
        for core in holders:
            line = self.l1s[core].lookup(line_addr)
            if line is not None and line.state in _OWNER_STATES:
                owners.append(core)
        if len(owners) > 1:
            raise CoherenceError(
                f"multiple M/E holders of 0x{line_addr:x}: {owners}"
            )
        return owners[0] if owners else None

    # ------------------------------------------------------------- invariants

    def check_invariants(self) -> None:
        """Raise :class:`CoherenceError` if a MESI/inclusion invariant fails.

        Intended for tests and property-based checks; O(total lines).
        """
        per_line: dict[int, list[tuple[int, MESI]]] = {}
        for core, l1 in enumerate(self.l1s):
            for line in l1.resident_lines():
                per_line.setdefault(line.tag, []).append((core, line.state))
        for line_addr, holders in per_line.items():
            if not self.l2.contains(line_addr):
                raise CoherenceError(
                    f"inclusion violated for 0x{line_addr:x}: in L1s "
                    f"{[c for c, _ in holders]} but not in L2"
                )
            exclusive = [c for c, s in holders if s in (MESI.MODIFIED, MESI.EXCLUSIVE)]
            if exclusive and len(holders) > 1:
                raise CoherenceError(
                    f"0x{line_addr:x} held M/E by {exclusive} alongside "
                    f"{len(holders) - 1} other copies"
                )
            if len(exclusive) > 1:
                raise CoherenceError(
                    f"0x{line_addr:x} has multiple M/E holders: {exclusive}"
                )
