"""Set-associative cache model with MESI line states and LRU replacement.

This is the storage component shared by the private L1s and the shared L2 of
the simulated CMP (Table 1).  It is purely functional bookkeeping: which
lines are resident, in which MESI state, and which line a fill will displace.
Protocol decisions (who supplies data, who gets invalidated) live in
``repro.sim.coherence``; timing lives in ``repro.sim.timing``.

The model is *functional*, not cycle-accurate: it tracks exactly the state
the HARD paper's mechanisms depend on — residency (for the L2-displacement
detection-window effect of Section 3.6 and Tables 4/5), sharing (for the
candidate-set piggybacking of Section 3.4) and evictions — while charging
latencies through a separate accounting model.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator

from repro.common.config import CacheConfig
from repro.common.errors import SimulationError


class MESI(enum.Enum):
    """MESI coherence states for a cache line."""

    MODIFIED = "M"
    EXCLUSIVE = "E"
    SHARED = "S"
    INVALID = "I"


@dataclass(slots=True)
class CacheLine:
    """One resident cache line.

    ``tag`` is the full line base address (we do not split tag/index bits —
    the base address is unambiguous).  Recency is not stored on the line:
    its position in the set's dict is (see :class:`Cache`).
    """

    tag: int
    state: MESI

    @property
    def dirty(self) -> bool:
        """True if the line holds data newer than the level below."""
        return self.state is MESI.MODIFIED


@dataclass(slots=True)
class Victim:
    """A line displaced by a fill: its address, and whether it was dirty.

    Slotted and read-only by convention (one is built per displacement).
    """

    line_addr: int
    dirty: bool


class Cache:
    """A set-associative cache of :class:`CacheLine` with true-LRU eviction.

    Each set is a dict kept in recency order: a fill inserts at the end, a
    hit deletes and re-inserts the line, so the least recently used line
    is always the set's first entry.  The machine's columnar recording
    kernel (:meth:`~repro.sim.machine.Machine.record`) edits the same
    dicts the same way, so both paths share one replacement order.

    Every method takes any byte address and masks it to its line; masking
    an already line-aligned address is a no-op, so the machine passes its
    line addresses straight through.  Set indexing is inlined (one shift
    and mask, no helper call) because these methods sit on every simulated
    access.
    """

    def __init__(self, config: CacheConfig, name: str = "cache"):
        self.config = config
        self.name = name
        self._sets: list[dict[int, CacheLine]] = [
            {} for _ in range(config.num_sets)
        ]
        # Hot-path constants (profiled: recomputing them per lookup is the
        # single largest cost of a simulation pass).
        self._line_mask = ~(config.line_size - 1)
        self._line_shift = config.line_size.bit_length() - 1
        self._set_mask = config.num_sets - 1
        self._ways = config.associativity

    # ----------------------------------------------------------------- lookup

    def lookup(self, addr: int) -> CacheLine | None:
        """Return the resident line containing ``addr``, or None.

        Does *not* update LRU state; use :meth:`access` on the hit path.
        """
        line_addr = addr & self._line_mask
        line = self._sets[(line_addr >> self._line_shift) & self._set_mask].get(
            line_addr
        )
        if line is not None and line.state is MESI.INVALID:
            return None
        return line

    def access(self, addr: int) -> CacheLine | None:
        """Lookup that also refreshes LRU recency on a hit."""
        line_addr = addr & self._line_mask
        cache_set = self._sets[(line_addr >> self._line_shift) & self._set_mask]
        line = cache_set.get(line_addr)
        if line is None or line.state is MESI.INVALID:
            return None
        # Move to the most recent end of the set.
        del cache_set[line_addr]
        cache_set[line_addr] = line
        return line

    def contains(self, addr: int) -> bool:
        """True if the line containing ``addr`` is resident and valid."""
        return self.lookup(addr) is not None

    # ------------------------------------------------------------------ fills

    def choose_victim(self, line_addr: int, pinned=()) -> Victim | None:
        """Return the line a fill of ``line_addr`` would displace, if any.

        Returns None when the target set still has a free way (or already
        holds the line).  The victim is the least recently used line not in
        ``pinned`` (the lines an in-flight access has already touched), or
        the least recently used line when every way is pinned.  Does not
        modify the cache.
        """
        line_addr &= self._line_mask
        cache_set = self._sets[(line_addr >> self._line_shift) & self._set_mask]
        if line_addr in cache_set or len(cache_set) < self._ways:
            return None
        lines = iter(cache_set.values())
        victim = next(lines)  # least recently used
        if victim.tag in pinned:
            victim = next(
                (line for line in lines if line.tag not in pinned), victim
            )
        return Victim(victim.tag, victim.state is MESI.MODIFIED)

    def fill(self, line_addr: int, state: MESI, pinned=()) -> Victim | None:
        """Install ``line_addr`` in ``state``; return the displaced victim.

        The caller is responsible for acting on the victim (writeback,
        back-invalidation of upper levels, metadata loss callbacks) *before*
        relying on the new line.  ``pinned`` is passed to
        :meth:`choose_victim`.
        """
        if state is MESI.INVALID:
            raise SimulationError("cannot fill a line in Invalid state")
        line_addr &= self._line_mask
        cache_set = self._sets[(line_addr >> self._line_shift) & self._set_mask]
        if line_addr in cache_set:
            raise SimulationError(
                f"{self.name}: fill of already-resident line 0x{line_addr:x}"
            )
        victim = self.choose_victim(line_addr, pinned)
        if victim is not None:
            del cache_set[victim.line_addr]
        cache_set[line_addr] = CacheLine(line_addr, state)
        return victim

    # ------------------------------------------------------- state management

    def set_state(self, line_addr: int, state: MESI) -> None:
        """Change the MESI state of a resident line (or evict, for INVALID)."""
        line_addr &= self._line_mask
        cache_set = self._sets[(line_addr >> self._line_shift) & self._set_mask]
        line = cache_set.get(line_addr)
        if line is None:
            raise SimulationError(
                f"{self.name}: state change on absent line 0x{line_addr:x}"
            )
        if state is MESI.INVALID:
            del cache_set[line_addr]
        else:
            line.state = state

    def evict(self, line_addr: int) -> CacheLine:
        """Forcibly remove a resident line, returning its final contents."""
        line_addr &= self._line_mask
        cache_set = self._sets[(line_addr >> self._line_shift) & self._set_mask]
        line = cache_set.pop(line_addr, None)
        if line is None:
            raise SimulationError(
                f"{self.name}: eviction of absent line 0x{line_addr:x}"
            )
        return line

    # ------------------------------------------------------------- inspection

    def resident_lines(self) -> Iterator[CacheLine]:
        """Iterate over every valid resident line (order unspecified)."""
        for cache_set in self._sets:
            yield from cache_set.values()

    def occupancy(self) -> int:
        """Number of valid resident lines."""
        return sum(len(s) for s in self._sets)

    def __repr__(self) -> str:
        return (
            f"Cache({self.name}, {self.config.size_bytes}B, "
            f"{self.occupancy()}/{self.config.num_lines} lines)"
        )
