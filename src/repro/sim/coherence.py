"""Coherence-event data types and the listener protocol.

The machine in ``repro.sim.machine`` implements a MESI snoopy protocol over
an inclusive shared L2.  Detectors do not read the caches directly; they
observe the protocol through :class:`MachineListener` callbacks and the
per-access :class:`LineAccessResult` records.  This is the software analogue
of the paper's design, where the candidate set and LState "are part of the
data content of the corresponding line" and move with coherence messages
(Section 3.4).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.sim.cache import Victim


class SourceKind(enum.Enum):
    """Where the data for a cache fill came from."""

    MEMORY = "memory"
    L2 = "l2"
    CORE = "core"


@dataclass(frozen=True)
class FillSource:
    """The supplier of a line on an L1 miss.

    ``core`` is meaningful only for :attr:`SourceKind.CORE` (cache-to-cache
    transfer from another L1 that held the line in Modified or Exclusive
    state).

    The memory and L2 sources are interned: :meth:`memory` and :meth:`l2`
    return the module singletons :data:`MEMORY_SOURCE` and
    :data:`L2_SOURCE`, and the machine keeps one core source per core, so
    it builds no source on its access path.  Listeners may test the two
    singletons by identity.
    """

    kind: SourceKind
    core: int | None = None

    @classmethod
    def memory(cls) -> "FillSource":
        """Fill satisfied by main memory (metadata starts fresh)."""
        return MEMORY_SOURCE

    @classmethod
    def l2(cls) -> "FillSource":
        """Fill satisfied by the shared L2 (metadata copied from L2)."""
        return L2_SOURCE

    @classmethod
    def from_core(cls, core: int) -> "FillSource":
        """Fill satisfied by another L1 (metadata copied from that core)."""
        return cls(SourceKind.CORE, core)

    def __str__(self) -> str:
        if self.kind is SourceKind.CORE:
            return f"core{self.core}"
        return self.kind.value


#: The interned memory and L2 sources (see :class:`FillSource`).
MEMORY_SOURCE = FillSource(SourceKind.MEMORY)
L2_SOURCE = FillSource(SourceKind.L2)


@dataclass(slots=True)
class LineAccessResult:
    """Everything that happened while satisfying one line's worth of access.

    A slotted record built once per line on the machine's access path
    (read-only by convention: nothing mutates it after construction).

    Attributes:
        line_addr: base address of the accessed line.
        is_write: whether the access was a write.
        hit_level: ``"l1"``, ``"c2c"``, ``"l2"`` or ``"memory"``.
        fill_source: supplier on a miss; None on an L1 hit.
        upgraded: a Shared→Modified upgrade transaction was issued.
        invalidated_cores: other cores whose copies were invalidated.
        l1_victim: line displaced from the requester's L1, if any.
        l2_victim_line: line displaced from the L2 (metadata lost), if any.
        shared_after: True if, after this access, at least one *other* L1
            still holds a valid copy — the condition under which a changed
            candidate set must be broadcast (Figure 6).
        cycles: latency charged for this line access (excluding detector
            extensions, which the detector charges separately).
    """

    line_addr: int
    is_write: bool
    hit_level: str
    fill_source: FillSource | None
    upgraded: bool
    invalidated_cores: tuple[int, ...]
    l1_victim: Victim | None
    l2_victim_line: int | None
    shared_after: bool
    cycles: int

    @property
    def missed(self) -> bool:
        """True if the access missed in the requester's L1."""
        return self.hit_level != "l1"

    @property
    def filled_from_memory(self) -> bool:
        """True if the line entered the hierarchy fresh from memory."""
        return (
            self.fill_source is not None
            and self.fill_source.kind is SourceKind.MEMORY
        )


@dataclass(slots=True)
class AccessResult:
    """Result of one program-level access (possibly spanning lines).

    Slotted and read-only by convention, like :class:`LineAccessResult`.
    """

    core: int
    addr: int
    size: int
    is_write: bool
    lines: tuple[LineAccessResult, ...]
    cycles: int


@dataclass
class EvictionRecord:
    """Aggregate eviction statistics kept by the machine for diagnostics."""

    l1_evictions: int = 0
    l1_writebacks: int = 0
    l2_evictions: int = 0
    l2_writebacks_to_memory: int = 0
    invalidations: int = 0
    back_invalidations: int = 0
    by_line: dict[int, int] = field(default_factory=dict)

    def note_l2_eviction(self, line_addr: int) -> None:
        """Record one L2 displacement of ``line_addr``."""
        self.l2_evictions += 1
        self.by_line[line_addr] = self.by_line.get(line_addr, 0) + 1


class MachineListener:
    """Observer of coherence events; all hooks are no-ops by default.

    Detectors that keep per-cache metadata (HARD, default happens-before)
    subclass this.  Callback order within one access:

    1. ``on_writeback`` / ``on_l1_evict`` for the requester's displaced line,
    2. ``on_writeback`` for a Modified remote copy being demoted,
    3. ``on_invalidate`` + ``on_l2_evict`` for an L2 victim (inclusion),
    4. ``on_fill`` for the requester's new copy,
    5. ``on_invalidate`` for each remote copy of the *requested* line killed
       by a write request — after the fill, because the fill copies metadata
       from the copy the invalidation destroys.
    """

    def on_fill(self, core: int, line_addr: int, source: FillSource) -> None:
        """Core ``core`` received ``line_addr`` from ``source``."""

    def on_writeback(self, core: int, line_addr: int) -> None:
        """Core ``core`` wrote its Modified copy of ``line_addr`` to the L2."""

    def on_l1_evict(self, core: int, line_addr: int, dirty: bool) -> None:
        """Core ``core`` displaced ``line_addr`` from its L1 (capacity)."""

    def on_invalidate(self, core: int, line_addr: int) -> None:
        """Core ``core``'s copy of ``line_addr`` was invalidated."""

    def on_l2_evict(self, line_addr: int) -> None:
        """``line_addr`` left the hierarchy entirely; its metadata is lost."""
