"""Cache-resident metadata tracking for hardware race detectors.

In HARD, the candidate set and LState of a line "are part of the data
content of the corresponding line" (Section 3.4): every cache copy of the
line carries them, they travel with coherence transfers, and they are lost
when the line leaves the hierarchy (Section 3.6).  The default
happens-before implementation stores its timestamps the same way.

:class:`CacheMetadataStore` models this faithfully and generically.  It is a
:class:`~repro.sim.coherence.MachineListener` that keeps one metadata object
per *holder* of a line — each core's L1 copy plus the L2 copy — and mirrors
every coherence event:

* fill from memory → fresh metadata (detector-supplied factory);
* fill from the L2 or another core → clone of the supplier's copy;
* L1 writeback → the L2 copy is refreshed from the core's copy;
* invalidation / eviction → that holder's copy disappears;
* L2 displacement → *all* record of the line disappears.

With HARD's update broadcast enabled (Figure 6), every copy of a line is
kept identical via :meth:`update_all_copies`; with the broadcast ablated,
copies diverge exactly as stale hardware copies would.
"""

from __future__ import annotations

from typing import Callable, Generic, Hashable, TypeVar

from repro.common.errors import DetectorError
from repro.sim.coherence import FillSource, MachineListener, SourceKind

M = TypeVar("M")

#: Holder key for the shared L2's copy of a line.
L2_HOLDER = "l2"

Holder = Hashable  # an int core id, or L2_HOLDER


class CacheMetadataStore(MachineListener, Generic[M]):
    """Per-holder metadata copies for every line in the hierarchy."""

    def __init__(
        self,
        fresh: Callable[[int], M],
        clone: Callable[[M], M],
    ):
        """Create an empty store.

        Args:
            fresh: called with the line address when a line is fetched from
                memory; returns brand-new metadata (for HARD: all-ones
                BFVectors, Exclusive LState).
            clone: deep-copies a metadata object for a coherence transfer.
        """
        self._fresh = fresh
        self._clone = clone
        # line address -> holder -> metadata object
        self._lines: dict[int, dict[Holder, M]] = {}

    # ----------------------------------------------------------------- access

    def get(self, holder: Holder, line_addr: int) -> M | None:
        """The metadata object ``holder`` currently has for ``line_addr``."""
        per_holder = self._lines.get(line_addr)
        if per_holder is None:
            return None
        return per_holder.get(holder)

    def require(self, holder: Holder, line_addr: int) -> M:
        """Like :meth:`get` but raises if the copy is missing.

        A missing copy on the access path indicates the store was not
        attached to the machine before simulation started.
        """
        meta = self.get(holder, line_addr)
        if meta is None:
            raise DetectorError(
                f"no metadata copy of line 0x{line_addr:x} at holder {holder!r}"
            )
        return meta

    def tracked_lines(self) -> list[int]:
        """All line addresses with at least one live copy."""
        return list(self._lines)

    def set(self, holder: Holder, line_addr: int, meta: M) -> None:
        """Replace one holder's copy (the holder must already have one)."""
        per_holder = self._lines.get(line_addr)
        if per_holder is None or holder not in per_holder:
            raise DetectorError(
                f"cannot update absent copy of 0x{line_addr:x} at {holder!r}"
            )
        per_holder[holder] = meta

    def update_all_copies(self, line_addr: int, meta: M) -> int:
        """Broadcast: make every live copy of the line equal to ``meta``.

        Returns the number of *other* copies refreshed (used by the HARD
        detector to charge bus broadcast traffic).  Each copy gets its own
        clone so later divergence (in ablation modes) stays possible.
        """
        per_holder = self._lines.get(line_addr)
        if per_holder is None:
            raise DetectorError(f"broadcast for untracked line 0x{line_addr:x}")
        for holder in per_holder:
            per_holder[holder] = self._clone(meta)
        return len(per_holder) - 1

    def update_everywhere(self, fn: Callable[[M], None]) -> int:
        """Apply ``fn`` in place to every copy of every line.

        Used by the barrier reset (Section 3.5), which sets the BFVectors of
        all cached lines back to all-ones.  Returns the number of copies
        touched.
        """
        touched = 0
        for per_holder in self._lines.values():
            for meta in per_holder.values():
                fn(meta)
                touched += 1
        return touched

    # ------------------------------------------------------ coherence mirror

    def on_fill(self, core: int, line_addr: int, source: FillSource) -> None:
        if source.kind is SourceKind.MEMORY:
            meta = self._fresh(line_addr)
            # The inclusive L2 received the line too; both copies start equal.
            self._lines[line_addr] = {
                L2_HOLDER: self._clone(meta),
                core: meta,
            }
            return
        if source.kind is SourceKind.L2:
            supplier: Holder = L2_HOLDER
        else:
            supplier = source.core
        origin = self.require(supplier, line_addr)
        self._lines[line_addr][core] = self._clone(origin)

    def on_writeback(self, core: int, line_addr: int) -> None:
        origin = self.require(core, line_addr)
        self._lines[line_addr][L2_HOLDER] = self._clone(origin)

    def on_l1_evict(self, core: int, line_addr: int, dirty: bool) -> None:
        self._drop(core, line_addr)

    def on_invalidate(self, core: int, line_addr: int) -> None:
        self._drop(core, line_addr)

    def on_l2_evict(self, line_addr: int) -> None:
        per_holder = self._lines.pop(line_addr, None)
        if per_holder is None:
            raise DetectorError(f"L2 evicted untracked line 0x{line_addr:x}")
        stragglers = [h for h in per_holder if h != L2_HOLDER]
        if stragglers:
            raise DetectorError(
                f"L2 evicted 0x{line_addr:x} while cores {stragglers} "
                "still held copies (inclusion violated)"
            )

    def _drop(self, core: int, line_addr: int) -> None:
        per_holder = self._lines.get(line_addr)
        if per_holder is None or core not in per_holder:
            raise DetectorError(
                f"dropping absent copy of 0x{line_addr:x} at core {core}"
            )
        del per_holder[core]


class SharedMetadataStore(MachineListener, Generic[M]):
    """One shared metadata object per line: the always-broadcast fast path.

    A detector that broadcasts *every* metadata update (our default
    happens-before keeps its access histories fully consistent across
    copies) makes all per-holder copies permanently identical — so storing
    one object per line is observationally equivalent to
    :class:`CacheMetadataStore` with an update-all after every access, and
    an order of magnitude cheaper (no cloning).  The line's metadata lives
    exactly as long as the line is anywhere in the hierarchy: fresh on a
    memory fill, dropped on L2 displacement (approximation 3 still holds).
    """

    def __init__(self, fresh: Callable[[int], M]):
        self._fresh = fresh
        self._lines: dict[int, M] = {}

    def get(self, holder: Holder, line_addr: int) -> M | None:
        """The line's (single, shared) metadata object, if tracked."""
        return self._lines.get(line_addr)

    def require(self, holder: Holder, line_addr: int) -> M:
        """Like :meth:`get` but raises if the line is untracked."""
        meta = self._lines.get(line_addr)
        if meta is None:
            raise DetectorError(f"no metadata for line 0x{line_addr:x}")
        return meta

    def tracked_lines(self) -> list[int]:
        """All line addresses with live metadata."""
        return list(self._lines)

    # ------------------------------------------------------ coherence mirror

    def on_fill(self, core: int, line_addr: int, source: FillSource) -> None:
        if source.kind is SourceKind.MEMORY:
            self._lines[line_addr] = self._fresh(line_addr)
        elif line_addr not in self._lines:
            raise DetectorError(
                f"transfer of untracked line 0x{line_addr:x} from {source}"
            )

    def on_l2_evict(self, line_addr: int) -> None:
        if self._lines.pop(line_addr, None) is None:
            raise DetectorError(f"L2 evicted untracked line 0x{line_addr:x}")
