"""Snoopy-bus traffic and cycle accounting.

The bus model does not arbitrate between concurrent requesters (the trace is
already a total order), it *accounts*: every transaction adds cycles and
byte counts to named counters, so that the Figure 8 overhead study can
attribute exactly how much of the slowdown comes from candidate-set traffic
versus baseline data traffic.

Since PR 10 the bus is one of two interchangeable **coherence fabrics**
(see :mod:`repro.sim.fabric`): :class:`Bus` is the paper's default snoopy
broadcast medium, and :class:`~repro.sim.fabric.DirectoryFabric` is the
Section 3.4 point-to-point alternative.  Both expose the same surface —
data moves, metadata publication, and the *scale hooks*
(:meth:`Bus.home_lookup`, :meth:`Bus.sharer_invalidations`,
:meth:`Bus.owner_forward`) the :class:`~repro.sim.machine.Machine` calls at
every coherence decision point.  On the snoopy bus the scale hooks are
strict no-ops (snooping *is* the broadcast — there is no indirection to
charge), which keeps the default 4-core machine bit-for-bit identical to
the pre-fabric model.

The metadata cost surface is captured by :class:`MetaCostModel`: a frozen
bundle of per-event constants and stat-key names consumed identically by
the scalar fabric methods and the vectorized batch reconstruction
(``finish_batch``), so every engine path charges metadata the same way on
either fabric.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.config import BusConfig
from repro.common.stats import StatCounters
from repro.obs.trace import NULL_EMITTER, TraceEmitter


@dataclass(frozen=True)
class MetaCostModel:
    """Constant per-event metadata costs and the stat keys they land in.

    Detector metadata publication has exactly two shapes: a *piggyback*
    (metadata riding a data transfer that is happening anyway) and an
    *update* (a standalone publication — the Figure 6 broadcast on the
    snoopy bus, a point-to-point home-node message on the directory
    fabric).  Both cost a constant number of cycles per event, which is
    what lets the batch kernels reconstruct the full accounting from
    occurrence counts alone.
    """

    piggyback_cycles: int
    piggyback_cycle_key: str
    update_cycles: int
    update_cycle_key: str
    update_count_key: str
    update_event: str
    metadata_bytes_key: str = "bus.bytes.metadata"
    update_control_bytes: int = 0
    control_bytes_key: str = "dir.bytes.control"


def snoopy_meta_model(config: BusConfig) -> MetaCostModel:
    """The snoopy bus's metadata costs (unchanged from the pre-fabric era)."""
    return MetaCostModel(
        piggyback_cycles=config.metadata_piggyback_cycles,
        piggyback_cycle_key="bus.cycles.metadata_piggyback",
        update_cycles=config.cycles_per_transaction + config.cycles_per_word,
        update_cycle_key="bus.cycles.metadata_broadcast",
        update_count_key="bus.transactions.metadata_broadcast",
        update_event="candidate.broadcast",
    )


class Bus:
    """Accounting model of the shared snoopy bus."""

    #: Fabric kind, mirrored from ``MachineConfig.coherence``.
    kind = "snoopy"

    def __init__(self, config: BusConfig, emitter: TraceEmitter | None = None):
        self.config = config
        self.stats = StatCounters()
        self._cycles = 0
        self._emitter = emitter if emitter is not None else NULL_EMITTER
        self.meta_model = snoopy_meta_model(config)
        # Hot path: _spend bumps the live counters directly, with each
        # kind's counter keys built once.
        self._counts = self.stats._counts
        self._spend_keys: dict[str, tuple[str, str]] = {}

    @property
    def cycles(self) -> int:
        """Total bus cycles consumed so far."""
        return self._cycles

    def _spend(self, cycles: int, kind: str, times: int = 1) -> int:
        """Book ``times`` ``kind`` transactions of ``cycles`` each.

        ``cycles`` is always a :class:`BusConfig` timing (validated positive
        by its ``__post_init__``), so the counters skip
        :meth:`StatCounters.add`'s sign check.
        """
        keys = self._spend_keys.get(kind)
        if keys is None:
            keys = self._spend_keys[kind] = (
                f"bus.cycles.{kind}",
                f"bus.transactions.{kind}",
            )
        self._cycles += cycles * times
        counts = self._counts
        counts[keys[0]] += cycles * times
        counts[keys[1]] += times
        return cycles

    # ------------------------------------------------------------ data moves

    def line_transfer(self, line_size: int, kind: str) -> int:
        """Charge a full line transfer (fill, cache-to-cache, writeback)."""
        cycles = self.config.line_transfer_cycles(line_size)
        self.stats.add("bus.bytes.data", line_size)
        return self._spend(cycles, kind)

    def address_only(self, kind: str) -> int:
        """Charge an address-only transaction (upgrade, invalidation)."""
        return self._spend(self.config.cycles_per_transaction, kind)

    def book(
        self,
        line_size: int,
        line_transfers: dict[str, int],
        address_only: dict[str, int],
        home_lookups: int = 0,
        invalidation_rounds: int = 0,
        invalidation_messages: int = 0,
        owner_forwards: int = 0,
    ) -> None:
        """Book counted transactions at once, exactly as one call each would.

        ``line_transfers`` and ``address_only`` map a kind to the number
        of :meth:`line_transfer` / :meth:`address_only` calls; the other
        arguments count scale-hook calls (:meth:`sharer_invalidations`
        rounds with a non-zero count, and the messages they carry).  A
        kind counted zero times leaves no counter behind, as no call would.
        The machine's recording kernel sums its transactions in locals and
        books them here once per recording.
        """
        transfer_cycles = self.config.line_transfer_cycles(line_size)
        moved = 0
        for kind, times in line_transfers.items():
            if times:
                moved += times
                self._spend(transfer_cycles, kind, times)
        if moved:
            self._counts["bus.bytes.data"] += line_size * moved
        for kind, times in address_only.items():
            if times:
                self._spend(self.config.cycles_per_transaction, kind, times)

    # ------------------------------------------------------------ scale hooks
    #
    # The machine calls these at every coherence decision point.  A snoopy
    # bus resolves them all by broadcast — every core snoops every address
    # phase for free — so they charge nothing here; the directory fabric
    # overrides them with home-node indirection, owner forwarding and
    # exact-sharer invalidation messages.

    #: Cycles of one home lookup, one sharer-invalidation round and one
    #: owner forward, in that order.
    scale_cycles: tuple[int, int, int] = (0, 0, 0)

    def home_lookup(self, kind: str) -> int:
        """Locate the line's coherence state (no-op under snooping)."""
        return 0

    def sharer_invalidations(self, count: int) -> int:
        """Invalidate ``count`` sharer copies (broadcast: already snooped)."""
        return 0

    def owner_forward(self) -> int:
        """Forward a request to the owning core (broadcast: already heard)."""
        return 0

    # --------------------------------------------------- detector extensions

    def metadata_piggyback(self, meta_bits: int) -> int:
        """Charge metadata riding an existing data transfer (Section 3.4).

        The candidate set + LState add 18 bits per line; on a transfer that
        is already moving the line, the marginal cost is a fixed small
        number of cycles.  Identical on both fabrics: the metadata rides
        whatever response carries the line.
        """
        model = self.meta_model
        self.stats.add(model.metadata_bytes_key, (meta_bits + 7) // 8)
        cycles = model.piggyback_cycles
        self._cycles += cycles
        self.stats.add(model.piggyback_cycle_key, cycles)
        if self._emitter.enabled:
            self._emitter.emit("metadata.piggyback", bits=meta_bits)
        return cycles

    def metadata_broadcast(self, meta_bits: int) -> int:
        """Charge a standalone candidate-set publication.

        On the snoopy bus this is the Figure 6 broadcast (address phase
        plus one data word carrying the 18 metadata bits), sent when a
        processor recomputes the candidate set of a Shared line and the
        set changed.  The directory fabric replaces it with a
        point-to-point metadata writeback to the home node — same call
        site, different :class:`MetaCostModel`.
        """
        model = self.meta_model
        self.stats.add(model.metadata_bytes_key, (meta_bits + 7) // 8)
        if model.update_control_bytes:
            self.stats.add(model.control_bytes_key, model.update_control_bytes)
        if self._emitter.enabled:
            self._emitter.emit(model.update_event, bits=meta_bits)
        cycles = model.update_cycles
        self._cycles += cycles
        self.stats.add(model.update_cycle_key, cycles)
        self.stats.add(model.update_count_key)
        return cycles
