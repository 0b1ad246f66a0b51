"""Coherence fabrics: the snoopy bus and the Section 3.4 directory.

The paper's default machine keeps its L1s coherent over a snoopy broadcast
bus, and Section 3.4 observes that the design — both the MESI address
phases and the Figure 6 candidate-set broadcasts — stops scaling as cores
grow, sketching a directory-based alternative where metadata lives at the
line's home node and every message is point-to-point.  This module makes
that choice a first-class strategy:

* :class:`~repro.sim.bus.Bus` (re-exported here as :data:`SnoopyBus`) is
  the broadcast fabric.  Its scale hooks are strict no-ops: snooping *is*
  the broadcast, so locating state, reaching the owner and invalidating
  sharers cost nothing beyond the address phases the machine already
  charges.  The default 4-core machine is therefore bit-for-bit identical
  to the pre-fabric model.
* :class:`DirectoryFabric` charges the indirection a real directory pays:
  a home-node lookup on every miss and upgrade (request + grant control
  messages), an extra forwarding hop when a dirty owner must supply the
  line, exact-sharer invalidation/ack pairs instead of a free broadcast,
  and a point-to-point metadata writeback to the home node in place of
  every Figure 6 broadcast.  All of it is cycle-accounted into ``dir.*``
  counters so the scaling exhibit can put broadcast traffic and directory
  traffic on the same axis.

Invalidation latency is charged as one parallel multicast round trip
(constant cycles) while messages and bytes scale with the actual sharer
count — the fan-out happens in parallel in hardware, but every message
still crosses the network.  Keeping the *cycle* costs of the metadata
operations constant per event is what lets the vectorized batch kernels
reconstruct fabric accounting from occurrence counts (see
:class:`~repro.sim.bus.MetaCostModel`); the variable per-sharer costs live
in the machine's data path, where the tape totals capture them exactly.
"""

from __future__ import annotations

from repro.common.config import BusConfig, DirectoryConfig, MachineConfig
from repro.sim.bus import Bus, MetaCostModel, snoopy_meta_model

#: Alias making the strategy explicit at registration sites.
SnoopyBus = Bus

#: (cycle key, message key) of each directory control exchange, built once
#: rather than formatted on every message.
_CONTROL_KEYS = {
    kind: (f"dir.cycles.{kind}", f"dir.messages.{kind}")
    for kind in ("home_lookup", "invalidations", "owner_forward")
}


def directory_meta_model(
    config: BusConfig, directory: DirectoryConfig
) -> MetaCostModel:
    """Metadata costs over the directory fabric.

    A piggyback rides the point-to-point data response exactly as it rode
    the bus transfer (same marginal cycles, same counters).  A standalone
    candidate-set publication becomes one metadata writeback to the home
    node: a single hop plus the directory update, with a control-message
    header on the wire — no other core hears it until it next fetches the
    line's metadata.
    """
    return MetaCostModel(
        piggyback_cycles=config.metadata_piggyback_cycles,
        piggyback_cycle_key="bus.cycles.metadata_piggyback",
        update_cycles=directory.hop_cycles + directory.lookup_cycles,
        update_cycle_key="dir.cycles.metadata_update",
        update_count_key="dir.messages.metadata_update",
        update_event="metadata.update",
        update_control_bytes=directory.control_bytes,
    )


class DirectoryFabric(Bus):
    """Point-to-point directory coherence (the Section 3.4 alternative).

    Subclasses :class:`Bus` for the data-move accounting (a line transfer
    costs the same cycles whether the medium is a bus or a network link)
    and overrides the scale hooks and the metadata publication path with
    home-node indirection.
    """

    kind = "directory"

    def __init__(self, config: BusConfig, directory: DirectoryConfig):
        super().__init__(config)
        self.directory = directory
        self.meta_model = directory_meta_model(config, directory)
        self.scale_cycles = (
            directory.hop_cycles + directory.lookup_cycles,
            2 * directory.hop_cycles,
            directory.hop_cycles,
        )

    def _control(
        self, cycles: int, kind: str, messages: int, times: int = 1
    ) -> int:
        """Book ``times`` control exchanges of ``cycles`` and ``messages`` total."""
        cycle_key, message_key = _CONTROL_KEYS[kind]
        self._cycles += cycles * times
        self.stats.add(cycle_key, cycles * times)
        self.stats.add(message_key, messages)
        self.stats.add(
            "dir.bytes.control", messages * self.directory.control_bytes
        )
        return cycles

    def home_lookup(self, kind: str) -> int:
        """Request + grant through the line's home node.

        Charged on every L1 miss and every upgrade: the requester asks the
        home node (one hop, one directory-state read) and receives a grant
        or forwarding decision (one message back).
        """
        return self._control(self.scale_cycles[0], "home_lookup", 2)

    def sharer_invalidations(self, count: int) -> int:
        """Multicast invalidations to the exact sharer list, gather acks.

        The home node knows precisely who holds the line, so ``count``
        invalidation messages go out and ``count`` acks come back — in
        parallel, so the latency is one round trip regardless of fan-out,
        while message and byte counts scale with the real sharer list.
        """
        if count <= 0:
            return 0
        return self._control(self.scale_cycles[1], "invalidations", 2 * count)

    def owner_forward(self) -> int:
        """Home node forwards the request to the dirty/exclusive owner."""
        return self._control(self.scale_cycles[2], "owner_forward", 1)

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
        super().book(line_size, line_transfers, address_only)
        home, invalidate, forward = self.scale_cycles
        if home_lookups:
            self._control(home, "home_lookup", 2 * home_lookups, home_lookups)
        if invalidation_rounds:
            self._control(
                invalidate,
                "invalidations",
                2 * invalidation_messages,
                invalidation_rounds,
            )
        if owner_forwards:
            self._control(forward, "owner_forward", owner_forwards, owner_forwards)


def make_fabric(config: MachineConfig) -> Bus:
    """Build the coherence fabric ``config.coherence`` names."""
    if config.coherence == "directory":
        return DirectoryFabric(config.bus, config.directory)
    return SnoopyBus(config.bus)


def meta_cost_model(config: MachineConfig) -> MetaCostModel:
    """The :class:`MetaCostModel` of ``config``'s fabric, without building it.

    The batch kernels' ``finish_batch`` reconstruction only has the machine
    configuration in hand; this keeps it in lockstep with what the scalar
    fabric charges.
    """
    if config.coherence == "directory":
        return directory_meta_model(config.bus, config.directory)
    return snoopy_meta_model(config.bus)
