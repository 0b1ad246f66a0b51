"""The per-core Lock Register and Counter Register (Sections 3.1, 3.3).

Each core holds the running thread's current lock set as a BFVector in a
16-bit *Lock Register*.  Acquire ORs the lock's signature in; release is the
hard case: clearing the signature bits outright could erase bits still owned
by *other* held locks whose signatures collide.  HARD therefore pairs each
vector bit with a 2-bit saturating counter (the 32-bit *Counter Register*):

* acquire — set the signature bits, increment their counters (saturating);
* release — decrement the signature bits' counters, and clear a bit only
  when its counter reaches zero.

Saturation is the documented hardware approximation: if more than three held
locks share a bit, an early release can clear the bit prematurely.  The
``use_counter_register=False`` ablation models the naive design without
counters, which corrupts the register under any collision.
"""

from __future__ import annotations

from repro.common.config import HardConfig
from repro.common.errors import DetectorError
from repro.core.bloom import BloomMapper


class LockRegister:
    """One core's Lock Register + Counter Register pair.

    ``thread_id`` names the running thread in the unbalanced-release error.
    """

    def __init__(
        self,
        config: HardConfig | None = None,
        mapper: BloomMapper | None = None,
        thread_id: int | None = None,
    ):
        self.config = config or HardConfig()
        self.thread_id = thread_id
        self.mapper = mapper or BloomMapper(self.config.bloom)
        self._counter_max = (1 << self.config.counter_bits) - 1
        self.value = 0
        self.counters = [0] * self.config.bloom.vector_bits
        # The register itself does not know which locks it holds (it is a
        # Bloom filter); we track the multiset only to validate usage.
        self._held: dict[int, int] = {}

    @property
    def held_count(self) -> int:
        """How many lock acquisitions are currently outstanding."""
        return sum(self._held.values())

    def acquire(self, lock_addr: int) -> None:
        """Add ``lock_addr`` to the register (bitwise OR + counter bumps)."""
        sig = self.mapper.signature(lock_addr)
        self.value |= sig
        bit = 0
        while sig:
            if sig & 1 and self.counters[bit] < self._counter_max:
                self.counters[bit] += 1
            sig >>= 1
            bit += 1
        self._held[lock_addr] = self._held.get(lock_addr, 0) + 1

    def release(self, lock_addr: int) -> None:
        """Remove ``lock_addr`` from the register.

        With the Counter Register enabled (the HARD design), decrement the
        signature bits' counters and clear only bits whose counter reaches
        zero.  Without it (ablation), clear the signature bits directly.
        """
        if self._held.get(lock_addr, 0) <= 0:
            who = "" if self.thread_id is None else f"t{self.thread_id} "
            raise DetectorError(f"{who}released lock 0x{lock_addr:x} it never took")
        self._held[lock_addr] -= 1
        if self._held[lock_addr] == 0:
            del self._held[lock_addr]

        sig = self.mapper.signature(lock_addr)
        if not self.config.use_counter_register:
            self.value &= ~sig
            return
        bit = 0
        while sig:
            if sig & 1:
                if self.counters[bit] > 0:
                    self.counters[bit] -= 1
                if self.counters[bit] == 0:
                    self.value &= ~(1 << bit)
            sig >>= 1
            bit += 1

    def reset(self) -> None:
        """Clear the register entirely (thread start / teardown)."""
        self.value = 0
        self.counters = [0] * self.config.bloom.vector_bits
        self._held.clear()

    def __str__(self) -> str:
        bits = self.config.bloom.vector_bits
        return (
            f"LockRegister[{format(self.value, f'0{bits}b')}] "
            f"counters={self.counters}"
        )
