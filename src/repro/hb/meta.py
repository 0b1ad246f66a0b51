"""Per-chunk access-history metadata for happens-before detection.

For each monitored chunk the detector keeps the epoch of the last write and
the epoch of the last read by each thread.  An access races with a recorded
epoch iff the accessor's vector clock does not *know* that epoch (the prior
access is not happens-before ordered with this one).

The default detector keeps these records inside the simulated caches (one
:class:`HBLineMeta` per line, mirroring HARD's storage of candidate sets);
the ideal detector keeps them in an unbounded map.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.addresses import chunks_per_line
from repro.hb.vectorclock import VectorClock

#: Epoch meaning "no prior access recorded".
NO_EPOCH: tuple[int, int] | None = None

#: Shared "no conflicts" result.  check_and_update runs once per (chunk,
#: access); returning one preallocated empty list keeps the overwhelmingly
#: common race-free path allocation-free.  Callers only ever iterate it.
_NO_CONFLICTS: list[str] = []


@dataclass
class HBChunkMeta:
    """Access history of one chunk: last write epoch + per-thread read epochs."""

    last_write: tuple[int, int] | None = NO_EPOCH
    reads: dict[int, int] = field(default_factory=dict)

    def clone(self) -> "HBChunkMeta":
        """Independent copy for a coherence transfer."""
        return HBChunkMeta(last_write=self.last_write, reads=dict(self.reads))

    def check_and_update(
        self, thread_id: int, clock: VectorClock, is_write: bool
    ) -> list[str]:
        """Race-check this access against the history, then record it.

        Returns human-readable conflict descriptions (empty = no race).
        """
        return check_epochs(self, thread_id, clock.values, is_write)


def check_epochs(
    chunk: HBChunkMeta, thread_id: int, values: list[int], is_write: bool
) -> list[str]:
    """:meth:`HBChunkMeta.check_and_update` against a clock's raw ``values``.

    The batch kernels call this directly, reading ``values`` once per
    access: a recorded epoch ``(u, c)`` is unordered with the access iff
    ``c > values[u]``.
    """
    conflicts = None
    write = chunk.last_write
    if write is not None:
        writer, value = write
        if writer != thread_id and value > values[writer]:
            conflicts = [f"unordered with write by t{writer}@{value}"]
    if is_write:
        reads = chunk.reads
        if reads:
            for reader, value in reads.items():
                if reader != thread_id and value > values[reader]:
                    if conflicts is None:
                        conflicts = []
                    conflicts.append(f"unordered with read by t{reader}@{value}")
            reads.clear()
        chunk.last_write = (thread_id, values[thread_id])
    else:
        chunk.reads[thread_id] = values[thread_id]
    return conflicts if conflicts is not None else _NO_CONFLICTS


class HBLineMeta:
    """All chunk histories of one cache line (the default detector's unit)."""

    __slots__ = ("chunks",)

    def __init__(self, chunks: list[HBChunkMeta]):
        self.chunks = chunks

    @classmethod
    def fresh(cls, granularity: int, line_size: int) -> "HBLineMeta":
        """History for a line just fetched from memory: empty.

        This is HARD's approximation (3) applied to happens-before: history
        for displaced lines is gone, so races spanning an L2 eviction are
        missed (Section 4's "our happens-before implementation makes two of
        the three approximations").
        """
        count = chunks_per_line(granularity, line_size)
        return cls([HBChunkMeta() for _ in range(count)])

    def clone(self) -> "HBLineMeta":
        """Deep copy for a coherence transfer."""
        return HBLineMeta([c.clone() for c in self.chunks])
