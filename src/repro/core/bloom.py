"""The BFVector: HARD's Bloom-filter representation of lock sets.

Section 3.2 / Figure 4 of the paper.  A lock *set* (candidate set of a
variable, or current lock set of a thread) is a small bit vector.  The
default vector is 16 bits, divided into four 4-bit *parts*.  A lock address
contributes 8 bits — bits 2 through 9, the word-aligned low bits — split
into four 2-bit fields; each field *directly indexes* one bit inside the
corresponding part.  Inserting a lock sets its four indexed bits.

Set algebra becomes bit logic:

* union (add a lock, merge sets) — bitwise OR;
* intersection (``C(v) ∩ L(t)`` on every shared access) — bitwise AND;
* emptiness — a set is empty iff *some* part is all zeros (every member
  would have set one bit in every part).

The all-ones vector represents "all possible locks", the initial candidate
set of a fresh variable.  Collisions can only *hide* races (make an empty
intersection look non-empty), never invent them; the probability analysis
from Section 3.2 is implemented in :func:`collision_probability`.

:class:`BloomMapper` is the hot-path engine working on plain ints;
:class:`BloomVector` is a friendly wrapper for the public API and tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.config import BloomConfig


class BloomMapper:
    """Address→signature mapping and set algebra on raw int vectors.

    One mapper is shared by a whole detector run; signatures are memoised
    because programs reuse a small number of lock addresses heavily.
    """

    def __init__(self, config: BloomConfig | None = None):
        self.config = config or BloomConfig()
        cfg = self.config
        self.full_mask = cfg.full_mask
        self._index_mask = (1 << cfg.index_bits_per_part) - 1
        self._part_masks = tuple(
            ((1 << cfg.part_bits) - 1) << (p * cfg.part_bits)
            for p in range(cfg.num_parts)
        )
        self._signatures: dict[int, int] = {}

    def signature(self, lock_addr: int) -> int:
        """The vector with exactly this lock's bits set (Figure 4 mapping)."""
        sig = self._signatures.get(lock_addr)
        if sig is None:
            cfg = self.config
            sig = 0
            field = lock_addr >> cfg.address_low_bit
            for part in range(cfg.num_parts):
                index = (field >> (part * cfg.index_bits_per_part)) & self._index_mask
                sig |= 1 << (part * cfg.part_bits + index)
            self._signatures[lock_addr] = sig
        return sig

    def is_empty(self, vector: int) -> bool:
        """True iff the vector denotes the empty set (some part all zero)."""
        for mask in self._part_masks:
            if not vector & mask:
                return True
        return False

    def may_contain(self, vector: int, lock_addr: int) -> bool:
        """Membership test: can ``lock_addr`` be in the set? (No false negatives.)"""
        sig = self.signature(lock_addr)
        return vector & sig == sig

    def insert(self, vector: int, lock_addr: int) -> int:
        """Vector with ``lock_addr`` added (bitwise OR of its signature)."""
        return vector | self.signature(lock_addr)

    def intersect(self, a: int, b: int) -> int:
        """Set intersection: bitwise AND."""
        return a & b


@dataclass
class BloomVector:
    """A lock set held as a Bloom-filter vector (public-API wrapper)."""

    mapper: BloomMapper
    value: int = 0

    @classmethod
    def empty(cls, config: BloomConfig | None = None) -> "BloomVector":
        """A vector denoting the empty set."""
        return cls(mapper=BloomMapper(config), value=0)

    @classmethod
    def full(cls, config: BloomConfig | None = None) -> "BloomVector":
        """The all-ones vector denoting *all possible locks*."""
        mapper = BloomMapper(config)
        return cls(mapper=mapper, value=mapper.full_mask)

    @classmethod
    def of(cls, lock_addrs: list[int], config: BloomConfig | None = None) -> "BloomVector":
        """The vector for a concrete set of lock addresses."""
        vec = cls.empty(config)
        for addr in lock_addrs:
            vec.add(addr)
        return vec

    def add(self, lock_addr: int) -> None:
        """Insert a lock (bitwise OR of its signature)."""
        self.value = self.mapper.insert(self.value, lock_addr)

    def intersect_with(self, other: "BloomVector") -> "BloomVector":
        """A new vector holding the intersection."""
        return BloomVector(self.mapper, self.mapper.intersect(self.value, other.value))

    def may_contain(self, lock_addr: int) -> bool:
        """Membership test (one-sided: never a false negative)."""
        return self.mapper.may_contain(self.value, lock_addr)

    @property
    def is_empty(self) -> bool:
        """True iff this vector denotes the empty set."""
        return self.mapper.is_empty(self.value)

    def __str__(self) -> str:
        bits = self.mapper.config.vector_bits
        raw = format(self.value, f"0{bits}b")
        part = self.mapper.config.part_bits
        grouped = " ".join(raw[i : i + part] for i in range(0, bits, part))
        return f"BFVector[{grouped}]"


def collision_probability(set_size: int, config: BloomConfig | None = None) -> float:
    """Missing-race probability from Section 3.2's analysis.

    For a candidate set of ``m`` random lock addresses and a vector of
    ``num_parts`` parts of ``n`` bits each, a disjoint lock collides with one
    part with probability ``1 - ((n-1)/n)^m`` and hides a race only when it
    collides with *all* parts::

        CR_whole = (1 - ((n-1)/n)^m) ** num_parts

    With the default 16-bit vector (n = 4) this gives 0.0039, 0.037 and
    0.111 for m = 1, 2, 3, matching the paper's numbers.
    """
    cfg = config or BloomConfig()
    if set_size < 0:
        raise ValueError("set size must be non-negative")
    if set_size == 0:
        return 0.0
    n = cfg.part_bits
    cr_part = 1.0 - ((n - 1) / n) ** set_size
    return cr_part**cfg.num_parts
