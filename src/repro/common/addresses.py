"""Address arithmetic shared by the simulator and the detectors.

Addresses are plain Python ints denoting byte addresses in a flat physical
address space.  All metadata in the paper is kept either per cache line
(32 bytes by default) or per *chunk* — the sub-line granularity the
sensitivity study of Section 5.2.1 sweeps from 4 B to 32 B.

The helpers here centralise the bit math so that the cache model, the HARD
detector and the happens-before detector all agree on what "the same line"
and "the same chunk" mean.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.common.errors import ConfigError

#: Default cache-line size of the simulated machine (Table 1: 32 B/line).
DEFAULT_LINE_SIZE = 32

#: Granularities the paper's sensitivity study sweeps (Section 5.2.1).
PAPER_GRANULARITIES = (4, 8, 16, 32)


def is_power_of_two(value: int) -> bool:
    """Return True if ``value`` is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0


def check_power_of_two(value: int, what: str) -> None:
    """Raise :class:`ConfigError` unless ``value`` is a positive power of two."""
    if not is_power_of_two(value):
        raise ConfigError(f"{what} must be a positive power of two, got {value}")


def line_address(addr: int, line_size: int = DEFAULT_LINE_SIZE) -> int:
    """Return the base address of the cache line containing ``addr``."""
    return addr & ~(line_size - 1)


def line_index(addr: int, line_size: int = DEFAULT_LINE_SIZE) -> int:
    """Return the line number (address divided by line size)."""
    return addr >> (line_size.bit_length() - 1)


def line_offset(addr: int, line_size: int = DEFAULT_LINE_SIZE) -> int:
    """Return the byte offset of ``addr`` within its cache line."""
    return addr & (line_size - 1)


def chunk_address(addr: int, granularity: int) -> int:
    """Return the base address of the metadata chunk containing ``addr``.

    ``granularity`` is the metadata granularity (4, 8, 16 or 32 bytes in the
    paper's sweep); a chunk is the unit at which one BFVector + LState (or
    one timestamp record, for happens-before) is kept.
    """
    return addr & ~(granularity - 1)


def chunks_per_line(granularity: int, line_size: int = DEFAULT_LINE_SIZE) -> int:
    """Number of metadata chunks stored per cache line."""
    if granularity > line_size:
        raise ConfigError(
            f"metadata granularity {granularity} exceeds line size {line_size}"
        )
    return line_size // granularity


def spanned_lines(
    addr: int, size: int, line_size: int = DEFAULT_LINE_SIZE
) -> Iterator[int]:
    """Yield the base address of every line touched by ``[addr, addr+size)``.

    Accesses in the simulated programs are 1–8 bytes and are normally line
    aligned, but the simulator tolerates straddling accesses by treating them
    as one access per touched line.
    """
    if size <= 0:
        raise ConfigError(f"access size must be positive, got {size}")
    first = line_address(addr, line_size)
    last = line_address(addr + size - 1, line_size)
    line = first
    while line <= last:
        yield line
        line += line_size


def spanned_chunks(addr: int, size: int, granularity: int) -> Sequence[int]:
    """The base address of every metadata chunk touched by an access.

    Returns a sequence rather than a generator: this runs once per access
    per detector, and the common case — an access contained in one chunk —
    must not pay generator setup/resume costs.
    """
    if size <= 0:
        raise ConfigError(f"access size must be positive, got {size}")
    mask = ~(granularity - 1)
    first = addr & mask
    last = (addr + size - 1) & mask
    if first == last:
        return (first,)
    return range(first, last + granularity, granularity)


@dataclass(frozen=True)
class AddressSpace:
    """A named, contiguous region of the simulated address space.

    Workload generators carve the address space into regions (shared arrays,
    lock words, per-thread private heaps) and hand out addresses from them.
    Keeping regions explicit makes generated traces auditable: any address can
    be mapped back to the region — and hence the program object — it belongs
    to.
    """

    name: str
    base: int
    size: int

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ConfigError(f"region {self.name!r} must have positive size")
        if self.base < 0:
            raise ConfigError(f"region {self.name!r} must have non-negative base")

    @property
    def end(self) -> int:
        """One past the last byte of the region."""
        return self.base + self.size

    def contains(self, addr: int) -> bool:
        """Return True if ``addr`` falls inside this region."""
        return self.base <= addr < self.end

    def at(self, offset: int) -> int:
        """Return the absolute address ``offset`` bytes into the region."""
        if not 0 <= offset < self.size:
            raise ConfigError(
                f"offset {offset} outside region {self.name!r} of size {self.size}"
            )
        return self.base + offset

    def overlaps(self, other: "AddressSpace") -> bool:
        """Return True if this region shares any byte with ``other``."""
        return self.base < other.end and other.base < self.end


class RegionAllocator:
    """Sequential allocator of non-overlapping :class:`AddressSpace` regions.

    Regions are aligned up to the requested alignment (cache-line size by
    default) so that distinct regions never share a cache line unless a
    workload *asks* for false sharing by allocating with a smaller alignment.
    """

    def __init__(self, base: int = 0x1000_0000, line_size: int = DEFAULT_LINE_SIZE):
        check_power_of_two(line_size, "line size")
        self._next = base
        self._line_size = line_size
        self._regions: list[AddressSpace] = []

    @property
    def regions(self) -> tuple[AddressSpace, ...]:
        """All regions allocated so far, in allocation order."""
        return tuple(self._regions)

    def allocate(
        self, name: str, size: int, align: int | None = None
    ) -> AddressSpace:
        """Allocate a fresh region of ``size`` bytes named ``name``.

        ``align`` defaults to the line size; pass a smaller power of two to
        deliberately pack regions into shared lines (used by workloads that
        model false sharing).
        """
        alignment = self._line_size if align is None else align
        check_power_of_two(alignment, "alignment")
        base = (self._next + alignment - 1) & ~(alignment - 1)
        region = AddressSpace(name=name, base=base, size=size)
        self._next = region.end
        self._regions.append(region)
        return region

    def region_of(self, addr: int) -> AddressSpace | None:
        """Return the region containing ``addr``, or None."""
        for region in self._regions:
            if region.contains(addr):
                return region
        return None
