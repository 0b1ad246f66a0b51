"""Unit tests for address/line/chunk arithmetic."""

import pytest

from repro.common.addresses import (
    AddressSpace,
    RegionAllocator,
    chunk_address,
    chunks_per_line,
    is_power_of_two,
    line_address,
    line_offset,
    spanned_chunks,
    spanned_lines,
)
from repro.common.errors import ConfigError


class TestPowerOfTwo:
    def test_powers_are_recognised(self):
        for exponent in range(12):
            assert is_power_of_two(1 << exponent)

    def test_non_powers_are_rejected(self):
        for value in (0, -1, -4, 3, 6, 12, 100):
            assert not is_power_of_two(value)


class TestLineMath:
    def test_line_address_masks_low_bits(self):
        assert line_address(0x1234, 32) == 0x1220
        assert line_address(0x1220, 32) == 0x1220
        assert line_address(0x123F, 32) == 0x1220

    def test_line_offset(self):
        assert line_offset(0x1234, 32) == 0x14
        assert line_offset(0x1220, 32) == 0

    def test_line_address_respects_line_size(self):
        assert line_address(0x1234, 64) == 0x1200
        assert line_address(0x1234, 16) == 0x1230

    def test_chunk_address(self):
        assert chunk_address(0x1235, 4) == 0x1234
        assert chunk_address(0x1235, 8) == 0x1230

    def test_chunks_per_line(self):
        assert chunks_per_line(4, 32) == 8
        assert chunks_per_line(32, 32) == 1

    def test_chunks_per_line_rejects_oversized_granularity(self):
        with pytest.raises(ConfigError):
            chunks_per_line(64, 32)


class TestSpans:
    def test_single_line_access(self):
        assert list(spanned_lines(0x1000, 4, 32)) == [0x1000]

    def test_straddling_access_touches_two_lines(self):
        assert list(spanned_lines(0x101E, 4, 32)) == [0x1000, 0x1020]

    def test_large_access_spans_many_lines(self):
        assert list(spanned_lines(0x1000, 96, 32)) == [0x1000, 0x1020, 0x1040]

    def test_zero_size_access_rejected(self):
        with pytest.raises(ConfigError):
            list(spanned_lines(0x1000, 0, 32))

    def test_spanned_chunks_4b(self):
        assert list(spanned_chunks(0x1002, 4, 4)) == [0x1000, 0x1004]
        assert list(spanned_chunks(0x1000, 4, 4)) == [0x1000]

    def test_spanned_chunks_match_access_extent(self):
        assert list(spanned_chunks(0x1000, 8, 4)) == [0x1000, 0x1004]


class TestAddressSpace:
    def test_contains_and_at(self):
        region = AddressSpace("r", 0x1000, 64)
        assert region.contains(0x1000)
        assert region.contains(0x103F)
        assert not region.contains(0x1040)
        assert region.at(0) == 0x1000
        assert region.at(63) == 0x103F

    def test_at_out_of_range_rejected(self):
        region = AddressSpace("r", 0x1000, 64)
        with pytest.raises(ConfigError):
            region.at(64)
        with pytest.raises(ConfigError):
            region.at(-1)

    def test_invalid_region_rejected(self):
        with pytest.raises(ConfigError):
            AddressSpace("r", 0x1000, 0)

    def test_overlaps(self):
        a = AddressSpace("a", 0, 32)
        b = AddressSpace("b", 16, 32)
        c = AddressSpace("c", 32, 32)
        assert a.overlaps(b)
        assert not a.overlaps(c)


class TestRegionAllocator:
    def test_regions_never_overlap(self):
        alloc = RegionAllocator()
        regions = [alloc.allocate(f"r{i}", 100) for i in range(20)]
        for i, a in enumerate(regions):
            for b in regions[i + 1 :]:
                assert not a.overlaps(b)

    def test_default_alignment_is_line(self):
        alloc = RegionAllocator(line_size=32)
        alloc.allocate("a", 5)
        b = alloc.allocate("b", 5)
        assert b.base % 32 == 0

    def test_small_alignment_can_pack_a_line(self):
        alloc = RegionAllocator()
        a = alloc.allocate("a", 4, align=4)
        b = alloc.allocate("b", 4, align=4)
        assert b.base == a.base + 4

    def test_region_of(self):
        alloc = RegionAllocator()
        a = alloc.allocate("a", 64)
        assert alloc.region_of(a.base + 10) is a
        assert alloc.region_of(0) is None
