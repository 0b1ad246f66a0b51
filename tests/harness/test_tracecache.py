"""Trace-cache loads: lazy event decode and the load-time column checks.

A load decodes no event: the returned trace answers ``len()``, its
metadata and ``columns()`` from the mmap-ed columns.  What the old eager
decode used to catch — a truncated entry, an unknown kind code, a site id
past the site table — the load now checks on the packed columns, and each
such entry must be a miss whose file is unlinked.
"""

import json
import struct

import pytest

from repro.common.coltrace import _MAGIC, ColumnarTrace
from repro.common.errors import ProgramError, ReproError
from repro.common.events import Site, write
from repro.harness.tracecache import TraceCache
from repro.threads.runtime import interleave
from repro.threads.scheduler import RandomScheduler
from repro.workloads.registry import build_workload

APP = "raytrace"
KEY = ("k",)


@pytest.fixture(scope="module")
def trace():
    program = build_workload(APP, seed=0)
    return interleave(program, RandomScheduler(seed=0, max_burst=8)).trace


@pytest.fixture
def stored(trace, tmp_path):
    """A cache holding ``trace``; yields (cache, entry path)."""
    cache = TraceCache(tmp_path)
    cache.store(trace, APP, 0, *KEY)
    yield cache, cache.path_for(APP, 0, *KEY)
    cache.close()


def column_span(raw: bytes, name: str) -> tuple[int, str]:
    """(absolute byte offset, typecode) of one column in an entry."""
    _, header_len = struct.unpack_from("<II", raw, len(_MAGIC))
    header_start = len(_MAGIC) + 8
    header = json.loads(raw[header_start : header_start + header_len])
    payload_start = header_start + header_len
    payload_start += (-payload_start) % 8
    typecode, offset, _ = header["columns"][name]
    return payload_start + offset, typecode


def assert_rejected(cache: TraceCache, path) -> None:
    misses = cache.misses
    assert cache.load(APP, 0, *KEY) is None
    assert cache.misses == misses + 1
    assert not path.exists()


class TestLoadIsLazy:
    def test_load_decodes_nothing(self, stored, trace):
        cache, _ = stored
        loaded = cache.load(APP, 0, *KEY)
        assert loaded._events is None
        assert len(loaded) == len(trace)
        assert loaded.num_threads == trace.num_threads
        assert loaded.label == trace.label
        assert loaded.injected_bug_sites == trace.injected_bug_sites
        assert loaded.columns().n == len(trace)
        assert loaded._events is None  # columns() did not force a decode

    def test_lazy_events_equal_to_events(self, stored, trace):
        cache, _ = stored
        loaded = cache.load(APP, 0, *KEY)
        expected = loaded.columns().to_events()
        assert loaded.events == expected == trace.events
        assert list(loaded) == expected

    def test_append_decodes_first(self, stored, trace):
        cache, _ = stored
        loaded = cache.load(APP, 0, *KEY)
        cols = loaded.columns()
        event = loaded.append(1, write(0x40, Site("tail.c", 1)))
        assert event.seq == len(trace)
        assert len(loaded) == len(trace) + 1
        assert loaded.events[:-1] == cols.to_events()
        # The memoised columns are stale now: columns() re-packs.
        repacked = loaded.columns()
        assert repacked is not cols
        assert repacked.n == len(trace) + 1
        assert repacked.to_events() == loaded.events

    def test_decode_after_close_raises(self, stored):
        cache, _ = stored
        loaded = cache.load(APP, 0, *KEY)
        cache.close()
        assert len(loaded) > 0  # metadata still answers
        with pytest.raises(ReproError, match="before closing"):
            loaded.events

    def test_events_read_before_close_survive_it(self, stored, trace):
        cache, _ = stored
        loaded = cache.load(APP, 0, *KEY)
        events = loaded.events
        cache.close()
        assert loaded.events is events
        assert events == trace.events


class TestLoadRejects:
    @pytest.mark.parametrize("cut", [8, 64, 4096])
    def test_truncated_entry_is_a_miss(self, stored, cut):
        cache, path = stored
        raw = path.read_bytes()
        path.write_bytes(raw[:-cut])
        assert_rejected(cache, path)

    def test_unknown_kind_code_is_a_miss(self, stored, trace):
        cache, path = stored
        raw = bytearray(path.read_bytes())
        start, _ = column_span(bytes(raw), "kind")
        raw[start + len(trace) // 2] = 9
        path.write_bytes(bytes(raw))
        assert_rejected(cache, path)

    def test_out_of_range_site_id_is_a_miss(self, stored, trace):
        cache, path = stored
        raw = bytearray(path.read_bytes())
        start, typecode = column_span(bytes(raw), "site_id")
        assert typecode == "i"
        num_sites = len(trace.columns().sites)
        struct.pack_into("<i", raw, start + 4 * (len(trace) // 3), num_sites)
        path.write_bytes(bytes(raw))
        assert_rejected(cache, path)

    def test_untouched_entry_still_hits(self, stored):
        cache, path = stored
        assert cache.load(APP, 0, *KEY) is not None
        assert cache.hits == 1
        assert path.exists()


class TestFromBytesChecks:
    def test_every_column_must_hold_n_items(self, trace):
        n = len(trace)
        raw = trace.columns().to_bytes()
        # Same-width digits keep the header length, so only ``n`` disagrees.
        short = raw.replace(f'"n":{n},'.encode(), f'"n":{n - 1},'.encode(), 1)
        assert len(short) == len(raw) and short != raw
        with pytest.raises(ProgramError, match=f"column 'kind' holds {n} items"):
            ColumnarTrace.from_bytes(short)

    def test_payload_past_the_buffer_is_rejected(self, trace):
        raw = trace.columns().to_bytes()
        with pytest.raises(ProgramError, match="past the end"):
            ColumnarTrace.from_bytes(raw[:-4096])

    def test_negative_site_id_below_none_is_rejected(self, trace):
        raw = bytearray(trace.columns().to_bytes())
        start, _ = column_span(bytes(raw), "site_id")
        struct.pack_into("<i", raw, start, -2)
        with pytest.raises(ProgramError, match="site id"):
            ColumnarTrace.from_bytes(bytes(raw))
