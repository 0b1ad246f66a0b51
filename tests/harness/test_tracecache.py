"""Trace-cache loads: lazy event decode and the load-time column checks.

A load decodes no event: the returned trace answers ``len()``, its
metadata and ``columns()`` from the mmap-ed columns.  What the old eager
decode used to catch — a truncated entry, an unknown kind code, a site id
past the site table — the load now checks on the packed columns, and a
content digest in the header catches any other damage.  Each such entry,
trace or tape, must be a miss whose file is unlinked.
"""

import json
import shutil
import struct

import pytest

from repro.common.coltrace import _MAGIC, ColumnarTrace
from repro.common.errors import HarnessError, ProgramError, ReproError
from repro.common.events import Site, write
from repro.harness.experiment import ExperimentRunner
from repro.harness.tracecache import TapeCache, TraceCache
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


#: Damage done to one cache entry: cut bytes off its end, or flip one
#: payload byte in the middle of the file (past every header check).
DAMAGES = {
    "cut8": lambda raw: raw[:-8],
    "cut64": lambda raw: raw[:-64],
    "cut4096": lambda raw: raw[:-4096],
    "flip": lambda raw: raw[: len(raw) // 2]
    + bytes([raw[len(raw) // 2] ^ 0x10])
    + raw[len(raw) // 2 + 1 :],
}


class TestDamagedEntriesFailClosed:
    """A damaged ``.cols`` or ``.tape`` entry is a miss, unlinked and rebuilt.

    The runner scores the cell exactly as it did from the intact caches,
    and the rebuilt entry is byte-identical to the one that was damaged.
    """

    CELL = ("barnes", 0)
    CONFIGS = ("hard-default",)

    @staticmethod
    def runner(cache_dir):
        return ExperimentRunner(
            trace_cache_dir=cache_dir / "traces", tape_cache_dir=cache_dir / "tapes"
        )

    @pytest.fixture(scope="class")
    def filled(self, tmp_path_factory):
        cache_dir = tmp_path_factory.mktemp("fill")
        with self.runner(cache_dir) as cold:
            reference = cold.run_detectors(*self.CELL, self.CONFIGS)
        return cache_dir, reference

    @pytest.mark.parametrize("damage", sorted(DAMAGES))
    @pytest.mark.parametrize("kind", ["traces", "tapes"])
    def test_damaged_entry_is_rebuilt(
        self, filled, tmp_path, monkeypatch, kind, damage
    ):
        import repro.harness.tracecache as tracecache

        source, reference = filled
        cache_dir = tmp_path / "cache"
        shutil.copytree(source, cache_dir)
        (entry,) = (cache_dir / kind).iterdir()
        original = entry.read_bytes()
        entry.write_bytes(DAMAGES[damage](original))
        # Record, for every store, whether the old entry was still there.
        stores = []
        real_write = tracecache.atomic_write_bytes

        def recording_write(path, payload):
            stores.append((path, path.exists()))
            return real_write(path, payload)

        monkeypatch.setattr(tracecache, "atomic_write_bytes", recording_write)
        with self.runner(cache_dir) as runner:
            outcomes = runner.run_detectors(*self.CELL, self.CONFIGS)
            cache = runner.trace_cache if kind == "traces" else runner.tape_cache
            assert (cache.hits, cache.misses) == (0, 1)
        assert outcomes == reference
        assert stores == [(entry, False)]  # unlinked before it was rebuilt
        assert entry.read_bytes() == original

    @pytest.mark.parametrize("damage", sorted(DAMAGES))
    def test_damaged_tape_is_rejected_on_load(self, filled, damage):
        from repro.engine.tape import MachineTape

        source, _ = filled
        (entry,) = (source / "tapes").iterdir()
        damaged = DAMAGES[damage](entry.read_bytes())
        match = "digest" if damage == "flip" else "past the end"
        with pytest.raises(ProgramError, match=match):
            MachineTape.from_bytes(damaged)

    def test_flipped_column_byte_fails_only_the_digest(self, trace):
        raw = bytearray(trace.columns().to_bytes())
        start, _ = column_span(bytes(raw), "addr")
        raw[start + 8 * (len(trace) // 2)] ^= 0x10
        with pytest.raises(ProgramError, match="digest"):
            ColumnarTrace.from_bytes(bytes(raw))


class TestUnusableCacheDir:
    """A cache path that cannot be a directory fails by name, not by traceback.

    A regular file stands in for every unusable path: permission bits are
    no test when the suite runs as root.
    """

    @pytest.fixture
    def regular_file(self, tmp_path):
        path = tmp_path / "not-a-directory"
        path.write_text("")
        return path

    @pytest.mark.parametrize(
        "make",
        [TraceCache, TapeCache, lambda path: ExperimentRunner(cache_dir=path)],
        ids=["TraceCache", "TapeCache", "ExperimentRunner"],
    )
    @pytest.mark.parametrize("below", [False, True], ids=["itself", "parent"])
    def test_regular_file_is_named(self, regular_file, make, below):
        path = regular_file / "traces" if below else regular_file
        with pytest.raises(HarnessError) as caught:
            make(path)
        message = str(caught.value)
        assert repr(str(path)) in message
        assert "must be a writable directory" in message

    def test_unwritable_directory_is_named(self, tmp_path, monkeypatch):
        # Root passes every permission check, so the check's answer is faked.
        import repro.harness.tracecache as tracecache

        monkeypatch.setattr(tracecache.os, "access", lambda path, mode: False)
        with pytest.raises(HarnessError, match="permission denied.*writable directory"):
            TraceCache(tmp_path)

    def test_exhibit_exits_with_the_message(self, regular_file, capsys):
        from repro.cli import main

        assert main(["exhibit", "table6", "--cache-dir", str(regular_file)]) == 2
        err = capsys.readouterr().err
        assert str(regular_file) in err
        assert "must be a writable directory" in err
