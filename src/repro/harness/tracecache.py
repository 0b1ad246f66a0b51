"""Process-safe on-disk cache of interleaved traces.

Interleaving is the second-most expensive phase of a grid cell (after
detection), and the Section 5.2 sweeps revisit the same (app, run)
execution under many detector configurations.  The serial harness memoises
traces in memory; worker processes of the parallel engine cannot share that
dict, so this module persists traces to disk where every worker — and every
later invocation — can reuse them.

Entries are the *columnar* binary encoding
(:meth:`~repro.common.coltrace.ColumnarTrace.to_bytes` — layout in
``docs/trace_format.md``) keyed by a content hash of (app, run, workload
seed, scheduler parameters, program digest, format version).  Folding the
*program digest* into the key makes entries self-invalidate whenever a
workload generator or the injection protocol changes, exactly like the
verdict cache.

Loads ``mmap`` the entry and cast the columns zero-copy out of the mapped
buffer: the packed arrays a batch-path engine session consumes come
straight off the page cache, and the loaded trace is backed by them
(``Trace.columns()`` returns the mapped encoding without re-packing; event
objects are decoded only if a caller reads ``trace.events``).  The load
checks what a decode would have caught, on the columns themselves: every
column holds exactly ``n`` items, every kind code is known and every site
id indexes the site table.

Writes use the write-then-:func:`os.replace` protocol (atomic on POSIX),
so concurrent workers racing to store the same trace are harmless: both
produce identical bytes and the rename is atomic, so readers only ever see
complete entries.  Loads tolerate truncated, corrupt, or stale files by
treating them as misses.  Pre-columnar caches (version 2 pickles and
older) are invalidated by the version bump — their keys no longer hash
equal, and :meth:`clear` sweeps both generations of files.
"""

from __future__ import annotations

import mmap
import struct
import weakref
from pathlib import Path

from repro.common.coltrace import ColumnarTrace
from repro.common.errors import ReproError
from repro.common.events import Trace
from repro.common.fsio import atomic_write_bytes
from repro.common.rng import derive_seed

#: Bumped whenever the trace layout or the interleaving semantics change,
#: so stale entries from older code self-invalidate.  2 -> 3: entries
#: switched from pickled Trace objects to the columnar binary encoding.
TRACE_CACHE_VERSION = 3

#: Bumped whenever the tape layout or the simulator's recorded behaviour
#: changes, so stale tape entries self-invalidate.
TAPE_CACHE_VERSION = 1


class TraceCache:
    """A directory of columnar trace files with atomic writes.

    A ``directory`` of ``None`` disables the cache: every lookup misses and
    every store is a no-op, which keeps call sites branch-free.
    """

    def __init__(self, directory: str | Path | None):
        self.directory = Path(directory) if directory is not None else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        # Weak refs to every mmap-loaded ColumnarTrace this cache produced,
        # so close() can release their mappings deterministically.
        self._loaded: list = []

    @property
    def enabled(self) -> bool:
        """True when a backing directory is configured."""
        return self.directory is not None

    def path_for(self, app: str, run: int, *key_parts: object) -> Path | None:
        """The entry path for one (app, run) execution under ``key_parts``."""
        if self.directory is None:
            return None
        digest = derive_seed("trace", app, run, TRACE_CACHE_VERSION, *key_parts)
        return self.directory / f"trace_{app}_{run}_{digest:016x}.cols"

    def load(self, app: str, run: int, *key_parts: object) -> Trace | None:
        """The cached trace, or ``None`` on a miss (or unreadable entry).

        The returned trace is backed by the mmap-ed columns and decodes no
        event at load, so ``trace.columns()`` is free and the batch engine
        path reads the packed arrays straight from the mapping.  Its
        ``events`` decode on first access, which must come before
        :meth:`close`.  An entry that is truncated, or holds an unknown
        kind code or an out-of-range site id, is unlinked and missed.
        """
        path = self.path_for(app, run, *key_parts)
        if path is None:
            return None
        try:
            with path.open("rb") as fh:
                buf = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
            cols = ColumnarTrace.from_bytes(buf)
            cols._source_path = path
            trace = cols.to_trace()
        except FileNotFoundError:
            self.misses += 1
            return None
        except (
            ReproError,
            ValueError,
            OSError,
            KeyError,
            TypeError,
            IndexError,
            struct.error,
        ):
            # Truncated or written by incompatible code: drop and rebuild.
            path.unlink(missing_ok=True)
            self.misses += 1
            return None
        self.hits += 1
        self._loaded.append(weakref.ref(cols))
        return trace

    def store(self, trace: Trace, app: str, run: int, *key_parts: object) -> None:
        """Persist ``trace``'s columnar encoding atomically (no-op when disabled)."""
        path = self.path_for(app, run, *key_parts)
        if path is None:
            return
        atomic_write_bytes(path, trace.columns().to_bytes())

    def clear(self) -> int:
        """Delete every entry (either generation); returns the number removed."""
        if self.directory is None:
            return 0
        removed = 0
        for pattern in ("trace_*.cols", "trace_*.pkl"):
            for path in self.directory.glob(pattern):
                path.unlink(missing_ok=True)
                removed += 1
        return removed

    def close(self) -> None:
        """Release every mmap this cache handed out (idempotent).

        Long sweeps visit thousands of cache entries; without an explicit
        close the mappings (and their file descriptors) live until garbage
        collection gets around to the trace objects.
        """
        loaded, self._loaded = self._loaded, []
        for ref in loaded:
            cols = ref()
            if cols is not None:
                cols.close()


class TapeCache:
    """A directory of serialized machine tapes with atomic writes.

    The persistent sibling of the in-memory tape memo
    (``ColumnarTrace._tapes``): entries are
    :meth:`~repro.engine.tape.MachineTape.to_bytes` blobs keyed by
    (columns content digest, machine-config signature, format version), so
    a (trace, machine config) pair is simulated **once ever** — every later
    process and session mmap-loads the recording with zero decode cost.

    A ``directory`` of ``None`` disables the cache (misses + no-op stores),
    keeping call sites branch-free.
    """

    def __init__(self, directory: str | Path | None):
        self.directory = Path(directory) if directory is not None else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self._loaded: list = []

    @property
    def enabled(self) -> bool:
        """True when a backing directory is configured."""
        return self.directory is not None

    def path_for(self, cols, machine_config) -> Path | None:
        """The entry path for one (columns, machine config) pair."""
        if self.directory is None:
            return None
        from repro.engine.tape import TAPE_FORMAT_VERSION, machine_signature

        digest = derive_seed(
            "tape",
            TAPE_CACHE_VERSION,
            TAPE_FORMAT_VERSION,
            cols.content_digest(),
            machine_signature(machine_config),
        )
        return self.directory / f"tape_{digest:016x}.tape"

    def load(self, cols, machine_config):
        """The cached tape, or ``None`` on a miss (or unreadable entry)."""
        path = self.path_for(cols, machine_config)
        if path is None:
            return None
        from repro.engine.tape import MachineTape

        try:
            with path.open("rb") as fh:
                buf = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
            tape = MachineTape.from_bytes(buf, machine_config)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (
            ReproError,
            ValueError,
            OSError,
            KeyError,
            TypeError,
            IndexError,
            struct.error,
        ):
            # Truncated or written by incompatible code: drop and rebuild.
            path.unlink(missing_ok=True)
            self.misses += 1
            return None
        self.hits += 1
        self._loaded.append(weakref.ref(tape))
        return tape

    def store(self, cols, tape) -> Path | None:
        """Persist ``tape`` atomically; returns the entry path (or None)."""
        path = self.path_for(cols, tape.machine_config)
        if path is None:
            return None
        atomic_write_bytes(path, tape.to_bytes())
        self.stores += 1
        return path

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        if self.directory is None:
            return 0
        removed = 0
        for path in self.directory.glob("tape_*.tape"):
            path.unlink(missing_ok=True)
            removed += 1
        return removed

    def close(self) -> None:
        """Release every mmap this cache handed out (idempotent)."""
        loaded, self._loaded = self._loaded, []
        for ref in loaded:
            tape = ref()
            if tape is not None:
                tape.close()
