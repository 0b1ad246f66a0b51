"""Process-safe on-disk caches of interleaved traces and machine tapes.

Interleaving is the second-most expensive phase of a grid cell (after
detection), and the Section 5.2 sweeps revisit the same (app, run)
execution under many detector configurations.  The serial harness memoises
traces in memory; worker processes of the parallel engine cannot share that
dict, so this module persists traces to disk where every worker — and every
later invocation — can reuse them.

One rule keys every on-disk cache (traces and tapes here, verdicts in
:mod:`repro.harness.experiment`): the entry's coordinates plus
:func:`source_digest` of the source bytes of the code that produces the
entry.  Each cache names the packages it hashes (:data:`TRACE_SOURCES`,
:data:`TAPE_SOURCES`, :data:`VERDICT_SOURCES`), so editing any of them
moves every key they feed and stale entries simply stop being hit; nothing
is bumped by hand.

Trace entries are the *columnar* binary encoding
(:meth:`~repro.common.coltrace.ColumnarTrace.to_bytes` — layout in
``docs/trace_format.md``), injected bug included, so a hit needs no
program.  Loads ``mmap`` the entry and cast the columns zero-copy out of
the mapped buffer: the packed arrays a batch-path engine session consumes
come straight off the page cache, and the loaded trace is backed by them
(``Trace.columns()`` returns the mapped encoding without re-packing; event
objects are decoded only if a caller reads ``trace.events``).

Both entry kinds fail closed on content: a load checks the header's
content digest against the bytes it mapped, plus what a decode would have
caught (every array in full and consistently sized, every kind code known,
every site id inside the site table).  Writes use the
write-then-:func:`os.replace` protocol (atomic on POSIX), so concurrent
workers racing to store the same entry are harmless: both produce
identical bytes and the rename is atomic, so readers only ever see
complete entries.  A truncated, corrupt or stale entry is unlinked and
treated as a miss.
"""

from __future__ import annotations

import hashlib
import mmap
import os
import struct
import weakref
from functools import lru_cache
from pathlib import Path

from repro.common.coltrace import ColumnarTrace
from repro.common.errors import HarnessError, ReproError
from repro.common.events import Trace
from repro.common.fsio import atomic_write_bytes
from repro.common.rng import derive_seed

#: Packages whose source produces a trace: the workload generators and bug
#: injection, the interleaving runtime and schedulers, and the columnar
#: encoding.  ``tests/harness/test_cache_keys.py`` checks that this covers
#: the import closure of every producer module.
TRACE_SOURCES = (
    "repro.common",
    "repro.fuzz.generator",
    "repro.threads",
    "repro.workloads",
)

#: Packages whose source produces a machine tape: the simulator, the tape
#: recorder, and what they import.
TAPE_SOURCES = ("repro.common", "repro.engine", "repro.obs", "repro.sim")

#: A verdict depends on every detector kernel as well as on the trace and
#: the tape, so its key hashes the whole package.
VERDICT_SOURCES = ("repro",)

#: Root of the ``repro`` package, where :func:`source_digest` reads.
_PACKAGE_ROOT = Path(__file__).resolve().parent.parent


@lru_cache(maxsize=None)
def source_digest(*packages: str) -> str:
    """A hex digest of the source bytes of the named packages or modules.

    Each dotted name (``"repro.sim"``, ``"repro.fuzz.generator"``) is a
    package, hashed over every ``.py`` file below it, or a single module.
    Files are hashed in sorted order with their relative paths, once per
    process.
    """
    h = hashlib.blake2b(digest_size=16)
    for name in packages:
        base = _PACKAGE_ROOT.joinpath(*name.split(".")[1:])
        if base.is_dir():
            files = sorted(base.rglob("*.py"))
        else:
            files = [base.with_suffix(".py")]
        for path in files:
            h.update(path.relative_to(_PACKAGE_ROOT).as_posix().encode("utf-8"))
            h.update(path.read_bytes())
    return h.hexdigest()


def ensure_cache_dir(directory: str | Path | None) -> Path | None:
    """Create a cache directory (and its parents); returns it as a Path.

    ``None`` (no cache) passes through.  Raises :class:`HarnessError`
    naming the path when it cannot be used — it is a regular file, or
    cannot be created or written — instead of letting the ``OSError`` of
    the first write surface as a traceback.
    """
    if directory is None:
        return None
    directory = Path(directory)
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        reason = exc.strerror or str(exc)
    else:
        if os.access(directory, os.W_OK | os.X_OK):
            return directory
        reason = "permission denied"
    raise HarnessError(
        f"cache directory {str(directory)!r} is unusable ({reason}); "
        "it must be a writable directory"
    )


class TraceCache:
    """A directory of columnar trace files with atomic writes.

    A ``directory`` of ``None`` disables the cache: every lookup misses and
    every store is a no-op, which keeps call sites branch-free.
    """

    def __init__(self, directory: str | Path | None):
        self.directory = ensure_cache_dir(directory)
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
        digest = derive_seed(
            "trace", app, run, *key_parts, source_digest(*TRACE_SOURCES)
        )
        return self.directory / f"trace_{app}_{run}_{digest:016x}.cols"

    def load(self, app: str, run: int, *key_parts: object) -> Trace | None:
        """The cached trace, or ``None`` on a miss (or unreadable entry).

        The returned trace is backed by the mmap-ed columns and decodes no
        event at load, so ``trace.columns()`` is free and the batch engine
        path reads the packed arrays straight from the mapping.  Its
        ``events`` decode on first access, which must come before
        :meth:`close`.  An entry that is truncated, does not match
        its content digest, or holds an unknown kind code or an
        out-of-range site id, is unlinked and missed.
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
            # Truncated, corrupt or written by incompatible code: drop it.
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
    (columns content digest, machine-config signature, format version,
    :data:`TAPE_SOURCES` digest), so a (trace, machine config) pair is
    simulated **once** per simulator source — every later process and
    session mmap-loads the recording with zero decode cost.

    A ``directory`` of ``None`` disables the cache (misses + no-op stores),
    keeping call sites branch-free.
    """

    def __init__(self, directory: str | Path | None):
        self.directory = ensure_cache_dir(directory)
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
            TAPE_FORMAT_VERSION,
            cols.content_digest(),
            machine_signature(machine_config),
            source_digest(*TAPE_SOURCES),
        )
        return self.directory / f"tape_{digest:016x}.tape"

    def load(self, cols, machine_config):
        """The cached tape, or ``None`` on a miss.

        An entry that is truncated, inconsistent, or does not match its
        header digest is unlinked and missed.
        """
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
            # Truncated, corrupt or written by incompatible code: drop it.
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
