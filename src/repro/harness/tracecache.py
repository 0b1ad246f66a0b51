"""Process-safe on-disk caches: interleaved traces, machine tapes, verdicts.

Interleaving is the second-most expensive phase of a grid cell (after
detection), and the Section 5.2 sweeps revisit the same (app, run)
execution under many detector configurations.  The serial harness memoises
traces in memory; worker processes of the parallel engine cannot share that
dict, so this module persists traces, the machine tapes recorded over them
and the scored verdicts to disk, where every worker — and every later
invocation — can reuse them.

The three caches are one :class:`EntryCache` each, and share one entry
protocol.  One rule keys every entry: its coordinates plus
:func:`source_digest` of the source bytes of the code that produces it.
Each cache names the packages it hashes (:data:`TRACE_SOURCES`,
:data:`TAPE_SOURCES`, :data:`VERDICT_SOURCES`), so editing any of them
moves every key they feed and stale entries simply stop being hit; nothing
is bumped by hand.  A subclass supplies only its key parts, its file
pattern, and how an entry is encoded and decoded.

Trace entries are the *columnar* binary encoding
(:meth:`~repro.common.coltrace.ColumnarTrace.to_bytes` — layout in
``docs/trace_format.md``), injected bug included, so a hit needs no
program.  Loads ``mmap`` the entry and cast the columns zero-copy out of
the mapped buffer: the packed arrays a batch-path engine session consumes
come straight off the page cache, and the loaded trace is backed by them
(``Trace.columns()`` returns the mapped encoding without re-packing; event
objects are decoded only if a caller reads ``trace.events``).  Tape
entries use the same container.

Every entry fails closed on content: a load checks what the decoder checks
(for traces and tapes the header's content digest against the bytes it
mapped, every array in full and consistently sized, every kind code known,
every site id inside the site table; for verdicts a whole JSON record of
the requested signature).  Writes use the write-then-:func:`os.replace`
protocol (atomic on POSIX), so concurrent workers racing to store the same
entry are harmless: both produce identical bytes and the rename is atomic,
so readers only ever see complete entries.  A truncated, corrupt or stale
entry is unlinked and treated as a miss.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import weakref
from functools import lru_cache
from pathlib import Path

from repro.common.coltrace import ColumnarTrace
from repro.common.errors import HarnessError, ReproError
from repro.common.events import Trace
from repro.common.fsio import atomic_write_bytes, map_file
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


#: What decoding a damaged entry raises: the decoders' own ``ProgramError``
#: (a ``ReproError``), or whatever a mangled header or JSON record raises.
_DAMAGE = (
    ReproError, ValueError, OSError, KeyError,
    TypeError, IndexError, AttributeError, struct.error,
)


class EntryCache:
    """A directory of source-keyed entries that fail closed.

    A ``directory`` of ``None`` disables the cache: every lookup misses and
    every store is a no-op, which keeps call sites branch-free.  A subclass
    supplies ``_entry(*key)`` — the file stem and the key parts hashed with
    its :attr:`SOURCES` into ``<stem>_<digest><SUFFIX>`` — and
    ``_decode(path, *key)`` — the value and the object whose ``close()``
    releases its mapping (or ``None``), raising one of :data:`_DAMAGE` for
    an entry that must not be served — and ``_encode(value)``.
    """

    #: The family name ``repro cache gc`` reports.
    FAMILY = ""
    #: Subdirectory of a runner's cache directory that holds the family.
    SUBDIR = ""
    #: File-name suffix of an entry.
    SUFFIX = ""
    #: Globs of every file of the family (:meth:`clear` and ``repro cache
    #: gc`` sweep them).
    PATTERNS: tuple[str, ...] = ()
    #: Packages whose source bytes every key hashes.
    SOURCES: tuple[str, ...] = ()

    def __init__(self, directory: str | Path | None):
        self.directory = ensure_cache_dir(directory)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        # Weak refs to every mmap-backed object a load produced, so close()
        # can release their mappings deterministically.
        self._loaded: list = []

    @property
    def enabled(self) -> bool:
        """True when a backing directory is configured."""
        return self.directory is not None

    def path_for(self, *key) -> Path | None:
        """The entry path for ``key`` (``None`` when disabled)."""
        if self.directory is None:
            return None
        stem, parts = self._entry(*key)
        digest = derive_seed(*parts, source_digest(*self.SOURCES))
        return self.directory / f"{stem}_{digest:016x}{self.SUFFIX}"

    def load(self, *key):
        """The cached value for ``key``, or ``None`` on a miss (or damaged entry)."""
        path = self.path_for(*key)
        if path is None:
            return None
        try:
            value, mapped = self._decode(path, *key)
        except FileNotFoundError:
            self.misses += 1
            return None
        except _DAMAGE:
            # Truncated, corrupt or written by incompatible code: drop it.
            path.unlink(missing_ok=True)
            self.misses += 1
            return None
        self.hits += 1
        if mapped is not None:
            self._loaded.append(weakref.ref(mapped))
        return value

    def store(self, value, *key) -> Path | None:
        """Persist ``value`` atomically; returns the entry path (or None)."""
        path = self.path_for(*key)
        if path is None:
            return None
        atomic_write_bytes(path, self._encode(value))
        self.stores += 1
        return path

    def clear(self) -> int:
        """Delete every entry of the family; returns the number removed."""
        if self.directory is None:
            return 0
        removed = 0
        for pattern in self.PATTERNS:
            for path in self.directory.glob(pattern):
                path.unlink(missing_ok=True)
                removed += 1
        return removed

    def close(self) -> None:
        """Release every mmap this cache handed out (idempotent).

        Long sweeps visit thousands of cache entries; without an explicit
        close the mappings (and their file descriptors) live until garbage
        collection gets around to the loaded objects.
        """
        loaded, self._loaded = self._loaded, []
        for ref in loaded:
            mapped = ref()
            if mapped is not None:
                mapped.close()


class TraceCache(EntryCache):
    """Columnar traces, keyed by (app, run, key parts).

    ``load`` returns a trace backed by the mmap-ed columns that decodes no
    event at load, so ``trace.columns()`` is free and the batch engine path
    reads the packed arrays straight from the mapping.  Its ``events``
    decode on first access, which must come before :meth:`close`.
    """

    FAMILY = SUBDIR = "traces"
    SUFFIX = ".cols"
    #: Pickle-era ``.pkl`` entries are never hit but still swept.
    PATTERNS = ("trace_*.cols", "trace_*.pkl")
    SOURCES = TRACE_SOURCES

    def _entry(self, app: str, run: int, *key_parts: object):
        return f"trace_{app}_{run}", ("trace", app, run, *key_parts)

    def _decode(self, path: Path, *key):
        cols = ColumnarTrace.from_bytes(map_file(path))
        cols._source_path = path
        return cols.to_trace(), cols

    def _encode(self, trace: Trace) -> bytes:
        return trace.columns().to_bytes()


class TapeCache(EntryCache):
    """Serialized machine tapes, keyed by (columns, machine config).

    The persistent sibling of the in-memory tape memo
    (``ColumnarTrace._tapes``): entries are
    :meth:`~repro.engine.tape.MachineTape.to_bytes` blobs keyed by
    (format version, columns content digest, machine-config signature,
    :data:`TAPE_SOURCES` digest), so a (trace, machine config) pair is
    simulated **once** per simulator source — every later process and
    session mmap-loads the recording with zero decode cost.
    """

    FAMILY = SUBDIR = "tapes"
    SUFFIX = ".tape"
    PATTERNS = ("tape_*.tape",)
    SOURCES = TAPE_SOURCES

    def _entry(self, cols, machine_config):
        from repro.engine.tape import TAPE_FORMAT_VERSION, machine_signature

        return "tape", (
            "tape",
            TAPE_FORMAT_VERSION,
            cols.content_digest(),
            machine_signature(machine_config),
        )

    def _decode(self, path: Path, cols, machine_config):
        from repro.engine.tape import MachineTape

        tape = MachineTape.from_bytes(map_file(path), machine_config)
        return tape, tape

    def _encode(self, tape) -> bytes:
        return tape.to_bytes()

    def store(self, cols, tape) -> Path | None:
        """Persist ``tape`` of ``cols`` atomically; returns the entry path (or None)."""
        return super().store(tape, cols, tape.machine_config)


class VerdictCache(EntryCache):
    """Scored verdicts, keyed by (app, run, config signature, trace key).

    One JSON object per cell: ``{"signature", **RunOutcome.to_dict()}``.  A
    truncated, non-object or incomplete entry, or one holding another
    signature's verdict, is unlinked and recomputed.
    """

    FAMILY = "verdicts"
    SUFFIX = ".json"
    PATTERNS = ("*.json",)
    SOURCES = VERDICT_SOURCES

    def _entry(self, app: str, run: int, signature: str, *trace_key: object):
        return f"{app}_{run}", ("verdict", app, run, signature, *trace_key)

    def _decode(self, path: Path, app, run, signature, *trace_key):
        from repro.harness.experiment import RunOutcome

        data = json.loads(path.read_bytes())
        if data.get("signature") != signature:
            raise ValueError(f"verdict entry {path.name} is not {signature!r}'s")
        return RunOutcome.from_dict(data), None

    def _encode(self, outcome) -> bytes:
        payload = {"signature": outcome.detector, **outcome.to_dict()}
        return json.dumps(payload).encode("utf-8")
