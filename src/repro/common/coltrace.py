"""Packed columnar trace representation (the redesigned trace substrate).

A :class:`~repro.common.events.Trace` is a list of frozen dataclass objects —
ideal for construction and debugging, hostile to throughput: every detector
pass re-dereferences ``event.op.kind`` / ``.addr`` / ``.size`` through three
Python objects per event.  :class:`ColumnarTrace` stores the same execution
as parallel packed columns (one :mod:`array`/``memoryview`` per field) with
an interned site table, so that

* batch detector kernels (``DetectorCore.step_batch``) walk plain ints,
* the on-disk :class:`~repro.harness.tracecache.TraceCache` serialises the
  columns verbatim and reloads them via ``mmap`` with zero decode cost,
* derived per-event data (machine tapes, sync-run segmentation, row tuples)
  is memoised on the columnar object and shared by every consumer of the
  same trace.

Representation
--------------

Per event (all dense, index == trace position):

====================  ========  =====================================
column                typecode  meaning
====================  ========  =====================================
``kind``              ``B``     op kind code (:data:`KIND_READ` …)
``tid``               ``i``     executing thread id
``addr``              ``q``     byte address / lock word / barrier id
``size``              ``i``     access size in bytes (memory ops)
``site_id``           ``i``     index into :attr:`sites` (-1 = None)
``cycles``            ``q``     compute cycles (COMPUTE ops)
``participants``      ``i``     barrier participant count
``is_write``          ``B``     1 for WRITE events (hot-path flag)
====================  ========  =====================================

Kind codes are ordered so that ``is_write == (kind == KIND_WRITE)`` and the
memory-op test is ``kind <= KIND_WRITE``.

Sync runs
---------

:meth:`sync_runs` tiles ``[0, n)`` into :class:`SyncRun` segments: maximal
runs free of *global* sync points, where a global sync point is a BARRIER
event — the only operation whose effect crosses threads inside the lockset
state machines (flash-reset of every cached BFVector, all-to-all vector
clock join).  Lock/unlock events mutate only the executing thread's lock
register, so they do not end a run; batch kernels handle them inline.  Each
barrier event is its own single-event run with ``sync=True``.

Held locks
----------

:meth:`held_locks` derives, once per trace, the locks each event's thread
holds as an exact int bitmask (one bit per distinct lock word), so the
lockset kernels intersect candidate sets with ``&`` — HARD's BFVector AND
without the Bloom filter's collisions.
"""

from __future__ import annotations

import hashlib
import json
import re
import struct
from array import array
from typing import Iterable, NamedTuple

from repro.common.errors import DetectorError, ProgramError, ReproError
from repro.common.events import Op, OpKind, Site, Trace, TraceEvent

#: Stable integer codes for :class:`~repro.common.events.OpKind`.
KIND_READ = 0
KIND_WRITE = 1
KIND_LOCK = 2
KIND_UNLOCK = 3
KIND_BARRIER = 4
KIND_COMPUTE = 5

_KIND_TO_CODE = {
    OpKind.READ: KIND_READ,
    OpKind.WRITE: KIND_WRITE,
    OpKind.LOCK: KIND_LOCK,
    OpKind.UNLOCK: KIND_UNLOCK,
    OpKind.BARRIER: KIND_BARRIER,
    OpKind.COMPUTE: KIND_COMPUTE,
}
_CODE_TO_KIND = (
    OpKind.READ,
    OpKind.WRITE,
    OpKind.LOCK,
    OpKind.UNLOCK,
    OpKind.BARRIER,
    OpKind.COMPUTE,
)


#: Matches the LOCK and UNLOCK bytes of a packed ``kind`` column.
_LOCK_OPS = re.compile(b"[%c%c]" % (KIND_LOCK, KIND_UNLOCK))

#: Every valid ``kind`` column byte (a ``bytes.translate`` delete table).
_KNOWN_KIND_CODES = bytes(range(len(_CODE_TO_KIND)))


def kind_of_code(code: int) -> OpKind:
    """The :class:`OpKind` behind one packed ``kind`` column code."""
    return _CODE_TO_KIND[code]


#: (name, array typecode) of every packed column, in serialisation order.
_COLUMNS = (
    ("kind", "B"),
    ("tid", "i"),
    ("addr", "q"),
    ("size", "i"),
    ("site_id", "i"),
    ("cycles", "q"),
    ("participants", "i"),
    ("is_write", "B"),
)

#: On-disk format magic + version (bump on any layout change).
_MAGIC = b"RPRCOLT1"
FORMAT_VERSION = 1


class SyncRun(NamedTuple):
    """One segment of the trace between global sync points.

    ``[lo, hi)`` is a maximal run containing no barrier event, or — when
    ``sync`` is True — a single barrier event.  The runs tile the whole
    trace in order.
    """

    lo: int
    hi: int
    sync: bool


class ColumnarTrace:
    """A trace as parallel packed columns with an interned site table.

    Construct via :meth:`from_events` (or :meth:`Trace.columns()
    <repro.common.events.Trace.columns>`, which memoises the result on the
    trace).  Columns are :class:`array.array` objects when built in memory
    and ``memoryview`` casts when loaded from an mmap-ed cache file; both
    support indexing, iteration and ``len`` identically.
    """

    __slots__ = (
        "n",
        "num_threads",
        "label",
        "sites",
        "bug_site_ids",
        "kind",
        "tid",
        "addr",
        "size",
        "site_id",
        "cycles",
        "participants",
        "is_write",
        "_sync_runs",
        "_rows",
        "_held",
        "_tapes",
        "_buffer",
        "_digest",
        "_source_path",
        "__weakref__",
    )

    def __init__(self):
        self.n = 0
        self.num_threads = 0
        self.label = ""
        #: Interned site table; ``site_id`` column indexes into it.
        self.sites: tuple[Site, ...] = ()
        #: Indices into :attr:`sites` of the injected bug sites.
        self.bug_site_ids: tuple[int, ...] = ()
        self._sync_runs = None
        self._rows = None
        self._held = None
        #: Per-MachineConfig replay tapes, memoised by the engine.
        self._tapes: dict = {}
        #: Backing buffer for mmap-loaded columns (keeps the map alive).
        self._buffer = None
        #: Memoised :meth:`content_digest`.
        self._digest = None
        #: Path of the on-disk ``.cols`` file these columns were mmap-loaded
        #: from (set by the trace cache), so shard workers can re-map the
        #: same file instead of being shipped the event data.
        self._source_path = None

    def __len__(self) -> int:
        return self.n

    # ------------------------------------------------------------ conversion

    @classmethod
    def from_events(cls, trace: Trace) -> "ColumnarTrace":
        """Encode a :class:`~repro.common.events.Trace` into columns."""
        self = cls()
        events = trace.events
        n = len(events)
        self.n = n
        self.num_threads = trace.num_threads
        self.label = trace.label

        kind = array("B", bytes(n))
        tid = array("i", [0]) * n if n else array("i")
        addr = array("q", [0]) * n if n else array("q")
        size = array("i", [0]) * n if n else array("i")
        site_id = array("i", [0]) * n if n else array("i")
        cycles = array("q", [0]) * n if n else array("q")
        participants = array("i", [0]) * n if n else array("i")
        is_write = array("B", bytes(n))

        site_ids: dict[Site, int] = {}
        site_table: list[Site] = []
        kind_codes = _KIND_TO_CODE
        for i, event in enumerate(events):
            if event.seq != i:
                raise ProgramError(
                    f"trace is not densely sequenced at index {i} "
                    f"(seq {event.seq}); rebuild it via Trace.append"
                )
            op = event.op
            code = kind_codes[op.kind]
            kind[i] = code
            tid[i] = event.thread_id
            addr[i] = op.addr
            size[i] = op.size
            cycles[i] = op.cycles
            participants[i] = op.participants
            if code == KIND_WRITE:
                is_write[i] = 1
            site = op.site
            if site is None:
                site_id[i] = -1
            else:
                sid = site_ids.get(site)
                if sid is None:
                    sid = site_ids[site] = len(site_table)
                    site_table.append(site)
                site_id[i] = sid

        bug_ids = []
        for site in sorted(
            trace.injected_bug_sites, key=lambda s: (s.file, s.line, s.label)
        ):
            sid = site_ids.get(site)
            if sid is None:
                sid = site_ids[site] = len(site_table)
                site_table.append(site)
            bug_ids.append(sid)

        self.sites = tuple(site_table)
        self.bug_site_ids = tuple(bug_ids)
        self.kind = kind
        self.tid = tid
        self.addr = addr
        self.size = size
        self.site_id = site_id
        self.cycles = cycles
        self.participants = participants
        self.is_write = is_write
        return self

    def to_events(self) -> list[TraceEvent]:
        """Decode back to a list of :class:`TraceEvent` (ops interned).

        Raises :class:`~repro.common.errors.ReproError` once :meth:`close`
        has released mmap-backed columns, rather than decoding nothing.
        """
        if len(self.kind) != self.n:
            raise ReproError(
                f"the columns of trace {self.label!r} were closed before its "
                "events were read; read trace.events before closing the "
                "runner (or the trace cache) that loaded it"
            )
        sites = self.sites
        kinds = _CODE_TO_KIND
        ops: dict[tuple, Op] = {}
        events: list[TraceEvent] = []
        append = events.append
        for i, (code, tid, addr, size, sid, cyc, parts) in enumerate(
            zip(
                self.kind,
                self.tid,
                self.addr,
                self.size,
                self.site_id,
                self.cycles,
                self.participants,
            )
        ):
            key = (code, addr, size, sid, cyc, parts)
            op = ops.get(key)
            if op is None:
                op = ops[key] = Op(
                    kind=kinds[code],
                    addr=addr,
                    size=size,
                    site=sites[sid] if sid >= 0 else None,
                    cycles=cyc,
                    participants=parts,
                )
            append(TraceEvent(seq=i, thread_id=tid, op=op))
        return events

    def to_trace(self) -> Trace:
        """A :class:`Trace` backed by these columns (bug sites and label restored).

        Nothing is decoded here: the trace's ``events`` are built by
        :meth:`to_events` on first access, so read them before
        :meth:`close` releases an mmap-backed instance.
        """
        return Trace(
            num_threads=self.num_threads,
            injected_bug_sites=frozenset(
                self.sites[sid] for sid in self.bug_site_ids
            ),
            label=self.label,
            columns=self,
        )

    # ----------------------------------------------------------- derived data

    def sync_runs(self) -> list[SyncRun]:
        """Segment the trace at global sync points (memoised).

        See the module docstring: barriers end runs, lock/unlock do not.
        """
        runs = self._sync_runs
        if runs is None:
            runs = []
            data = self._kind_bytes()
            needle = bytes((KIND_BARRIER,))
            lo = 0
            pos = data.find(needle)
            while pos >= 0:
                if pos > lo:
                    runs.append(SyncRun(lo, pos, False))
                runs.append(SyncRun(pos, pos + 1, True))
                lo = pos + 1
                pos = data.find(needle, lo)
            if lo < self.n:
                runs.append(SyncRun(lo, self.n, False))
            self._sync_runs = runs
        return runs

    def rows(self) -> list[tuple]:
        """Per-event ``(kind, tid, addr, size, site_id)`` tuples (memoised).

        The batch kernels' working form: one C-level ``zip`` pass builds it,
        after which each event costs one tuple unpack instead of five column
        indexings.
        """
        rows = self._rows
        if rows is None:
            rows = self._rows = list(
                zip(self.kind, self.tid, self.addr, self.size, self.site_id)
            )
        return rows

    def held_locks(self) -> list[int]:
        """Per-event bitmask of the locks the event's thread holds (memoised).

        ``held_locks()[i]`` is the lock set of thread ``tid[i]`` just after
        event ``i``, as an int: every distinct lock word owns one bit,
        assigned in first-acquire order, and the bit stays set while the
        thread's acquire depth on that lock is above zero, so re-entrant
        acquires nest.  One pass over the LOCK/UNLOCK events derives the
        column; the events between two of them copy their thread's current
        mask.  Raises :class:`~repro.common.errors.DetectorError` on the
        release of a lock the thread does not hold.
        """
        held = self._held
        if held is None:
            held = self._held = self._derive_held_locks()
        return held

    def _derive_held_locks(self) -> list[int]:
        data = self._kind_bytes()
        tids = self.tid.tolist()
        addrs = self.addr
        current = [0] * max(self.num_threads, max(tids, default=-1) + 1)
        mask_of_thread = current.__getitem__
        bits: dict[int, int] = {}
        depths: dict[tuple[int, int], int] = {}
        held: list[int] = []
        extend = held.extend
        lo = 0
        for match in _LOCK_OPS.finditer(data):
            i = match.start()
            extend(map(mask_of_thread, tids[lo:i]))
            tid = tids[i]
            addr = addrs[i]
            key = (tid, addr)
            depth = depths.get(key, 0)
            if data[i] == KIND_LOCK:
                bit = bits.get(addr)
                if bit is None:
                    bit = bits[addr] = 1 << len(bits)
                if not depth:
                    current[tid] |= bit
                depths[key] = depth + 1
            else:
                if depth <= 0:
                    raise DetectorError(
                        f"t{tid} released lock 0x{addr:x} it never took"
                    )
                if depth == 1:
                    current[tid] &= ~bits[addr]
                depths[key] = depth - 1
            held.append(current[tid])
            lo = i + 1
        extend(map(mask_of_thread, tids[lo:]))
        return held

    def _kind_bytes(self) -> bytes:
        kind = self.kind
        return kind.tobytes() if isinstance(kind, array) else bytes(kind)

    def content_digest(self) -> str:
        """A stable hex digest of the full trace content (memoised).

        Identical for array-backed and mmap-loaded instances of the same
        trace: the hash covers the serialisation header (metadata + site
        table) and every packed column's raw bytes, which is exactly what
        :meth:`to_bytes` round-trips.  Keys the on-disk tape cache.
        """
        digest = self._digest
        if digest is None:
            h = hashlib.blake2b(digest_size=16)
            meta = {
                "version": FORMAT_VERSION,
                "n": self.n,
                "num_threads": self.num_threads,
                "label": self.label,
                "sites": [[s.file, s.line, s.label] for s in self.sites],
                "bug_sites": list(self.bug_site_ids),
            }
            h.update(json.dumps(meta, separators=(",", ":")).encode("utf-8"))
            for name, _ in _COLUMNS:
                column = getattr(self, name)
                h.update(
                    column.tobytes()
                    if isinstance(column, array)
                    else bytes(column)
                )
            digest = self._digest = h.hexdigest()
        return digest

    def close(self) -> None:
        """Release mmap-backed resources deterministically (idempotent).

        Closes any machine tapes memoised on these columns, releases the
        column memoryviews, and closes the backing buffer when it is an
        ``mmap``.  After closing, the packed columns must not be read again
        (a lazy :meth:`to_events` decode raises instead); in-memory
        (array-backed) instances are unaffected apart from losing their
        tape memo.
        """
        for tape in self._tapes.values():
            close_tape = getattr(tape, "close", None)
            if close_tape is not None:
                close_tape()
        self._tapes = {}
        self._rows = None
        self._held = None
        buf = self._buffer
        if buf is None:
            return
        for name, _ in _COLUMNS:
            column = getattr(self, name, None)
            if isinstance(column, memoryview):
                column.release()
                setattr(self, name, ())
        self._buffer = None
        close_buf = getattr(buf, "close", None)
        if close_buf is not None:
            close_buf()

    # ---------------------------------------------------------- serialisation

    def to_bytes(self) -> bytes:
        """Serialise to the versioned binary format (see docs/trace_format.md)."""
        payload_parts: list[bytes] = []
        columns_meta: dict[str, list] = {}
        offset = 0
        for name, typecode in _COLUMNS:
            column = getattr(self, name)
            raw = (
                column.tobytes() if isinstance(column, array) else bytes(column)
            )
            pad = (-offset) % 8
            if pad:
                payload_parts.append(b"\x00" * pad)
                offset += pad
            columns_meta[name] = [typecode, offset, len(raw)]
            payload_parts.append(raw)
            offset += len(raw)
        header = {
            "version": FORMAT_VERSION,
            "n": self.n,
            "num_threads": self.num_threads,
            "label": self.label,
            "sites": [[s.file, s.line, s.label] for s in self.sites],
            "bug_sites": list(self.bug_site_ids),
            "columns": columns_meta,
        }
        header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
        prefix = _MAGIC + struct.pack("<II", FORMAT_VERSION, len(header_bytes))
        pad = (-(len(prefix) + len(header_bytes))) % 8
        return b"".join(
            [prefix, header_bytes, b"\x00" * pad, *payload_parts]
        )

    @classmethod
    def from_bytes(cls, buf) -> "ColumnarTrace":
        """Deserialise from :meth:`to_bytes` output.

        ``buf`` may be ``bytes`` or an ``mmap.mmap``; columns become
        zero-copy ``memoryview`` casts into it either way, so an mmap-backed
        trace pays no decode cost for the packed data.  Raises
        :class:`~repro.common.errors.ProgramError` for a buffer that does
        not hold every column in full, or whose columns a decode would
        reject (see :meth:`_check_codes`).
        """
        view = memoryview(buf)
        if bytes(view[: len(_MAGIC)]) != _MAGIC:
            raise ProgramError("not a columnar trace buffer (bad magic)")
        version, header_len = struct.unpack_from("<II", view, len(_MAGIC))
        if version != FORMAT_VERSION:
            raise ProgramError(
                f"unsupported columnar trace format version {version} "
                f"(expected {FORMAT_VERSION})"
            )
        header_start = len(_MAGIC) + 8
        header = json.loads(
            bytes(view[header_start : header_start + header_len])
        )
        payload_start = header_start + header_len
        payload_start += (-payload_start) % 8

        self = cls()
        self.n = header["n"]
        self.num_threads = header["num_threads"]
        self.label = header["label"]
        self.sites = tuple(
            Site(file=f, line=line, label=label)
            for f, line, label in header["sites"]
        )
        self.bug_site_ids = tuple(header["bug_sites"])
        self._buffer = buf
        n = self.n
        for name, typecode in _COLUMNS:
            code, offset, nbytes = header["columns"][name]
            if code != typecode:
                raise ProgramError(
                    f"column {name!r} typecode mismatch: {code!r} != {typecode!r}"
                )
            start = payload_start + offset
            if start + nbytes > len(view):
                raise ProgramError(
                    f"column {name!r} runs past the end of the buffer "
                    f"({start + nbytes} > {len(view)} bytes): truncated entry"
                )
            column = view[start : start + nbytes].cast(typecode)
            if len(column) != n:
                raise ProgramError(
                    f"column {name!r} holds {len(column)} items, expected {n}"
                )
            setattr(self, name, column)
        self._check_codes()
        return self

    def _check_codes(self) -> None:
        """Reject kind codes and site ids a decode could not resolve.

        C-level passes over the packed columns (``bytes.translate`` for the
        kind codes, ``min``/``max`` for the site ids), so a load answers for
        the whole entry without decoding a single event.
        """
        unknown = bytes(self.kind).translate(None, _KNOWN_KIND_CODES)
        if unknown:
            raise ProgramError(f"unknown op kind code {unknown[0]}")
        num_sites = len(self.sites)
        if self.n and (min(self.site_id) < -1 or max(self.site_id) >= num_sites):
            raise ProgramError(
                f"site id out of range [-1, {num_sites}) in the site_id column"
            )
        if any(not 0 <= sid < num_sites for sid in self.bug_site_ids):
            raise ProgramError(f"bug site id out of range [0, {num_sites})")


def columns_of(trace_or_columns) -> ColumnarTrace:
    """Coerce either representation to a :class:`ColumnarTrace`.

    Accepts a :class:`ColumnarTrace` (returned as-is) or anything with a
    ``columns()`` accessor (a :class:`~repro.common.events.Trace`).
    """
    if isinstance(trace_or_columns, ColumnarTrace):
        return trace_or_columns
    return trace_or_columns.columns()
