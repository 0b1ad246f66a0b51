"""Packed columnar trace representation (the redesigned trace substrate).

An event-list :class:`~repro.common.events.Trace` holds immutable event and
op records — ideal for construction and debugging, hostile to throughput:
every detector pass re-dereferences ``event.op.kind`` / ``.addr`` /
``.size`` through three Python objects per event.  The interleaver never
builds that list: it packs its executed ops straight into a
:class:`ColumnarTrace` (:meth:`ColumnarTrace.from_ops`), which stores the
execution as parallel packed columns (one :mod:`array`/``memoryview`` per
field) with an interned site table, so that

* batch detector kernels (``DetectorCore.step_batch``) walk plain ints,
* the on-disk :class:`~repro.harness.tracecache.TraceCache` serialises the
  columns verbatim and reloads them via ``mmap`` with zero decode cost,
* derived per-event data (machine tapes, held-lock masks, row tuples)
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

Held locks
----------

:meth:`held_locks` derives, once per trace, the locks each event's thread
holds as an exact int bitmask (one bit per distinct lock word), so the
lockset kernels intersect candidate sets with ``&`` — HARD's BFVector AND
without the Bloom filter's collisions.
"""

from __future__ import annotations

import re
from array import array
from operator import attrgetter

from repro.common.errors import DetectorError, ProgramError, ReproError
from repro.common.events import InjectedBug, Op, OpKind, Site, Trace, TraceEvent
from repro.common.fsio import PackedFormat

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


_KIND_OF = attrgetter("kind")

#: ``bytes.translate`` table mapping a kind code to its ``is_write`` flag.
_IS_WRITE = bytes(int(code == KIND_WRITE) for code in range(256))


def kind_codes(ops) -> bytes:
    """The packed kind code of every op in ``ops``, one byte each."""
    return bytes(map(_KIND_TO_CODE.__getitem__, map(_KIND_OF, ops)))


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
FORMAT_VERSION = 2

_FORMAT = PackedFormat("columnar trace", _MAGIC, FORMAT_VERSION, _COLUMNS)


class ColumnarTrace:
    """A trace as parallel packed columns with an interned site table.

    Construct via :meth:`from_ops` (the interleaver packs its executed ops
    this way), :meth:`from_events` (or :meth:`Trace.columns()
    <repro.common.events.Trace.columns>`, which memoises the result on the
    trace), or :meth:`from_bytes`.  Columns are :class:`array.array`
    objects when built in memory and ``memoryview`` casts when loaded from
    an mmap-ed cache file; both support indexing, iteration and ``len``
    identically.  :meth:`to_events` decodes fresh :class:`Op` and
    :class:`Site` objects (interned within the decode): equal to the ops
    that were packed, not the same objects.
    """

    __slots__ = (
        "n",
        "num_threads",
        "label",
        "sites",
        "bug",
        "kind",
        "tid",
        "addr",
        "size",
        "site_id",
        "cycles",
        "participants",
        "is_write",
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
        #: The injected bug of the run (``None`` for a clean run); its sites
        #: are interned in :attr:`sites`.
        self.bug: InjectedBug | None = None
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
    def from_ops(
        cls,
        tids,
        ops,
        *,
        num_threads: int,
        label: str = "",
        bug: InjectedBug | None = None,
    ) -> "ColumnarTrace":
        """Pack executed ``ops`` and their thread ids into columns.

        ``tids[i]`` is the thread that executed ``ops[i]``; index ``i`` is
        the event's position in the trace.  One ``zip(*ops)`` transposes the
        op records into per-field columns, and no op is hashed: kind codes
        come from an ``{OpKind: code}`` map, and sites are interned by
        ``id()`` first
        — a program reuses a few hundred site objects across its whole run
        — before the distinct objects are merged by equality.  The site
        table holds one entry per distinct site, in order of first
        appearance, followed by any sites of ``bug`` that no event touched
        (sorted).
        """
        n = len(ops)
        if len(tids) != n:
            raise ProgramError(
                f"{len(tids)} thread ids for {n} ops: every op needs its thread"
            )
        self = cls()
        self.n = n
        self.num_threads = num_threads
        self.label = label
        self.bug = bug

        # One transpose into per-field tuples: cheaper than reading each
        # field op by op, and the tuples go as soon as the arrays are full.
        kinds, addrs, sizes, site_of, cycles, participants = (
            zip(*ops) if n else ((),) * len(Op._fields)
        )
        codes = bytes(map(_KIND_TO_CODE.__getitem__, kinds))
        self.kind = array("B", codes)
        self.is_write = array("B", codes.translate(_IS_WRITE))
        self.tid = array("i", tids)
        self.addr = array("q", addrs)
        self.size = array("i", sizes)
        self.cycles = array("q", cycles)
        self.participants = array("i", participants)
        del kinds, addrs, sizes, cycles, participants

        site_keys = list(map(id, site_of))
        # id -> site, keyed in first-appearance order; the ops keep every
        # site alive, so no id is reused while this runs.
        distinct = dict(zip(site_keys, site_of))
        site_ids: dict[Site, int] = {}
        site_table: list[Site] = []
        sid_of_key: dict[int, int] = {}
        for key, site in distinct.items():
            if site is None:
                sid = -1
            else:
                sid = site_ids.get(site)
                if sid is None:
                    sid = site_ids[site] = len(site_table)
                    site_table.append(site)
            sid_of_key[key] = sid
        self.site_id = array("i", list(map(sid_of_key.__getitem__, site_keys)))

        bug_sites = bug.sites if bug is not None else ()
        for site in sorted(bug_sites, key=lambda s: (s.file, s.line, s.label)):
            if site not in site_ids:
                site_ids[site] = len(site_table)
                site_table.append(site)
        self.sites = tuple(site_table)
        return self

    @classmethod
    def from_events(cls, trace: Trace) -> "ColumnarTrace":
        """Encode a :class:`~repro.common.events.Trace` into columns.

        Checks that the events are densely sequenced, then packs their ops
        and thread ids with :meth:`from_ops`.
        """
        events = trace.events
        seqs = [event.seq for event in events]
        if seqs != list(range(len(seqs))):
            i = next(i for i, seq in enumerate(seqs) if seq != i)
            raise ProgramError(
                f"trace is not densely sequenced at index {i} "
                f"(seq {seqs[i]}); rebuild it via Trace.append"
            )
        return cls.from_ops(
            [event.thread_id for event in events],
            [event.op for event in events],
            num_threads=trace.num_threads,
            label=trace.label,
            bug=trace.injected_bug,
        )

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
        """A :class:`Trace` backed by these columns (bug and label restored).

        Nothing is decoded here: the trace's ``events`` are built by
        :meth:`to_events` on first access, so read them before
        :meth:`close` releases an mmap-backed instance.
        """
        return Trace(
            num_threads=self.num_threads,
            injected_bug=self.bug,
            label=self.label,
            columns=self,
        )

    # ----------------------------------------------------------- derived data

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
        trace: the container digest (:class:`~repro.common.fsio.PackedFormat`)
        of the header's metadata (counts, label, site table, injected bug)
        and every packed column, which is exactly what :meth:`to_bytes`
        round-trips.  Keys the on-disk tape cache, and :meth:`from_bytes`
        checks it on every load.
        """
        digest = self._digest
        if digest is None:
            digest = self._digest = _FORMAT.digest(self, self._meta())
        return digest

    def _meta(self) -> dict:
        """The header fields besides the version, column layout and digest."""
        bug = self.bug
        if bug is not None:
            site_ids = {site: sid for sid, site in enumerate(self.sites)}
            bug = {
                "thread": bug.thread_id,
                "lock": bug.lock_addr,
                "ops": [bug.lock_op_index, bug.unlock_op_index],
                "chunks": sorted(bug.chunk_addresses),
                "sites": sorted(site_ids[site] for site in bug.sites),
            }
        return {
            "n": self.n,
            "num_threads": self.num_threads,
            "label": self.label,
            "sites": [[s.file, s.line, s.label] for s in self.sites],
            "bug": bug,
        }

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
        _FORMAT.release(self)

    # ---------------------------------------------------------- serialisation

    def to_bytes(self) -> bytes:
        """Serialise to the versioned binary format (see docs/trace_format.md)."""
        return _FORMAT.pack(self, self._meta(), self.content_digest())

    @classmethod
    def from_bytes(cls, buf) -> "ColumnarTrace":
        """Deserialise from :meth:`to_bytes` output.

        ``buf`` may be ``bytes`` or an ``mmap.mmap``; columns become
        zero-copy ``memoryview`` casts into it either way, so an mmap-backed
        trace pays no decode cost for the packed data.  Raises
        :class:`~repro.common.errors.ProgramError` for a buffer the
        container rejects (:meth:`~repro.common.fsio.PackedFormat.unpack`),
        a column not exactly ``n`` items long, columns a decode would
        reject (see :meth:`_check_codes`), or content that does not hash to
        the header's :meth:`content_digest`.  The verified digest stays
        memoised, so keying a tape by it costs no second hash.
        """
        self = cls()
        meta = _FORMAT.unpack(self, buf)
        n = self.n = meta["n"]
        self.num_threads = meta["num_threads"]
        self.label = meta["label"]
        self.sites = tuple(
            Site(file=f, line=line, label=label) for f, line, label in meta["sites"]
        )
        self.bug = self._bug_from(meta["bug"])
        for name, _ in _COLUMNS:
            if len(getattr(self, name)) != n:
                raise ProgramError(
                    f"column {name!r} holds {len(getattr(self, name))} items, "
                    f"expected {n}"
                )
        self._check_codes()
        self._digest = _FORMAT.verify(self, meta)
        return self

    def _bug_from(self, data) -> InjectedBug | None:
        """Decode a header's ``bug`` field against the loaded site table."""
        if data is None:
            return None
        num_sites = len(self.sites)
        if any(not 0 <= sid < num_sites for sid in data["sites"]):
            raise ProgramError(f"bug site id out of range [0, {num_sites})")
        lock_op, unlock_op = data["ops"]
        return InjectedBug(
            thread_id=data["thread"],
            lock_addr=data["lock"],
            lock_op_index=lock_op,
            unlock_op_index=unlock_op,
            chunk_addresses=frozenset(data["chunks"]),
            sites=frozenset(self.sites[sid] for sid in data["sites"]),
        )

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
