"""Machine replay tapes: the data-path of one trace, recorded once.

Every machine-backed detector core drives the simulated CMP through the
same *canonical* access sequence (see
:class:`repro.reporting.DetectorCore`), so for a given
(:class:`~repro.common.coltrace.ColumnarTrace`,
:class:`~repro.common.config.MachineConfig`) pair the cache/coherence
behaviour — fills and their sources, writebacks, evictions, invalidations,
L2 displacements, per-access piggyback opportunities, post-access sharer
flags, total data-path cycles and counters — is a pure function of the
trace.  :class:`MachineTape` records that behaviour once, by walking the
trace through a real :class:`~repro.sim.machine.Machine`'s columnar kernel
(:meth:`~repro.sim.machine.Machine.record`, the batch counterpart of the
per-event ``Machine.access``), into flat packed arrays the vectorized
batch kernels (``DetectorCore.step_batch``) consume without touching the
simulator again.

The tape deduplicates the replay *across cores* — every batch kernel with
an equal machine configuration reads the same tape — and *across walks*: a
second :class:`~repro.engine.EngineSession` over the same trace (a
benchmark round, a fuzz-oracle ablation, an experiment-runner memo hit)
replays nothing at all.

Tape layout (all dense, ``n`` = number of trace events):

* ``hook_off['q', n+1]`` — per-event spans into the hook stream;
* ``hook_code['B']``/``hook_line['q']``/``hook_core['i']``/``hook_aux['i']``
  — one record per callback a coherence listener would receive, in
  callback order, coded by the ``HOOK_*`` opcodes of
  :mod:`repro.sim.coherence` (re-exported here).
  ``hook_aux`` carries the supplying core for cache-to-cache fills and the
  dirty flag for L1 evictions;
* ``pig['B', n]`` — per-event metadata-piggyback opportunity count
  (memory events only: one per non-memory fill + one per dirty L1 victim,
  exactly the transfers HARD's metadata rides — Section 3.4);
* ``sharer_off['q', n+1]`` / ``sharer_line['q']`` / ``sharer_flag['B']``
  — for each line a memory event touched, whether any *other* core still
  held it once the access completed (the broadcast predicate of Figure 6);
* ``machine_cycles`` / ``machine_stats`` / ``bus_stats`` — the shared
  data-path totals a kernel merges under its private detector charges.
"""

from __future__ import annotations

import time

from repro.common.coltrace import ColumnarTrace
from repro.common.config import MachineConfig
from repro.common.errors import ProgramError
from repro.common.fsio import PackedFormat
from repro.sim.coherence import (  # noqa: F401  (re-exported hook opcodes)
    HOOK_FILL_CORE,
    HOOK_FILL_L2,
    HOOK_FILL_MEM,
    HOOK_INVALIDATE,
    HOOK_L1_EVICT,
    HOOK_L2_EVICT,
    HOOK_WRITEBACK,
)
from repro.sim.machine import LOCK_WORD_BYTES, Machine

#: On-disk tape format magic + version (bump on any layout or digest change).
_TAPE_MAGIC = b"RPRTAPE1"
TAPE_FORMAT_VERSION = 3

#: (attribute, array typecode) of every packed tape array, in
#: serialisation order.
_TAPE_ARRAYS = (
    ("hook_off", "q"),
    ("hook_code", "B"),
    ("hook_line", "q"),
    ("hook_core", "i"),
    ("hook_aux", "i"),
    ("pig", "B"),
    ("sharer_off", "q"),
    ("sharer_line", "q"),
    ("sharer_flag", "B"),
)

_TAPE_FORMAT = PackedFormat(
    "machine tape", _TAPE_MAGIC, TAPE_FORMAT_VERSION, _TAPE_ARRAYS
)


def machine_signature(machine_config: MachineConfig) -> str:
    """A stable string identifying one machine configuration.

    ``MachineConfig`` is a frozen dataclass of primitives, so its ``repr``
    is deterministic and covers every field — exactly what the tape cache
    needs to key entries by configuration.
    """
    return repr(machine_config)


class MachineTape:
    """The recorded data-path of one columnar trace on one machine config."""

    __slots__ = (
        "machine_config",
        "hook_off",
        "hook_code",
        "hook_line",
        "hook_core",
        "hook_aux",
        "pig",
        "sharer_off",
        "sharer_line",
        "sharer_flag",
        "machine_cycles",
        "machine_stats",
        "bus_stats",
        "_access_cycles",
        "_buffer",
        "__weakref__",
    )

    def __init__(self, cols: ColumnarTrace, machine_config: MachineConfig):
        self.machine_config = machine_config
        self._buffer = None
        self._access_cycles = None
        machine = Machine(machine_config)
        (
            self.hook_off,
            self.hook_code,
            self.hook_line,
            self.hook_core,
            self.hook_aux,
            self.pig,
            self.sharer_off,
            self.sharer_line,
            self.sharer_flag,
        ) = machine.record(cols)
        self.machine_cycles = machine.cycles
        self.machine_stats = machine.stats.snapshot()
        self.bus_stats = machine.bus.stats.snapshot()

    @classmethod
    def for_columns(
        cls,
        cols: ColumnarTrace,
        machine_config: MachineConfig,
        cache=None,
        recorder=None,
    ) -> "MachineTape":
        """The tape for ``(cols, machine_config)``, memoised on ``cols``.

        With a :class:`~repro.harness.tracecache.TapeCache`, a memo miss
        first tries the on-disk cache (mmap-loaded, zero decode cost) and a
        fresh recording is persisted for every later process and session —
        so each (trace, machine config) pair is simulated once *ever*.  A
        :class:`~repro.obs.telemetry.FlightRecorder` gets the fetch as a
        ``tape.memo``, ``tape.load`` or ``tape.record`` frame.
        """
        t0 = time.perf_counter()
        tape = cols._tapes.get(machine_config)
        source = "memo"
        if tape is None:
            source = "load"
            if cache is not None:
                tape = cache.load(cols, machine_config)
            if tape is None:
                source = "record"
                tape = cls(cols, machine_config)
                if cache is not None:
                    cache.store(cols, tape)
            cols._tapes[machine_config] = tape
        if recorder is not None:
            recorder.record_tape(source, time.perf_counter() - t0)
        return tape

    def access_cycles(self, cols: ColumnarTrace) -> dict[int, int]:
        """Cycles of each READ/WRITE access, as a value→count histogram.

        The ``machine.access_cycles`` observations a scalar machine-backed
        core books, one per data access.  Computed on first call by driving
        the canonical access sequence of ``cols`` (this tape's trace)
        through the per-event :meth:`~repro.sim.machine.Machine.access`
        oracle, then memoised on this object: it is neither serialised nor
        part of the tape format, so a run without metrics never pays for
        it.  COMPUTE charges are skipped: no access latency depends on them.
        """
        counts = self._access_cycles
        if counts is None:
            counts = {}
            machine = Machine(self.machine_config)
            core_for_thread = machine.core_for_thread
            access = machine.access
            for kind, tid, addr, size, _ in cols.rows():
                core = core_for_thread(tid)
                if kind <= 1:  # READ / WRITE
                    cycles = access(core, addr, size, kind == 1).cycles
                    counts[cycles] = counts.get(cycles, 0) + 1
                elif kind <= 3:  # LOCK / UNLOCK: one write of the lock word
                    access(core, addr, LOCK_WORD_BYTES, True)
            self._access_cycles = counts
        return counts

    def emit_evictions(self, emitter) -> None:
        """Emit the ``cache.evict`` and ``l2.displacement`` events of the walk.

        One ``cache.evict`` per L1 capacity eviction (named ``L1#<core>``,
        dirty as its hook's ``hook_aux``) and, per L2 displacement, one
        ``cache.evict`` of the ``L2`` plus one ``l2.displacement`` (Section
        3.6): the events a per-event :class:`~repro.sim.machine.Machine`
        driven through the same trace sees its caches displace.  The L2
        record carries no dirty bit, but the hook stream implies it: an L2
        line is filled clean from memory, and only a writeback makes it
        dirty.
        """
        emit = emitter.emit
        written: set[int] = set()
        for code, line, core, aux in zip(
            self.hook_code, self.hook_line, self.hook_core, self.hook_aux
        ):
            if code == HOOK_WRITEBACK:
                written.add(line)
            elif code == HOOK_L1_EVICT:
                emit("cache.evict", cache=f"L1#{core}", line=line, dirty=aux == 1)
            elif code == HOOK_L2_EVICT:
                dirty = line in written
                written.discard(line)
                emit("cache.evict", cache="L2", line=line, dirty=dirty)
                emit("l2.displacement", line=line)

    # ---------------------------------------------------------- serialisation

    def to_bytes(self) -> bytes:
        """Serialise to the columnar trace's container (docs/trace_format.md).

        The machine totals ride in the header; :meth:`from_bytes` casts the
        arrays straight out of an ``mmap`` without decoding.
        """
        meta = {
            "machine_cycles": self.machine_cycles,
            "machine_stats": dict(self.machine_stats),
            "bus_stats": dict(self.bus_stats),
        }
        return _TAPE_FORMAT.pack(self, meta)

    @classmethod
    def from_bytes(
        cls, buf, machine_config: MachineConfig | None = None
    ) -> "MachineTape":
        """Deserialise from :meth:`to_bytes` output.

        ``buf`` may be ``bytes`` or an ``mmap.mmap``; arrays become
        zero-copy ``memoryview`` casts into it either way.  Raises
        :class:`~repro.common.errors.ProgramError` for a buffer the
        container rejects (:meth:`~repro.common.fsio.PackedFormat.unpack`),
        arrays that disagree on the event count or the hook and sharer
        totals, or content that does not hash to the header's digest.
        """
        self = cls.__new__(cls)
        self.machine_config = machine_config
        self._access_cycles = None
        meta = _TAPE_FORMAT.unpack(self, buf)
        self.machine_cycles = meta["machine_cycles"]
        self.machine_stats = meta["machine_stats"]
        self.bus_stats = meta["bus_stats"]
        self._check_counts()
        _TAPE_FORMAT.verify(self, meta)
        return self

    def _check_counts(self) -> None:
        """Reject arrays whose item counts disagree with one another."""

        def expect(name: str, count: int) -> None:
            if len(getattr(self, name)) != count:
                raise ProgramError(
                    f"tape array {name!r} holds {len(getattr(self, name))} "
                    f"items, expected {count}"
                )

        n = len(self.pig)
        expect("hook_off", n + 1)
        expect("sharer_off", n + 1)
        for name in ("hook_code", "hook_line", "hook_core", "hook_aux"):
            expect(name, self.hook_off[n])
        for name in ("sharer_line", "sharer_flag"):
            expect(name, self.sharer_off[n])

    def close(self) -> None:
        """Release mmap-backed resources deterministically (idempotent)."""
        _TAPE_FORMAT.release(self)
