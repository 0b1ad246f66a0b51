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

import hashlib
import json
import struct
import time
from array import array

from repro.common.coltrace import ColumnarTrace
from repro.common.config import MachineConfig
from repro.common.errors import ProgramError
from repro.sim.coherence import (  # noqa: F401  (re-exported hook opcodes)
    HOOK_FILL_CORE,
    HOOK_FILL_L2,
    HOOK_FILL_MEM,
    HOOK_INVALIDATE,
    HOOK_L1_EVICT,
    HOOK_L2_EVICT,
    HOOK_WRITEBACK,
)
from repro.sim.machine import Machine

#: On-disk tape format magic + version (bump on any layout change).
_TAPE_MAGIC = b"RPRTAPE1"
TAPE_FORMAT_VERSION = 2

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


def _tape_digest(header: dict, payload) -> str:
    """blake2b of a tape header (sans digest) and its payload buffers."""
    h = hashlib.blake2b(
        json.dumps(header, separators=(",", ":")).encode("utf-8"), digest_size=16
    )
    for part in payload:
        h.update(part)
    return h.hexdigest()


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
        "_buffer",
        "__weakref__",
    )

    def __init__(self, cols: ColumnarTrace, machine_config: MachineConfig):
        self.machine_config = machine_config
        self._buffer = None
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

    @classmethod
    def empty(cls, n: int, machine_config: MachineConfig | None = None) -> "MachineTape":
        """An all-zeros tape over ``n`` events (no hooks, no totals).

        The sharded path's stand-in where no real data-path applies: shard
        kernels replay only the hooks a shard owns, and the parent adds the
        real tape's shared totals exactly once at merge time.
        """
        self = cls.__new__(cls)
        self.machine_config = machine_config
        self._buffer = None
        self.hook_off = array("q", bytes(8 * (n + 1)))
        self.hook_code = array("B")
        self.hook_line = array("q")
        self.hook_core = array("i")
        self.hook_aux = array("i")
        self.pig = array("B", bytes(n))
        self.sharer_off = array("q", bytes(8 * (n + 1)))
        self.sharer_line = array("q")
        self.sharer_flag = array("B")
        self.machine_cycles = 0
        self.machine_stats = {}
        self.bus_stats = {}
        return self

    # ---------------------------------------------------------- serialisation

    def to_bytes(self) -> bytes:
        """Serialise to the versioned zero-copy binary form.

        Same shape as the columnar trace format: magic + JSON header +
        8-byte-aligned packed arrays, so :meth:`from_bytes` can cast the
        arrays straight out of an ``mmap`` without decoding.
        """
        payload_parts: list[bytes] = []
        arrays_meta: dict[str, list] = {}
        offset = 0
        for name, typecode in _TAPE_ARRAYS:
            column = getattr(self, name)
            raw = (
                column.tobytes() if isinstance(column, array) else bytes(column)
            )
            pad = (-offset) % 8
            if pad:
                payload_parts.append(b"\x00" * pad)
                offset += pad
            arrays_meta[name] = [typecode, offset, len(raw)]
            payload_parts.append(raw)
            offset += len(raw)
        header = {
            "version": TAPE_FORMAT_VERSION,
            "machine_cycles": self.machine_cycles,
            "machine_stats": dict(self.machine_stats),
            "bus_stats": dict(self.bus_stats),
            "arrays": arrays_meta,
        }
        header["digest"] = _tape_digest(header, payload_parts)
        header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
        prefix = _TAPE_MAGIC + struct.pack(
            "<II", TAPE_FORMAT_VERSION, len(header_bytes)
        )
        pad = (-(len(prefix) + len(header_bytes))) % 8
        return b"".join([prefix, header_bytes, b"\x00" * pad, *payload_parts])

    @classmethod
    def from_bytes(
        cls, buf, machine_config: MachineConfig | None = None
    ) -> "MachineTape":
        """Deserialise from :meth:`to_bytes` output.

        ``buf`` may be ``bytes`` or an ``mmap.mmap``; arrays become
        zero-copy ``memoryview`` casts into it either way.  Raises
        :class:`~repro.common.errors.ProgramError` for a buffer that does
        not hold every array in full, whose arrays disagree on the event
        count or the hook and sharer totals, or whose header and payload
        do not hash to the header's digest.
        """
        view = memoryview(buf)
        if bytes(view[: len(_TAPE_MAGIC)]) != _TAPE_MAGIC:
            raise ProgramError("not a machine tape buffer (bad magic)")
        version, header_len = struct.unpack_from("<II", view, len(_TAPE_MAGIC))
        if version != TAPE_FORMAT_VERSION:
            raise ProgramError(
                f"unsupported machine tape format version {version} "
                f"(expected {TAPE_FORMAT_VERSION})"
            )
        header_start = len(_TAPE_MAGIC) + 8
        header = json.loads(
            bytes(view[header_start : header_start + header_len])
        )
        payload_start = header_start + header_len
        payload_start += (-payload_start) % 8

        self = cls.__new__(cls)
        self.machine_config = machine_config
        self._buffer = buf
        self.machine_cycles = header["machine_cycles"]
        self.machine_stats = header["machine_stats"]
        self.bus_stats = header["bus_stats"]
        for name, typecode in _TAPE_ARRAYS:
            code, offset, nbytes = header["arrays"][name]
            if code != typecode:
                raise ProgramError(
                    f"tape array {name!r} typecode mismatch: "
                    f"{code!r} != {typecode!r}"
                )
            start = payload_start + offset
            if start + nbytes > len(view):
                raise ProgramError(
                    f"tape array {name!r} runs past the end of the buffer "
                    f"({start + nbytes} > {len(view)} bytes): truncated entry"
                )
            setattr(self, name, view[start : start + nbytes].cast(typecode))
        self._check_counts()
        digest = header.pop("digest", None)
        if digest != _tape_digest(header, [view[payload_start:]]):
            raise ProgramError(
                "machine tape content does not match its header digest: "
                "corrupt entry"
            )
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
        buf = self._buffer
        if buf is None:
            return
        for name, _ in _TAPE_ARRAYS:
            column = getattr(self, name, None)
            if isinstance(column, memoryview):
                column.release()
                setattr(self, name, ())
        self._buffer = None
        close_buf = getattr(buf, "close", None)
        if close_buf is not None:
            close_buf()
