"""Program operations and trace events.

A *thread program* is a sequence of :class:`Op` objects — the dynamic
instruction stream of one thread, reduced to the operations that matter for
race detection: shared-memory reads and writes, lock acquire/release,
barriers, and compute delays (which only affect the timing model).

A *trace event* is one executed operation, stamped with the thread that
executed it and a global sequence number.  The scheduler in
``repro.threads`` interleaves per-thread programs into a single global trace;
every detector then consumes the *same* trace, mirroring the paper's
"identical executions" comparison methodology (Section 5.1).

Each memory operation carries a ``site`` — a static source-location label.
The paper counts false positives "at source code level" (Section 5.1), so
sites are the unit of false-alarm accounting: many dynamic reports against
one site count as a single alarm.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.common.errors import ProgramError


class OpKind(enum.Enum):
    """Discriminator for the operation union."""

    READ = "read"
    WRITE = "write"
    LOCK = "lock"
    UNLOCK = "unlock"
    BARRIER = "barrier"
    COMPUTE = "compute"


@dataclass(frozen=True)
class Site:
    """A static source location in a (synthetic) program.

    ``file`` and ``line`` mimic a real source position; ``label`` is a short
    human-readable tag such as ``"taskq.dequeue"``.  Two dynamic accesses
    report as the same alarm iff their sites compare equal.
    """

    file: str
    line: int
    label: str = ""

    def __str__(self) -> str:
        suffix = f" ({self.label})" if self.label else ""
        return f"{self.file}:{self.line}{suffix}"


@dataclass(frozen=True)
class Op:
    """One dynamic operation of a thread program.

    Attributes:
        kind: which operation this is.
        addr: byte address for READ/WRITE, lock-word address for LOCK/UNLOCK,
            barrier id for BARRIER, unused for COMPUTE.
        size: access size in bytes for READ/WRITE (1–8 in practice).
        site: static source location; required for memory and sync ops.
        cycles: for COMPUTE, how many core cycles of local work to charge.
        participants: for BARRIER, how many threads must arrive before any
            may leave.  All threads waiting on the same barrier id must agree.
    """

    kind: OpKind
    addr: int = 0
    size: int = 0
    site: Site | None = None
    cycles: int = 0
    participants: int = 0

    def __post_init__(self) -> None:
        if self.kind in (OpKind.READ, OpKind.WRITE):
            if self.size <= 0:
                raise ProgramError(f"{self.kind.value} needs a positive size")
            if self.site is None:
                raise ProgramError(f"{self.kind.value} needs a site")
        elif self.kind in (OpKind.LOCK, OpKind.UNLOCK):
            if self.site is None:
                raise ProgramError(f"{self.kind.value} needs a site")
        elif self.kind is OpKind.BARRIER:
            if self.participants <= 0:
                raise ProgramError("barrier needs a positive participant count")
        elif self.kind is OpKind.COMPUTE:
            if self.cycles < 0:
                raise ProgramError("compute cycles must be non-negative")

    @property
    def is_write(self) -> bool:
        """True for WRITE operations.

        Hot paths should not query this per event: the columnar encoding
        (:meth:`Trace.columns`) carries a packed ``is_write`` column instead,
        so the flag lives in data rather than behind a bent frozen-dataclass
        ``object.__setattr__`` back-door.
        """
        return self.kind is OpKind.WRITE

    @property
    def is_memory_access(self) -> bool:
        """True for READ and WRITE operations."""
        return self.kind in (OpKind.READ, OpKind.WRITE)

    @property
    def is_sync(self) -> bool:
        """True for LOCK, UNLOCK and BARRIER operations."""
        return self.kind in (OpKind.LOCK, OpKind.UNLOCK, OpKind.BARRIER)


def read(addr: int, site: Site, size: int = 4) -> Op:
    """Construct a shared-memory read of ``size`` bytes at ``addr``."""
    return Op(kind=OpKind.READ, addr=addr, size=size, site=site)


def write(addr: int, site: Site, size: int = 4) -> Op:
    """Construct a shared-memory write of ``size`` bytes at ``addr``."""
    return Op(kind=OpKind.WRITE, addr=addr, size=size, site=site)


def lock(lock_addr: int, site: Site) -> Op:
    """Construct a lock-acquire of the lock word at ``lock_addr``."""
    return Op(kind=OpKind.LOCK, addr=lock_addr, site=site)


def unlock(lock_addr: int, site: Site) -> Op:
    """Construct a lock-release of the lock word at ``lock_addr``."""
    return Op(kind=OpKind.UNLOCK, addr=lock_addr, site=site)


def barrier(barrier_id: int, participants: int, site: Site | None = None) -> Op:
    """Construct a barrier-wait on ``barrier_id`` with ``participants`` arrivals."""
    return Op(
        kind=OpKind.BARRIER, addr=barrier_id, participants=participants, site=site
    )


def compute(cycles: int) -> Op:
    """Construct a local-compute delay of ``cycles`` core cycles."""
    return Op(kind=OpKind.COMPUTE, cycles=cycles)


@dataclass(frozen=True)
class TraceEvent:
    """One executed operation in the global interleaved trace.

    Attributes:
        seq: global sequence number (0-based, dense, strictly increasing).
        thread_id: the executing thread.
        op: the operation that was executed.
    """

    seq: int
    thread_id: int
    op: Op

    def __str__(self) -> str:
        op = self.op
        if op.is_memory_access:
            body = f"{op.kind.value} 0x{op.addr:x}+{op.size} @{op.site}"
        elif op.kind in (OpKind.LOCK, OpKind.UNLOCK):
            body = f"{op.kind.value} L0x{op.addr:x}"
        elif op.kind is OpKind.BARRIER:
            body = f"barrier #{op.addr}"
        else:
            body = f"compute {op.cycles}cy"
        return f"[{self.seq}] t{self.thread_id}: {body}"


class Trace:
    """A fully interleaved execution: the input every detector consumes.

    The trace also records which synthetic *bug* (if any) was injected into
    the run, so the harness can score detector output against ground truth.

    A trace is backed by its event list, by its packed columnar encoding
    (``columns=``, a :class:`~repro.common.coltrace.ColumnarTrace`), or by
    both.  A column-backed trace decodes :attr:`events` on first access;
    ``len()``, :meth:`columns` and the metadata answer from the columns
    without decoding, so a batch-path consumer never builds event objects.
    """

    def __init__(
        self,
        events: list[TraceEvent] | None = None,
        num_threads: int = 0,
        injected_bug_sites: frozenset[Site] = frozenset(),
        label: str = "",
        *,
        columns=None,
    ):
        if events is None and columns is None:
            events = []
        #: The decoded event list; ``None`` until a column-backed trace is
        #: first read event by event.
        self._events = events
        self._columnar = columns
        self.num_threads = num_threads
        self.injected_bug_sites = injected_bug_sites
        self.label = label

    @property
    def events(self) -> list[TraceEvent]:
        """The executed events in order (decoded from the columns on first use)."""
        events = self._events
        if events is None:
            events = self._events = self._columnar.to_events()
        return events

    def __len__(self) -> int:
        events = self._events
        return len(events) if events is not None else self._columnar.n

    def __iter__(self):
        return iter(self.events)

    def append(self, thread_id: int, op: Op) -> TraceEvent:
        """Append an executed op, assigning the next sequence number."""
        events = self._events
        if events is None:
            events = self.events
        event = TraceEvent(seq=len(events), thread_id=thread_id, op=op)
        events.append(event)
        return event

    def columns(self):
        """The packed columnar encoding of this trace (memoised).

        Returns a :class:`~repro.common.coltrace.ColumnarTrace`.  The
        encoding is built once and cached; appending further events
        invalidates the cache (guarded by event count, which a
        column-backed trace answers without decoding).
        """
        columnar = self._columnar
        if columnar is None or columnar.n != len(self):
            from repro.common.coltrace import ColumnarTrace

            columnar = ColumnarTrace.from_events(self)
            self._columnar = columnar
        return columnar

    def sync_runs(self):
        """Trace segments between global sync points (memoised).

        Returns the columnar encoding's
        :meth:`~repro.common.coltrace.ColumnarTrace.sync_runs` — maximal
        barrier-free runs, with each barrier a singleton ``sync`` run.
        """
        return self.columns().sync_runs()

    def memory_accesses(self) -> list[TraceEvent]:
        """All READ/WRITE events, in trace order."""
        return [ev for ev in self.events if ev.op.is_memory_access]

    def sites(self) -> set[Site]:
        """All distinct sites of memory accesses in the trace."""
        return {
            ev.op.site
            for ev in self.events
            if ev.op.is_memory_access and ev.op.site is not None
        }

    def footprint_lines(self, line_size: int = 32) -> int:
        """Number of distinct cache lines touched by memory accesses."""
        lines = {ev.op.addr & ~(line_size - 1) for ev in self.memory_accesses()}
        return len(lines)
