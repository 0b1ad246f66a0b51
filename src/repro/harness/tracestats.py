"""Workload characterization: the numbers behind a trace's behaviour.

The evaluation's dynamics hinge on a handful of trace properties — lock
density, how many threads share each line, working-set size vs the L2,
synchronization mix.  This module measures them, both to audit that the
synthetic SPLASH-2 stand-ins have the intended signatures and to help
users understand why a detector behaves as it does on their own traces.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.common.addresses import line_address
from repro.common.events import OpKind, Trace


@dataclass
class TraceStats:
    """Aggregate characterization of one interleaved trace."""

    total_events: int = 0
    memory_accesses: int = 0
    writes: int = 0
    lock_acquires: int = 0
    lock_releases: int = 0
    barrier_waits: int = 0
    compute_events: int = 0
    distinct_lines: int = 0
    distinct_locks: int = 0
    shared_lines: int = 0
    write_shared_lines: int = 0
    max_lock_nesting: int = 0
    accesses_under_lock: int = 0
    sites: int = 0
    threads: int = 0
    sharers_histogram: dict[int, int] = field(default_factory=dict)

    @property
    def lock_density(self) -> float:
        """Lock acquires per memory access (SPLASH lock apps: ~0.01-0.2)."""
        if not self.memory_accesses:
            return 0.0
        return self.lock_acquires / self.memory_accesses

    @property
    def footprint_bytes(self) -> int:
        """Working-set size (distinct 32 B lines touched)."""
        return self.distinct_lines * 32

    @property
    def write_ratio(self) -> float:
        """Writes per memory access."""
        if not self.memory_accesses:
            return 0.0
        return self.writes / self.memory_accesses

    def to_dict(self) -> dict:
        """JSON-serialisable characterization (embedded in RunReport)."""
        return {
            "total_events": self.total_events,
            "memory_accesses": self.memory_accesses,
            "writes": self.writes,
            "write_ratio": self.write_ratio,
            "lock_acquires": self.lock_acquires,
            "lock_releases": self.lock_releases,
            "lock_density": self.lock_density,
            "barrier_waits": self.barrier_waits,
            "compute_events": self.compute_events,
            "distinct_lines": self.distinct_lines,
            "footprint_bytes": self.footprint_bytes,
            "distinct_locks": self.distinct_locks,
            "shared_lines": self.shared_lines,
            "write_shared_lines": self.write_shared_lines,
            "max_lock_nesting": self.max_lock_nesting,
            "accesses_under_lock": self.accesses_under_lock,
            "sites": self.sites,
            "threads": self.threads,
            "sharers_histogram": {
                str(k): v for k, v in self.sharers_histogram.items()
            },
        }

    def format(self) -> str:
        """A compact characterization report."""
        lines = [
            f"events            {self.total_events:>10,}",
            f"memory accesses   {self.memory_accesses:>10,} "
            f"({100 * self.write_ratio:.0f}% writes, "
            f"{100 * self.accesses_under_lock / max(self.memory_accesses, 1):.0f}% under lock)",
            f"lock acquires     {self.lock_acquires:>10,} "
            f"(density {self.lock_density:.3f}/access, "
            f"{self.distinct_locks} locks, nesting <= {self.max_lock_nesting})",
            f"barrier waits     {self.barrier_waits:>10,}",
            f"footprint         {self.footprint_bytes / 1024:>10,.0f} KB "
            f"({self.distinct_lines:,} lines)",
            f"shared lines      {self.shared_lines:>10,} "
            f"({self.write_shared_lines:,} write-shared)",
        ]
        return "\n".join(lines)


class TraceStatsCore:
    """Incremental trace characterization (an engine-compatible core).

    Trace-only: it never touches a machine, so an
    :class:`~repro.engine.EngineSession` can run it alongside any detector
    cores on the same walk — the ``repro stats`` verb and the pipeline's
    characterize phase both feed it this way.  ``finish`` returns a
    :class:`TraceStats` (not a DetectionResult).
    """

    machine_config = None
    name = "trace-stats"

    def __init__(self, line_size: int = 32):
        self.line_size = line_size

    def begin(self, trace: Trace, obs=None) -> None:
        """Allocate the pass state (trace-only: no machine)."""
        self.stats = TraceStats(threads=trace.num_threads)
        self._line_readers: dict[int, set[int]] = {}
        self._line_writers: dict[int, set[int]] = {}
        self._locks_seen: set[int] = set()
        self._sites: set = set()
        self._nesting: Counter[int] = Counter()

    def step(self, event) -> None:
        """Fold one trace event into the characterization."""
        op = event.op
        stats = self.stats
        stats.total_events += 1
        if op.kind is OpKind.COMPUTE:
            stats.compute_events += 1
        elif op.kind is OpKind.LOCK:
            stats.lock_acquires += 1
            self._locks_seen.add(op.addr)
            self._nesting[event.thread_id] += 1
            stats.max_lock_nesting = max(
                stats.max_lock_nesting, self._nesting[event.thread_id]
            )
        elif op.kind is OpKind.UNLOCK:
            stats.lock_releases += 1
            self._nesting[event.thread_id] -= 1
        elif op.kind is OpKind.BARRIER:
            stats.barrier_waits += 1
        else:
            stats.memory_accesses += 1
            if op.is_write:
                stats.writes += 1
            if self._nesting[event.thread_id] > 0:
                stats.accesses_under_lock += 1
            if op.site is not None:
                self._sites.add(op.site)
            line = line_address(op.addr, self.line_size)
            if op.is_write:
                self._line_writers.setdefault(line, set()).add(event.thread_id)
            else:
                self._line_readers.setdefault(line, set()).add(event.thread_id)

    # ------------------------------------------------------------- batch path
    # Columnar kernel: same folds over the packed columns, no event objects.

    def begin_batch(self, cols, tape=None) -> None:
        """Allocate batch-pass state over a columnar trace (tape unused)."""
        self.stats = TraceStats(threads=cols.num_threads)
        self._line_readers = {}
        self._line_writers = {}
        self._locks_seen = set()
        self._sites = set()
        self._nesting = Counter()

    def step_batch(self, cols, lo: int, hi: int) -> None:
        """Fold events ``[lo, hi)`` of ``cols`` into the characterization."""
        rows = cols.rows()
        sites = cols.sites
        stats = self.stats
        line_mask = ~(self.line_size - 1)
        line_readers = self._line_readers
        line_writers = self._line_writers
        locks_seen = self._locks_seen
        sites_seen = self._sites
        nesting = self._nesting
        stats.total_events += hi - lo
        for i in range(lo, hi):
            kind, tid, addr, size, sid = rows[i]
            if kind <= 1:  # READ / WRITE
                stats.memory_accesses += 1
                if nesting[tid] > 0:
                    stats.accesses_under_lock += 1
                if sid >= 0:
                    sites_seen.add(sites[sid])
                line = addr & line_mask
                if kind == 1:
                    stats.writes += 1
                    sharers = line_writers.get(line)
                    if sharers is None:
                        sharers = line_writers[line] = set()
                else:
                    sharers = line_readers.get(line)
                    if sharers is None:
                        sharers = line_readers[line] = set()
                sharers.add(tid)
            elif kind == 2:  # LOCK
                stats.lock_acquires += 1
                locks_seen.add(addr)
                nesting[tid] += 1
                if nesting[tid] > stats.max_lock_nesting:
                    stats.max_lock_nesting = nesting[tid]
            elif kind == 3:  # UNLOCK
                stats.lock_releases += 1
                nesting[tid] -= 1
            elif kind == 4:  # BARRIER
                stats.barrier_waits += 1
            else:  # COMPUTE
                stats.compute_events += 1

    def finish_batch(self) -> TraceStats:
        """Aggregate the batch pass (same reduction as :meth:`finish`)."""
        return self.finish()

    def finish(self) -> TraceStats:
        """Aggregate the per-line sharing structure into the final stats."""
        stats = self.stats
        line_readers = self._line_readers
        line_writers = self._line_writers
        all_lines = set(line_readers) | set(line_writers)
        stats.distinct_lines = len(all_lines)
        stats.distinct_locks = len(self._locks_seen)
        stats.sites = len(self._sites)
        histogram: Counter[int] = Counter()
        for line in all_lines:
            sharers = line_readers.get(line, set()) | line_writers.get(line, set())
            histogram[len(sharers)] += 1
            if len(sharers) > 1:
                stats.shared_lines += 1
                writers = line_writers.get(line, set())
                if writers and (len(writers) > 1 or sharers - writers):
                    stats.write_shared_lines += 1
        stats.sharers_histogram = dict(sorted(histogram.items()))
        return stats


def characterize(trace: Trace, line_size: int = 32) -> TraceStats:
    """Measure the characterization statistics of ``trace``.

    A thin shim over :class:`TraceStatsCore` — one incremental pass,
    exactly what an engine session feeding the core would compute.
    """
    core = TraceStatsCore(line_size)
    core.begin(trace)
    step = core.step
    for event in trace:
        step(event)
    return core.finish()
