"""The interleaving runtime: per-thread programs → one global trace.

:func:`interleave` executes a :class:`~repro.threads.program.ParallelProgram`
under a scheduler, honouring lock and barrier blocking semantics, and
produces the total order of executed operations that *every* detector then
consumes.  Running all detectors over the same trace mirrors the paper's
methodology of comparing detectors "using identical executions"
(Section 5.1).

The trace is born columnar: the interleaver collects the executed ops and
their thread ids in two flat lists and packs them once, by
:meth:`~repro.common.coltrace.ColumnarTrace.from_ops`, into a column-backed
:class:`~repro.common.events.Trace`.  No :class:`TraceEvent` is built unless
a consumer reads ``trace.events``.

A slice advances by runs, not by events: each thread's LOCK/UNLOCK/BARRIER
positions are found once, and the ops between two of them are copied into
the trace with one list slice.  Only sync ops go one at a time through the
lock and barrier tables.

Blocking rules:

* a LOCK op executes (appears in the trace) only when the acquire is
  granted; a thread attempting a held lock parks until the holder releases;
* a BARRIER op appears in the trace at the moment the thread arrives; the
  first ``participants - 1`` arrivals park until the last arrival releases
  them all;
* when no thread can run and some are unfinished, :class:`DeadlockError`
  reports who is waiting on what.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.common.coltrace import (
    KIND_BARRIER,
    KIND_LOCK,
    KIND_UNLOCK,
    ColumnarTrace,
    kind_codes,
)
from repro.common.errors import DeadlockError, SchedulerError
from repro.common.events import OpKind, Trace
from repro.common.gcpause import gc_paused
from repro.threads.program import ParallelProgram
from repro.threads.scheduler import RandomScheduler, Scheduler
from repro.threads.synch import BarrierTable, LockTable

#: Matches the LOCK, UNLOCK and BARRIER bytes of a packed kind string.
_SYNC_OPS = re.compile(b"[%c%c%c]" % (KIND_LOCK, KIND_UNLOCK, KIND_BARRIER))


@dataclass
class InterleaveResult:
    """The trace plus execution diagnostics."""

    trace: Trace
    context_switches: int = 0
    lock_block_events: int = 0
    barrier_episodes: int = 0
    slices: list[tuple[int, int]] = field(default_factory=list)


def interleave(
    program: ParallelProgram,
    scheduler: Scheduler | None = None,
    *,
    record_slices: bool = False,
    obs=None,
) -> InterleaveResult:
    """Execute ``program`` under ``scheduler`` and return the global trace.

    Args:
        program: the workload to execute.
        scheduler: interleaving policy; defaults to a seed-0
            :class:`RandomScheduler`.
        record_slices: also record the (thread, ops-executed) slice sequence,
            which :class:`~repro.threads.scheduler.FixedOrderScheduler` can
            replay exactly.
        obs: optional :class:`repro.obs.Observability`; when active, the
            slice-length distribution and blocking counters are recorded
            into its metrics registry.

    The returned trace is backed by its packed columns; its events decode
    on first read of ``trace.events``.  The walk runs with the cyclic
    collector paused: the op and thread-id lists it grows hold no cycles.
    """
    observe = obs is not None and obs.active
    sched = scheduler if scheduler is not None else RandomScheduler(seed=0)
    with gc_paused():
        result, tids, ops = _run(
            program, sched, record_slices, obs.metrics if observe else None
        )
        result.trace = ColumnarTrace.from_ops(
            tids,
            ops,
            num_threads=program.num_threads,
            label=program.name,
            bug=program.injected_bug,
        ).to_trace()
    if observe:
        metrics = obs.metrics
        metrics.add("interleave.context_switches", result.context_switches)
        metrics.add("interleave.lock_block_events", result.lock_block_events)
        metrics.add("interleave.barrier_episodes", result.barrier_episodes)
        metrics.add("interleave.trace_events", len(result.trace))
    return result


def _run(
    program: ParallelProgram, sched: Scheduler, record_slices: bool, metrics
) -> tuple[InterleaveResult, list[int], list]:
    """The scheduling loop: (diagnostics, executed thread ids, executed ops)."""
    programs = [thread.ops for thread in program.threads]
    num_threads = len(programs)
    ends = [len(ops) for ops in programs]
    # Per thread: the positions of its sync ops, then its end as a
    # sentinel, and a cursor into that list that only moves forward.
    syncs = [
        [m.start() for m in _SYNC_OPS.finditer(kind_codes(ops))] + [len(ops)]
        for ops in programs
    ]
    cursors = [0] * num_threads
    pcs = [0] * num_threads
    blocked_on: list[int | None] = [None] * num_threads
    at_barrier = [False] * num_threads

    locks = LockTable()
    barriers = BarrierTable()
    waiters: dict[int, set[int]] = {}  # lock addr -> threads parked on it
    result = InterleaveResult(trace=None)
    slices = result.slices
    out_tids: list[int] = []
    out_ops: list = []
    lock_blocks = 0
    episodes = 0
    switches = 0

    total_ops = sum(ends)
    executed = 0
    # Zero-op slices happen when a woken thread loses the re-acquire race,
    # but each is preceded by an unlock, so total slices stay linear in the
    # op count; the generous limit only catches runtime bugs.
    guard_limit = 16 * total_ops + 4096
    changed = True
    runnable: list[int] = []

    while executed < total_ops:
        if switches >= guard_limit:
            raise SchedulerError(
                "interleaver failed to make progress; this is a runtime bug"
            )
        if changed:
            runnable = [
                tid
                for tid in range(num_threads)
                if pcs[tid] < ends[tid]
                and not at_barrier[tid]
                and blocked_on[tid] is None
            ]
            changed = False
            if not runnable:
                raise DeadlockError(
                    _describe_waiting(pcs, ends, blocked_on, at_barrier, programs)
                )
        tid, burst = sched.pick(runnable)
        if tid not in runnable:
            raise SchedulerError(f"scheduler picked non-runnable thread {tid}")

        ops = programs[tid]
        end = ends[tid]
        sync = syncs[tid]
        cursor = cursors[tid]
        pc = start = pcs[tid]
        limit = pc + burst
        while pc < limit and pc < end:
            nxt = sync[cursor]
            if pc < nxt:
                # A run of non-sync ops: copy it up to the next sync op or
                # the end of the burst in one slice.
                stop = nxt if nxt < limit else limit
                out_ops += ops[pc:stop]
                out_tids += [tid] * (stop - pc)
                pc = stop
                continue
            op = ops[pc]
            kind = op.kind
            if kind is OpKind.LOCK:
                if not locks.try_acquire(tid, op.addr):
                    blocked_on[tid] = op.addr
                    waiters.setdefault(op.addr, set()).add(tid)
                    lock_blocks += 1
                    changed = True
                    break
            elif kind is OpKind.UNLOCK:
                locks.release(tid, op.addr)
                # Wake everyone parked on this lock; they will race to
                # re-acquire it when next scheduled.
                parked = waiters.pop(op.addr, None)
                if parked:
                    for other in parked:
                        blocked_on[other] = None
                    changed = True
            else:  # BARRIER
                released = barriers.arrive(tid, op.addr, op.participants)
                out_ops.append(op)
                out_tids.append(tid)
                pc += 1
                cursor += 1
                changed = True
                if released:
                    episodes += 1
                    for other in released:
                        at_barrier[other] = False
                    continue
                at_barrier[tid] = True
                break
            out_ops.append(op)
            out_tids.append(tid)
            pc += 1
            cursor += 1
        pcs[tid] = pc
        cursors[tid] = cursor
        if pc >= end:
            changed = True
        ran = pc - start
        executed += ran
        switches += 1
        if record_slices:
            slices.append((tid, ran))
        if metrics is not None:
            metrics.observe("interleave.slice_ops", ran)

    result.context_switches = switches
    result.lock_block_events = lock_blocks
    result.barrier_episodes = episodes
    return result, out_tids, out_ops


def _describe_waiting(
    pcs: list[int],
    ends: list[int],
    blocked_on: list[int | None],
    at_barrier: list[bool],
    programs: list[list],
) -> dict[int, str]:
    """Explain what each unfinished thread is blocked on, for diagnostics."""
    waiting = {}
    for tid, pc in enumerate(pcs):
        if pc >= ends[tid]:
            continue
        if blocked_on[tid] is not None:
            waiting[tid] = f"lock 0x{blocked_on[tid]:x}"
        elif at_barrier[tid]:
            waiting[tid] = f"barrier {programs[tid][pc - 1].addr}"
        else:  # pragma: no cover - only reachable via scheduler bug
            waiting[tid] = "unknown"
    return waiting
