"""A per-event reference interleaver: the oracle for the production runtime.

:func:`repro.threads.runtime.interleave` advances a slice over whole runs of
non-sync ops and packs the trace straight into columns.  This module keeps
the straightforward form it must agree with: one loop iteration per
executed op, one :meth:`Trace.append` per event, the runnable list rebuilt
before every pick, and the columns packed afterwards by
:meth:`ColumnarTrace.from_events`.  It lives under ``tests/`` only; the
property suite holds the two equal (trace digest, slices, counters, and
every raised error with its message).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import DeadlockError, SchedulerError
from repro.common.events import OpKind, Trace
from repro.threads.runtime import InterleaveResult
from repro.threads.synch import BarrierTable, LockTable


@dataclass
class _ThreadState:
    pc: int = 0
    blocked_on_lock: int | None = None
    at_barrier: bool = False
    finished: bool = False

    @property
    def runnable(self) -> bool:
        return not (self.finished or self.at_barrier or self.blocked_on_lock is not None)


def reference_interleave(program, scheduler) -> InterleaveResult:
    """Execute ``program`` under ``scheduler`` one op at a time."""
    states = [_ThreadState() for _ in range(program.num_threads)]
    for tid, thread in enumerate(program.threads):
        if not thread.ops:
            states[tid].finished = True
    locks = LockTable()
    barriers = BarrierTable()
    waiters: dict[int, set[int]] = {}
    trace = Trace(
        num_threads=program.num_threads,
        injected_bug=program.injected_bug,
        label=program.name,
    )
    result = InterleaveResult(trace=trace)
    total_ops = program.total_ops()
    executed = 0
    guard = 0
    guard_limit = 16 * total_ops + 4096
    while executed < total_ops:
        guard += 1
        if guard > guard_limit:
            raise SchedulerError(
                "interleaver failed to make progress; this is a runtime bug"
            )
        runnable = [tid for tid, st in enumerate(states) if st.runnable]
        if not runnable:
            raise DeadlockError(_describe_waiting(states, program))
        thread_id, burst = scheduler.pick(runnable)
        if thread_id not in runnable:
            raise SchedulerError(f"scheduler picked non-runnable thread {thread_id}")
        ran = _run_slice(
            program, states, locks, barriers, trace, result, thread_id, burst, waiters
        )
        executed += ran
        result.context_switches += 1
        result.slices.append((thread_id, ran))
    return result


def _run_slice(
    program, states, locks, barriers, trace, result, thread_id, burst, waiters
) -> int:
    state = states[thread_id]
    thread = program.threads[thread_id]
    ran = 0
    while ran < burst and not state.finished:
        op = thread.ops[state.pc]
        if op.kind is OpKind.LOCK:
            if not locks.try_acquire(thread_id, op.addr):
                state.blocked_on_lock = op.addr
                waiters.setdefault(op.addr, set()).add(thread_id)
                result.lock_block_events += 1
                break
        elif op.kind is OpKind.UNLOCK:
            locks.release(thread_id, op.addr)
            for parked in waiters.pop(op.addr, ()):
                states[parked].blocked_on_lock = None
        elif op.kind is OpKind.BARRIER:
            released = barriers.arrive(thread_id, op.addr, op.participants)
            trace.append(thread_id, op)
            state.pc += 1
            ran += 1
            if state.pc >= len(thread.ops):
                state.finished = True
            if released:
                result.barrier_episodes += 1
                for other in released:
                    states[other].at_barrier = False
            else:
                state.at_barrier = True
                break
            continue
        trace.append(thread_id, op)
        state.pc += 1
        ran += 1
        if state.pc >= len(thread.ops):
            state.finished = True
    return ran


def _describe_waiting(states, program) -> dict[int, str]:
    waiting = {}
    for tid, st in enumerate(states):
        if st.finished:
            continue
        if st.blocked_on_lock is not None:
            waiting[tid] = f"lock 0x{st.blocked_on_lock:x}"
        elif st.at_barrier:
            op = program.threads[tid].ops[st.pc - 1]
            waiting[tid] = f"barrier {op.addr}"
        else:
            waiting[tid] = "unknown"
    return waiting
