"""The interleaving runtime: per-thread programs → one global trace.

:func:`interleave` executes a :class:`~repro.threads.program.ParallelProgram`
under a scheduler, honouring lock and barrier blocking semantics, and
produces a :class:`~repro.common.events.Trace` — the total order of executed
operations that *every* detector then consumes.  Running all detectors over
the same trace mirrors the paper's methodology of comparing detectors "using
identical executions" (Section 5.1).

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

from dataclasses import dataclass, field

from repro.common.errors import DeadlockError, SchedulerError
from repro.common.events import OpKind, Trace
from repro.threads.program import ParallelProgram
from repro.threads.scheduler import RandomScheduler, Scheduler
from repro.threads.synch import BarrierTable, LockTable


@dataclass
class _ThreadState:
    """Progress of one thread through its program."""

    pc: int = 0
    blocked_on_lock: int | None = None
    at_barrier: bool = False
    finished: bool = False

    @property
    def runnable(self) -> bool:
        return not (self.finished or self.at_barrier or self.blocked_on_lock is not None)


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
    """
    observe = obs is not None and obs.active
    sched = scheduler if scheduler is not None else RandomScheduler(seed=0)
    states = [_ThreadState() for _ in range(program.num_threads)]
    for tid, thread in enumerate(program.threads):
        if not thread.ops:
            states[tid].finished = True

    locks = LockTable()
    barriers = BarrierTable()
    waiters: dict[int, set[int]] = {}  # lock addr -> threads parked on it
    trace = Trace(
        num_threads=program.num_threads,
        injected_bug=program.injected_bug,
        label=program.name,
    )
    result = InterleaveResult(trace=trace)

    total_ops = program.total_ops()
    executed = 0
    guard = 0
    # Zero-op slices happen when a woken thread loses the re-acquire race,
    # but each is preceded by an unlock, so total iterations stay linear in
    # the op count; the generous limit only catches runtime bugs.
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
        thread_id, burst = sched.pick(runnable)
        if thread_id not in runnable:
            raise SchedulerError(
                f"scheduler picked non-runnable thread {thread_id}"
            )
        ran = _run_slice(
            program, states, locks, barriers, trace, result, thread_id, burst, waiters
        )
        executed += ran
        result.context_switches += 1
        if record_slices:
            result.slices.append((thread_id, ran))
        if observe:
            obs.metrics.observe("interleave.slice_ops", ran)
    if observe:
        metrics = obs.metrics
        metrics.add("interleave.context_switches", result.context_switches)
        metrics.add("interleave.lock_block_events", result.lock_block_events)
        metrics.add("interleave.barrier_episodes", result.barrier_episodes)
        metrics.add("interleave.trace_events", len(trace))
    return result


def _run_slice(
    program: ParallelProgram,
    states: list[_ThreadState],
    locks: LockTable,
    barriers: BarrierTable,
    trace: Trace,
    result: InterleaveResult,
    thread_id: int,
    burst: int,
    waiters: dict[int, set[int]],
) -> int:
    """Run ``thread_id`` for up to ``burst`` ops; return ops executed."""
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
            # Wake everyone parked on this lock; they will race to
            # re-acquire it when next scheduled.
            for parked in waiters.pop(op.addr, ()):  # noqa: B007
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


def _describe_waiting(
    states: list[_ThreadState], program: ParallelProgram
) -> dict[int, str]:
    """Explain what each unfinished thread is blocked on, for diagnostics."""
    waiting = {}
    for tid, st in enumerate(states):
        if st.finished:
            continue
        if st.blocked_on_lock is not None:
            waiting[tid] = f"lock 0x{st.blocked_on_lock:x}"
        elif st.at_barrier:
            op = program.threads[tid].ops[st.pc - 1]
            waiting[tid] = f"barrier {op.addr}"
        else:  # pragma: no cover - only reachable via scheduler bug
            waiting[tid] = "unknown"
    return waiting
