"""Unit tests for the interleaving runtime."""

import gc

import pytest

from repro.common.errors import DeadlockError, ProgramError, SchedulerError
from repro.common.events import OpKind, Site, barrier, compute, lock, read, unlock, write
from repro.threads.program import ParallelProgram, ThreadProgram
from repro.threads.runtime import interleave
from repro.threads.scheduler import FixedOrderScheduler, RandomScheduler

SITE = Site("t.c", 1)


def program(*op_lists) -> ParallelProgram:
    threads = [
        ThreadProgram(thread_id=i, ops=list(ops)) for i, ops in enumerate(op_lists)
    ]
    return ParallelProgram(name="test", threads=threads)


class TestBasicInterleaving:
    def test_all_ops_execute_exactly_once(self):
        prog = program(
            [write(0x100, SITE), read(0x100, SITE)],
            [write(0x200, SITE)],
        )
        trace = interleave(prog, RandomScheduler(seed=0)).trace
        assert len(trace) == 3
        assert sorted(ev.op.addr for ev in trace) == [0x100, 0x100, 0x200]

    def test_program_order_preserved_per_thread(self):
        ops = [write(0x100 + 4 * i, SITE) for i in range(10)]
        prog = program(ops, [read(0x200, SITE)] * 10)
        trace = interleave(prog, RandomScheduler(seed=1)).trace
        t0_addrs = [ev.op.addr for ev in trace if ev.thread_id == 0]
        assert t0_addrs == [op.addr for op in ops]

    def test_deterministic_for_seed(self):
        prog1 = program([write(0x100, SITE)] * 20, [read(0x200, SITE)] * 20)
        prog2 = program([write(0x100, SITE)] * 20, [read(0x200, SITE)] * 20)
        t1 = interleave(prog1, RandomScheduler(seed=9)).trace
        t2 = interleave(prog2, RandomScheduler(seed=9)).trace
        assert [(e.thread_id, e.op.addr) for e in t1] == [
            (e.thread_id, e.op.addr) for e in t2
        ]

    def test_empty_threads_finish_immediately(self):
        prog = program([], [write(0x100, SITE)])
        trace = interleave(prog).trace
        assert len(trace) == 1


class TestLockBlocking:
    def test_mutual_exclusion_in_trace(self):
        """No interleaving may put t1's critical section inside t0's."""
        cs0 = [lock(0x10, SITE), write(0x100, SITE), write(0x104, SITE), unlock(0x10, SITE)]
        cs1 = [lock(0x10, SITE), write(0x108, SITE), unlock(0x10, SITE)]
        for seed in range(20):
            prog = program(list(cs0), list(cs1))
            trace = interleave(prog, RandomScheduler(seed=seed, max_burst=2)).trace
            holder = None
            for ev in trace:
                if ev.op.kind is OpKind.LOCK:
                    assert holder is None
                    holder = ev.thread_id
                elif ev.op.kind is OpKind.UNLOCK:
                    assert holder == ev.thread_id
                    holder = None

    def test_blocked_thread_eventually_acquires(self):
        prog = program(
            [lock(0x10, SITE), compute(1), unlock(0x10, SITE)],
            [lock(0x10, SITE), compute(1), unlock(0x10, SITE)],
        )
        trace = interleave(prog, FixedOrderScheduler([(0, 1), (1, 5), (0, 5)])).trace
        assert len(trace) == 6

    def test_lock_block_events_counted(self):
        prog = program(
            [lock(0x10, SITE), compute(1), compute(1), unlock(0x10, SITE)],
            [lock(0x10, SITE), unlock(0x10, SITE)],
        )
        result = interleave(prog, FixedOrderScheduler([(0, 2), (1, 5), (0, 5), (1, 5)]))
        assert result.lock_block_events >= 1

    def test_deadlock_detected(self):
        # Classic ABBA deadlock: force the interleaving that triggers it.
        prog = program(
            [lock(0x10, SITE), lock(0x20, SITE), unlock(0x20, SITE), unlock(0x10, SITE)],
            [lock(0x20, SITE), lock(0x10, SITE), unlock(0x10, SITE), unlock(0x20, SITE)],
        )
        with pytest.raises(DeadlockError) as exc:
            interleave(prog, FixedOrderScheduler([(0, 1), (1, 1), (0, 9), (1, 9)]))
        assert set(exc.value.waiting) == {0, 1}


class TestBarriers:
    def test_barrier_separates_phases(self):
        prog = program(
            [write(0x100, SITE), barrier(0, 2), write(0x108, SITE)],
            [write(0x104, SITE), barrier(0, 2), write(0x10C, SITE)],
        )
        for seed in range(10):
            prog = program(
                [write(0x100, SITE), barrier(0, 2), write(0x108, SITE)],
                [write(0x104, SITE), barrier(0, 2), write(0x10C, SITE)],
            )
            trace = interleave(prog, RandomScheduler(seed=seed, max_burst=3)).trace
            phase2_start = min(
                i for i, ev in enumerate(trace) if ev.op.addr in (0x108, 0x10C)
            )
            pre = [ev.op.addr for ev in trace.events[:phase2_start] if ev.op.is_memory_access]
            assert set(pre) == {0x100, 0x104}

    def test_barrier_episode_counted(self):
        prog = program([barrier(0, 2)], [barrier(0, 2)])
        result = interleave(prog)
        assert result.barrier_episodes == 1

    def test_unsatisfiable_barrier_deadlocks(self):
        # Two threads wait for a third that never comes; work remains after
        # the barrier, so the runtime must report the hang.  (A barrier as
        # the *final* op of every thread ends the run at arrival instead —
        # there is nothing left to block.)
        prog = program(
            [barrier(0, 3), write(0x100, SITE)],
            [barrier(0, 3), write(0x104, SITE)],
        )
        with pytest.raises(DeadlockError):
            interleave(prog)


class TestTraceMetadata:
    def test_injected_bug_sites_carried(self):
        from repro.threads.program import InjectedBug

        bug = InjectedBug(
            thread_id=0,
            lock_addr=0x10,
            lock_op_index=0,
            unlock_op_index=1,
            chunk_addresses=frozenset({0x100}),
            sites=frozenset({SITE}),
        )
        prog = program([write(0x100, SITE)])
        buggy = prog.with_injected_bug(list(prog.threads), bug)
        trace = interleave(buggy).trace
        assert trace.injected_bug_sites == frozenset({SITE})

    def test_record_slices(self):
        prog = program([compute(1)] * 4, [compute(1)] * 4)
        result = interleave(prog, RoundRobinSchedulerFactory(), record_slices=True)
        assert sum(n for _, n in result.slices) == 8


class _PicksFinishedThread:
    """A broken scheduler: always picks thread 1, even once it finished."""

    def pick(self, runnable):
        return 1, 4


#: (program, scheduler factory, error type, exact message).
ERROR_CASES = {
    "deadlock": (
        lambda: program(
            [lock(0x10, SITE), lock(0x20, SITE), unlock(0x20, SITE), unlock(0x10, SITE)],
            [lock(0x20, SITE), lock(0x10, SITE), unlock(0x10, SITE), unlock(0x20, SITE)],
        ),
        lambda: FixedOrderScheduler([(0, 1), (1, 1), (0, 9), (1, 9)]),
        DeadlockError,
        "deadlock: all runnable threads are blocked (t0: lock 0x20, t1: lock 0x10)",
    ),
    "unsatisfiable-barrier": (
        lambda: program(
            [barrier(0, 3), write(0x100, SITE)],
            [barrier(7, 3), write(0x104, SITE)],
        ),
        lambda: RandomScheduler(seed=0),
        DeadlockError,
        "deadlock: all runnable threads are blocked (t0: barrier 0, t1: barrier 7)",
    ),
    "re-acquire": (
        lambda: program(
            [compute(1), lock(0x10, SITE), write(0x100, SITE), lock(0x10, SITE)]
        ),
        lambda: RandomScheduler(seed=0),
        ProgramError,
        "thread 0 re-acquired held lock 0x10",
    ),
    "non-runnable-pick": (
        lambda: program([compute(1)] * 6, [compute(1)] * 2),
        _PicksFinishedThread,
        SchedulerError,
        "scheduler picked non-runnable thread 1",
    ),
}


class TestErrorPaths:
    @pytest.mark.parametrize("case", sorted(ERROR_CASES))
    def test_raises_with_its_message(self, case):
        make_program, make_scheduler, error, message = ERROR_CASES[case]
        with pytest.raises(error) as exc:
            interleave(make_program(), make_scheduler())
        assert str(exc.value) == message

    @pytest.mark.parametrize("case", sorted(ERROR_CASES))
    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_state_survives_the_raise(self, case, enabled):
        make_program, make_scheduler, error, _ = ERROR_CASES[case]
        was_enabled = gc.isenabled()
        try:
            gc.enable() if enabled else gc.disable()
            with pytest.raises(error):
                interleave(make_program(), make_scheduler())
            assert gc.isenabled() is enabled
        finally:
            gc.enable() if was_enabled else gc.disable()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_state_survives_a_clean_run(self, enabled):
        was_enabled = gc.isenabled()
        try:
            gc.enable() if enabled else gc.disable()
            interleave(program([compute(1)] * 3, [write(0x100, SITE)]))
            assert gc.isenabled() is enabled
        finally:
            gc.enable() if was_enabled else gc.disable()


class TestBornColumnar:
    def test_no_event_objects_are_built(self):
        prog = program(
            [lock(0x10, SITE), write(0x100, SITE), unlock(0x10, SITE), barrier(0, 2)],
            [compute(3), barrier(0, 2), read(0x100, SITE)],
        )
        trace = interleave(prog, RandomScheduler(seed=4, max_burst=2)).trace
        assert trace._events is None
        assert len(trace) == 7
        assert trace._events is None  # len() answers from the columns

    def test_decoded_ops_equal_the_program_ops(self):
        ops0 = [lock(0x10, SITE), write(0x100, SITE), unlock(0x10, SITE)]
        ops1 = [compute(3), read(0x100, Site("u.c", 2, "r"), size=8)]
        trace = interleave(program(ops0, ops1), RandomScheduler(seed=1)).trace
        assert [ev.op for ev in trace if ev.thread_id == 0] == ops0
        assert [ev.op for ev in trace if ev.thread_id == 1] == ops1
        assert [ev.seq for ev in trace] == list(range(5))

    def test_append_extends_a_born_columnar_trace(self):
        trace = interleave(program([write(0x100, SITE)])).trace
        trace.append(0, read(0x104, SITE))
        assert [ev.op.addr for ev in trace] == [0x100, 0x104]
        assert trace.columns().n == 2


def RoundRobinSchedulerFactory():
    from repro.threads.scheduler import RoundRobinScheduler

    return RoundRobinScheduler(quantum=3)
