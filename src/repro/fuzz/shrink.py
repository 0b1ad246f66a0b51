"""Delta-debugging shrinker: minimize a divergence-producing program.

When the oracle finds an *unexplained* divergence, the generated program is
typically hundreds of operations of mostly-irrelevant pattern noise.  This
module reduces it to a small reproducer suitable for the regression corpus,
with a classic ddmin-flavoured greedy loop specialised to the structure of
:class:`~repro.threads.program.ParallelProgram`:

1. **Thread dropping** — remove whole threads (re-numbering the survivors
   to keep thread ids dense and rewriting every barrier's participant count
   to the surviving arrival count);
2. **Window removal** — per thread, remove contiguous operation windows
   with exponentially shrinking window sizes.  A window that contains a
   barrier arrival removes that barrier id from *every* thread (otherwise
   the survivors would deadlock waiting for the removed arrival);
3. candidates whose threads fail
   :meth:`~repro.threads.program.ThreadProgram.lock_balance_errors` are
   discarded before the predicate ever runs, and a predicate that raises a
   :class:`~repro.common.errors.ReproError` (deadlock, malformed program)
   counts as "not interesting" — shrinking never crashes on a broken
   candidate, it just keeps the last good one.

The predicate is arbitrary (``ParallelProgram -> bool``);
:func:`divergence_predicate` builds the common one — "the oracle still
reports a divergence of these kinds under this schedule seed".  The loop is
deterministic: candidates are enumerated in a fixed order and the first
improvement is taken, so the same input always shrinks to the same output.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace
from typing import Callable, Collection, Iterable

from repro.common.errors import HarnessError, ReproError
from repro.common.events import OpKind
from repro.threads.program import ParallelProgram, ThreadProgram

from repro.fuzz.oracle import (
    DEFAULT_ORACLE,
    CaseVerdict,
    DivergenceKind,
    OracleConfig,
    evaluate_program,
)

#: Default budget of predicate evaluations for one shrink run.
DEFAULT_MAX_EVALS = 400


def divergence_predicate(
    schedule_seed: int,
    *,
    kinds: Collection[DivergenceKind] | None = (DivergenceKind.UNEXPLAINED,),
    config: OracleConfig = DEFAULT_ORACLE,
) -> Callable[[ParallelProgram], bool]:
    """A shrink predicate: the oracle still reports a matching divergence.

    ``kinds=None`` accepts any divergence at all.  Evaluation failures
    (deadlocked candidate, malformed program) count as False.
    """
    kind_set = frozenset(kinds) if kinds is not None else None

    def predicate(program: ParallelProgram) -> bool:
        try:
            verdict: CaseVerdict = evaluate_program(
                program, schedule_seed, case="shrink", config=config
            )
        except ReproError:
            return False
        return any(
            kind_set is None or d.kind in kind_set for d in verdict.divergences
        )

    return predicate


def _rebuild(program: ParallelProgram, threads: list[ThreadProgram]) -> ParallelProgram:
    # Ground truth of an injected bug names op indices of the *original*
    # threads; after any removal those are stale, so the reproducer drops
    # the bug record (the oracle re-derives divergences, it never needs it).
    return replace(program, threads=threads, injected_bug=None)


def _strip_barriers(
    ops: list, barrier_ids: Collection[int]
) -> list:
    if not barrier_ids:
        return list(ops)
    return [
        op
        for op in ops
        if not (op.kind is OpKind.BARRIER and op.addr in barrier_ids)
    ]


def _valid(program: ParallelProgram) -> bool:
    return all(not thread.lock_balance_errors() for thread in program.threads)


def drop_thread(program: ParallelProgram, thread_id: int) -> ParallelProgram | None:
    """``program`` without one thread, or None when it cannot be removed.

    Keeps at least two threads (a one-thread program cannot race), renumbers
    the survivors densely, and rewrites every barrier's participant count to
    the number of surviving arrivals (dropping barriers nobody arrives at).
    """
    if program.num_threads <= 2:
        return None
    kept = [t for t in program.threads if t.thread_id != thread_id]
    arrivals = Counter(
        op.addr for t in kept for op in t.ops if op.kind is OpKind.BARRIER
    )
    threads = []
    for new_id, thread in enumerate(kept):
        ops = [
            op._replace(participants=arrivals[op.addr])
            if op.kind is OpKind.BARRIER
            else op
            for op in thread.ops
        ]
        threads.append(ThreadProgram(thread_id=new_id, ops=ops, name=thread.name))
    return _rebuild(program, threads)


def remove_window(
    program: ParallelProgram, thread_id: int, start: int, length: int
) -> ParallelProgram | None:
    """``program`` with ``length`` ops cut from one thread, or None.

    Barrier arrivals inside the window take the whole barrier episode with
    them: the same barrier id is removed from every thread, so the
    remaining arrivals cannot deadlock.  Candidates with unbalanced lock
    pairing are rejected here, before any (expensive) predicate run.
    """
    victim = program.threads[thread_id]
    window = victim.ops[start : start + length]
    if not window:
        return None
    barrier_ids = {op.addr for op in window if op.kind is OpKind.BARRIER}
    threads = []
    for thread in program.threads:
        if thread.thread_id == thread_id:
            ops = list(victim.ops[:start]) + list(victim.ops[start + length :])
            ops = _strip_barriers(ops, barrier_ids)
        else:
            ops = _strip_barriers(thread.ops, barrier_ids)
        threads.append(
            ThreadProgram(thread_id=thread.thread_id, ops=ops, name=thread.name)
        )
    candidate = _rebuild(program, threads)
    if not _valid(candidate):
        return None
    return candidate


def _window_sizes(num_ops: int) -> Iterable[int]:
    size = max(1, num_ops // 2)
    while size >= 1:
        yield size
        if size == 1:
            return
        size //= 2


def shrink(
    program: ParallelProgram,
    predicate: Callable[[ParallelProgram], bool],
    *,
    max_evals: int = DEFAULT_MAX_EVALS,
) -> ParallelProgram:
    """Greedily minimize ``program`` while ``predicate`` stays True.

    Raises :class:`~repro.common.errors.HarnessError` if the predicate is
    not True of the input itself — a failing starting point means the caller
    is shrinking the wrong program (or passed the wrong schedule seed).
    """
    if not predicate(program):
        raise HarnessError(
            f"shrink precondition failed: predicate is not True of {program.name!r}"
        )
    evals = 0

    def check(candidate: ParallelProgram | None) -> bool:
        nonlocal evals
        if candidate is None or evals >= max_evals:
            return False
        evals += 1
        try:
            return predicate(candidate)
        except ReproError:
            return False

    current = program
    improved = True
    while improved and evals < max_evals:
        improved = False

        # Pass 1: drop whole threads (highest payoff per predicate call).
        thread_id = 0
        while thread_id < current.num_threads:
            candidate = drop_thread(current, thread_id)
            if check(candidate):
                current = candidate
                improved = True
                # Same index now names the next thread after renumbering.
            else:
                thread_id += 1

        # Pass 2: per-thread window removal, big windows first.
        for thread_id in range(current.num_threads):
            num_ops = len(current.threads[thread_id].ops)
            for size in _window_sizes(num_ops):
                start = 0
                while start < len(current.threads[thread_id].ops):
                    candidate = remove_window(current, thread_id, start, size)
                    if check(candidate):
                        current = candidate
                        improved = True
                        # Window removed: same start now addresses new ops.
                    else:
                        start += size
                if evals >= max_evals:
                    break
            if evals >= max_evals:
                break

    return current
