"""The run-based interleaver against the per-event reference oracle.

:func:`repro.threads.runtime.interleave` copies whole runs of non-sync ops
per slice and packs the trace straight into columns;
``tests/threads/reference_interleave.py`` executes one op per loop
iteration and packs afterwards.  For drawn programs and schedulers the two
must agree on the packed trace (its content digest), the slice sequence and
every counter — or raise the same error with the same message.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ReproError
from repro.fuzz.generator import generate_program
from repro.threads.program import ParallelProgram, ThreadProgram
from repro.threads.runtime import interleave
from repro.threads.scheduler import (
    FixedOrderScheduler,
    RandomScheduler,
    RoundRobinScheduler,
)
from repro.workloads.injection import inject_bug

from tests.properties.test_lockmask_properties import lock_traces
from tests.threads.reference_interleave import reference_interleave


def program_of(trace) -> ParallelProgram:
    """Split a drawn trace into per-thread programs, in trace order."""
    per_thread = [[] for _ in range(trace.num_threads)]
    for event in trace.events:
        per_thread[event.thread_id].append(event.op)
    threads = [ThreadProgram(tid, ops) for tid, ops in enumerate(per_thread)]
    return ParallelProgram(name="drawn", threads=threads)


@st.composite
def fuzz_programs(draw) -> ParallelProgram:
    """A generated fuzz program, sometimes with an injected bug."""
    program = generate_program(draw(st.integers(0, 400)), draw(st.integers(0, 3)))
    if draw(st.booleans()):
        try:
            program = inject_bug(program, seed=draw(st.integers(0, 9)))
        except ReproError:
            pass  # no injectable section: interleave it clean
    return program


@st.composite
def schedulers(draw):
    """A factory for a drawn scheduler (each run needs a fresh one)."""
    choice = draw(st.sampled_from(("random", "round-robin", "fixed")))
    if choice == "random":
        seed = draw(st.integers(0, 10_000))
        max_burst = draw(st.integers(1, 32))
        min_burst = draw(st.integers(1, max_burst))
        return lambda: RandomScheduler(
            seed=seed, min_burst=min_burst, max_burst=max_burst
        )
    if choice == "round-robin":
        quantum = draw(st.integers(1, 12))
        return lambda: RoundRobinScheduler(quantum)
    script = draw(
        st.lists(st.tuples(st.integers(0, 4), st.integers(0, 9)), max_size=40)
    )
    return lambda: FixedOrderScheduler(script)


def outcome(run) -> tuple:
    """What one interleaving produced: the packed trace and every counter,
    or the error it raised with its message."""
    try:
        result = run()
    except ReproError as exc:
        return ("raised", type(exc), str(exc), getattr(exc, "waiting", None))
    return (
        "ok",
        result.trace.columns().content_digest(),
        result.slices,
        result.context_switches,
        result.lock_block_events,
        result.barrier_episodes,
    )


def assert_matches_reference(program, make_scheduler):
    got = outcome(lambda: interleave(program, make_scheduler(), record_slices=True))
    want = outcome(lambda: reference_interleave(program, make_scheduler()))
    assert got == want


@settings(max_examples=60, deadline=None)
@given(lock_traces(), schedulers())
def test_runs_match_the_per_event_reference_on_drawn_programs(trace, make_scheduler):
    # Drawn programs re-acquire held locks, end holding locks and leave
    # threads behind barriers, so errors are compared as well as traces.
    assert_matches_reference(program_of(trace), make_scheduler)


@settings(max_examples=25, deadline=None)
@given(fuzz_programs(), schedulers())
def test_runs_match_the_per_event_reference_on_fuzz_programs(program, make_scheduler):
    assert_matches_reference(program, make_scheduler)
