"""Property-based tests on detector-level invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.events import Site, Trace, lock, read, unlock, write
from repro.harness.detectors import make_detector
from repro.hybrids.conformance import site_key, strict_lockset_sites
from repro.threads.program import ParallelProgram, ThreadProgram
from repro.threads.runtime import interleave
from repro.threads.scheduler import RandomScheduler
from repro.reporting import run_core

SITES = [Site("p.c", i) for i in range(64)]
COMMON_LOCK = 0x1000


def well_locked_program(pattern: list[tuple[int, int, bool]]) -> ParallelProgram:
    """Every access wrapped in the same global lock: race-free by design."""
    threads = {tid: [] for tid in range(4)}
    for tid, var_index, is_write in pattern:
        addr = 0x20000 + 4 * var_index
        site = SITES[var_index % len(SITES)]
        op = write(addr, site) if is_write else read(addr, site)
        threads[tid % 4].extend(
            [lock(COMMON_LOCK, SITES[0]), op, unlock(COMMON_LOCK, SITES[1])]
        )
    return ParallelProgram(
        name="prop", threads=[ThreadProgram(t, ops) for t, ops in threads.items()]
    )


patterns = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=40),
        st.booleans(),
    ),
    max_size=60,
)


@settings(max_examples=30, deadline=None)
@given(patterns, st.integers(min_value=0, max_value=10))
def test_fully_locked_programs_never_alarm(pattern, seed):
    """Soundness of the discipline check: one common lock silences every
    detector under any interleaving."""
    program = well_locked_program(pattern)
    trace = interleave(program, RandomScheduler(seed=seed, max_burst=4)).trace
    for key in ("hard-ideal", "hard-default", "hb-ideal", "hb-default", "multilock-hb"):
        result = run_core(make_detector(key).core(), trace)
        assert result.reports.alarm_count == 0, key


@settings(max_examples=30, deadline=None)
@given(patterns, st.integers(min_value=0, max_value=5))
def test_ideal_lockset_is_schedule_invariant(pattern, seed):
    """The same program yields the same lockset alarm *sites* regardless of
    the interleaving when every thread's accesses are totally ordered by
    the common lock structure... weaker: single-thread programs."""
    single = [(0, var, w) for _, var, w in pattern]
    program = well_locked_program(single)
    t1 = interleave(program, RandomScheduler(seed=seed)).trace
    t2 = interleave(well_locked_program(single), RandomScheduler(seed=seed + 99)).trace
    d1 = run_core(make_detector("hard-ideal").core(), t1)
    d2 = run_core(make_detector("hard-ideal").core(), t2)
    assert d1.reports.sites() == d2.reports.sites() == frozenset()


@settings(max_examples=25, deadline=None)
@given(patterns, st.integers(min_value=0, max_value=8))
def test_dynamic_reports_at_least_alarm_sites(pattern, seed):
    """Bookkeeping invariant: dynamic reports >= distinct alarm sites."""
    # Make it racy: drop all locks.
    threads = {tid: [] for tid in range(4)}
    for tid, var_index, is_write in pattern:
        addr = 0x20000 + 4 * var_index
        site = SITES[var_index % len(SITES)]
        threads[tid % 4].append(
            write(addr, site) if is_write else read(addr, site)
        )
    program = ParallelProgram(
        name="racy", threads=[ThreadProgram(t, ops) for t, ops in threads.items()]
    )
    trace = interleave(program, RandomScheduler(seed=seed, max_burst=3)).trace
    for key in ("hard-ideal", "hb-ideal"):
        result = run_core(make_detector(key).core(), trace)
        assert result.reports.dynamic_count >= result.reports.alarm_count


@settings(max_examples=25, deadline=None)
@given(patterns, st.integers(min_value=0, max_value=8))
def test_hybrid_reports_subset_of_lockset(pattern, seed):
    """The hybrid family only ever *prunes* the strict lockset's warnings:
    every multilock-hb site (the family's widest) is a strict-lockset site."""
    threads = {tid: [] for tid in range(4)}
    for tid, var_index, is_write in pattern:
        addr = 0x20000 + 4 * var_index
        site = SITES[var_index % len(SITES)]
        threads[tid % 4].append(
            write(addr, site) if is_write else read(addr, site)
        )
    program = ParallelProgram(
        name="racy", threads=[ThreadProgram(t, ops) for t, ops in threads.items()]
    )
    trace = interleave(program, RandomScheduler(seed=seed, max_burst=3)).trace
    lockset_sites = strict_lockset_sites(trace).sites
    hybrid = run_core(make_detector("multilock-hb").core(), trace)
    assert {site_key(site) for site in hybrid.reports.sites()} <= lockset_sites
