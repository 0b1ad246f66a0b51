"""Property tests of the columnar trace encoding and its on-disk cache.

The representation invariant everything else leans on: packing a trace
into columns and unpacking it again is the identity — event by event,
including sites, participants, bug-site sets, and labels — across the
whole space of generated fuzz programs (locks, barriers, compute bursts,
injected bugs).  The same must hold through the binary serialization and
through a :class:`~repro.harness.tracecache.TraceCache` store/mmap-load
cycle, where the reloaded columns are zero-copy views into the mapping.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.coltrace import ColumnarTrace, SyncRun
from repro.common.errors import HarnessError
from repro.common.events import OpKind
from repro.fuzz.generator import generate_program
from repro.harness.tracecache import TraceCache
from repro.threads.runtime import interleave
from repro.threads.scheduler import RandomScheduler
from repro.workloads.injection import inject_bug

seeds = st.integers(min_value=0, max_value=300)
schedule_seeds = st.integers(min_value=0, max_value=20)


def fuzz_trace(index: int, schedule_seed: int, injected: bool):
    program = generate_program(index)
    if injected:
        try:
            program = inject_bug(program, seed=("prop", index))
        except HarnessError:
            pass  # no injectable section; the clean program is fine
    scheduler = RandomScheduler(seed=schedule_seed, max_burst=8)
    return interleave(program, scheduler).trace


def assert_same_trace(rebuilt, trace) -> None:
    assert rebuilt.num_threads == trace.num_threads
    assert rebuilt.label == trace.label
    assert rebuilt.injected_bug_sites == trace.injected_bug_sites
    assert rebuilt.injected_bug == trace.injected_bug
    assert rebuilt.events == trace.events


@settings(max_examples=25, deadline=None)
@given(seeds, schedule_seeds, st.booleans())
def test_from_events_to_events_is_identity(index, schedule_seed, injected):
    trace = fuzz_trace(index, schedule_seed, injected)
    cols = ColumnarTrace.from_events(trace)
    assert cols.n == len(trace)
    assert cols.to_events() == trace.events
    assert_same_trace(cols.to_trace(), trace)


@settings(max_examples=15, deadline=None)
@given(seeds, schedule_seeds)
def test_binary_round_trip(index, schedule_seed):
    trace = fuzz_trace(index, schedule_seed, injected=False)
    cols = ColumnarTrace.from_bytes(trace.columns().to_bytes())
    assert_same_trace(cols.to_trace(), trace)


@settings(max_examples=10, deadline=None)
@given(seeds, schedule_seeds, st.booleans())
def test_trace_cache_mmap_reload(tmp_path_factory, index, schedule_seed, injected):
    trace = fuzz_trace(index, schedule_seed, injected)
    cache = TraceCache(tmp_path_factory.mktemp("cols"))
    cache.store(trace, "prop", index, schedule_seed)
    reloaded = cache.load("prop", index, schedule_seed)
    assert reloaded is not None
    assert_same_trace(reloaded, trace)
    # The mmap-backed columns come pre-attached: no re-pack on access, and
    # the packed data matches what was stored.
    cols = reloaded.columns()
    assert bytes(cols.kind.tobytes()) == bytes(trace.columns().kind.tobytes())
    assert cols.sync_runs() == trace.columns().sync_runs()


@settings(max_examples=25, deadline=None)
@given(seeds, schedule_seeds)
def test_sync_runs_partition_the_trace(index, schedule_seed):
    """Sync runs tile [0, n) exactly, and barriers always end a run."""
    trace = fuzz_trace(index, schedule_seed, injected=False)
    cols = trace.columns()
    runs = cols.sync_runs()
    assert all(isinstance(run, SyncRun) for run in runs)
    expected_lo = 0
    for run in runs:
        assert run.lo == expected_lo
        assert run.lo < run.hi
        expected_lo = run.hi
    assert expected_lo == cols.n or cols.n == 0
    barrier_positions = {
        i for i, event in enumerate(trace.events)
        if event.op.kind is OpKind.BARRIER
    }
    for run in runs:
        # A barrier inside a run may only sit at its final position.
        inside = barrier_positions.intersection(range(run.lo, run.hi - 1))
        assert not inside, (run, sorted(inside))
