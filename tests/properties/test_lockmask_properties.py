"""Property tests of the held-lock bitmask column and the kernels on it.

The lockset-family batch kernels intersect ``ColumnarTrace.held_locks()``
bitmasks where the scalar reference intersects frozensets.  The workload
traces cannot catch a multi-bit mask bug: none of their accesses holds two
locks at once.  So the strategy here builds traces directly, op by op,
with the shapes that stress the masks and the sharded partition:

* re-entrant acquires and several locks held at once, released in any
  order;
* bursts that hold more than 64 distinct locks (masks wider than a
  machine word);
* accesses that span chunks, lines and shard units, and back-to-back
  barrier episodes.

Every batch key except ``hard-default`` (whose Bloom-filter kernel does
not read the column) must give identical reports and stats on the scalar,
batch and sharded walks.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import detect_many
from repro.common.coltrace import ColumnarTrace
from repro.common.events import OpKind, Site, Trace, barrier, lock, read, unlock, write
from repro.engine import run_sharded
from repro.harness.detectors import DetectorConfig

from tests.engine.test_batch_path import BATCH_KEYS, result_key

#: The keys whose batch kernels read held-lock masks or int epochs.
MASK_KEYS = tuple(key for key in BATCH_KEYS if key != "hard-default")

SITES = [Site("mask.c", line, f"m{line}") for line in range(6)]
LOCK_SITE = Site("mask.c", 99, "lock")
#: Lock words one line apart: a small pool for ordinary critical
#: sections, and a burst set that takes the trace past 64 distinct locks.
LOCKS = [0x80000 + 64 * k for k in range(70)]
POOL = LOCKS[:3]
BURST = LOCKS[3:]
#: Shared data words; offsets near line ends make sized accesses span.
DATA = [0x1000, 0x101C, 0x103E, 0x10FC]
SIZES = (1, 2, 4, 8, 16, 64)


@st.composite
def lock_traces(draw) -> Trace:
    """A hand-built trace of lock, access and barrier steps."""
    num_threads = draw(st.integers(min_value=2, max_value=4))
    trace = Trace(num_threads=num_threads, label="lockmask")
    held: list[list[int]] = [[] for _ in range(num_threads)]
    steps = draw(st.lists(st.integers(min_value=0, max_value=9), max_size=60))
    for step in steps:
        tid = draw(st.integers(min_value=0, max_value=num_threads - 1))
        if step <= 1:  # acquire, often one the thread already holds
            pool = held[tid] if held[tid] and step == 0 else POOL
            addr = draw(st.sampled_from(pool))
            trace.append(tid, lock(addr, LOCK_SITE))
            held[tid].append(addr)
        elif step == 2 and held[tid]:  # release any held lock, any order
            addr = held[tid].pop(draw(st.integers(0, len(held[tid]) - 1)))
            trace.append(tid, unlock(addr, LOCK_SITE))
        elif step == 3:  # a burst past one machine word of locks, then use
            # Disjoint from the ordinary pool, so an access under the burst
            # and one under a pool lock race unless their bits alias.
            for addr in BURST:
                trace.append(tid, lock(addr, LOCK_SITE))
                held[tid].append(addr)
            trace.append(tid, draw(accesses()))
        elif step == 4:  # one or two back-to-back barrier episodes
            for _ in range(draw(st.integers(min_value=1, max_value=2))):
                barrier_id = draw(st.integers(min_value=1, max_value=2))
                for arriving in range(num_threads):
                    trace.append(arriving, barrier(barrier_id, num_threads))
        else:
            trace.append(tid, draw(accesses()))
    return trace


def accesses():
    """A read or write of a shared word, possibly spanning chunks and lines."""
    return st.builds(
        lambda op, addr, site, size: op(addr, site, size),
        st.sampled_from((read, write)),
        st.sampled_from(DATA),
        st.sampled_from(SITES),
        st.sampled_from(SIZES),
    )


def reference_masks(trace: Trace) -> list[int]:
    """Event-by-event decode: bits in first-acquire order, depth-counted."""
    bits: dict[int, int] = {}
    depth: dict[tuple[int, int], int] = {}
    held: dict[int, set[int]] = {}
    masks = []
    for event in trace.events:
        op = event.op
        locks = held.setdefault(event.thread_id, set())
        key = (event.thread_id, op.addr)
        if op.kind is OpKind.LOCK:
            bits.setdefault(op.addr, 1 << len(bits))
            depth[key] = depth.get(key, 0) + 1
            locks.add(op.addr)
        elif op.kind is OpKind.UNLOCK:
            depth[key] -= 1
            if not depth[key]:
                locks.discard(op.addr)
        masks.append(sum(bits[addr] for addr in locks))
    return masks


@settings(max_examples=60, deadline=None)
@given(lock_traces())
def test_held_locks_matches_reference_decode(trace):
    cols = ColumnarTrace.from_events(trace)
    assert cols.held_locks() == reference_masks(trace)
    reloaded = ColumnarTrace.from_bytes(cols.to_bytes())
    assert reloaded.held_locks() == cols.held_locks()


@settings(max_examples=50, deadline=None)
@given(lock_traces())
def test_scalar_batch_sharded_agree(trace):
    scalar = [result_key(r) for r in detect_many(trace, MASK_KEYS, engine_path="scalar")]
    cols = ColumnarTrace.from_events(trace)
    batch = [result_key(r) for r in detect_many(cols, MASK_KEYS, engine_path="batch")]
    assert batch == scalar
    configs = [DetectorConfig(key) for key in MASK_KEYS]
    sharded = [result_key(r) for r in run_sharded(cols, configs, jobs=1)]
    assert sharded == scalar
