"""Scalar ≡ columnar machine parity: ``Machine.record`` against ``access``.

``Machine.record`` walks a columnar trace through the machine in one loop
body per line; ``Machine.access`` is the per-event oracle the scalar walk
and the unit tests drive.  The reference here drives
``access`` event by event with a listener defined in this module (the
recorder the tape used before the kernel existed) and must produce the
same nine tape arrays and leave the same machine behind: every set's line
order and states in each L1 and the L2, the holders map, the eviction
record, the cycle total, the placed threads, and the machine and fabric
counters *with their key sets* (a counter the scalar path creates at 0
must exist, one it never creates must not).

Each example draws a machine — 4, 16 or 64 cores, snoopy or directory,
``modulo`` or ``pinned`` thread placement — with tiny L1s and L2, so L1
evictions, dirty writebacks and L2 displacements that back-invalidate
several L1 copies happen constantly, and a trace of unaligned and
line-straddling reads and writes, lock words (some straddling), COMPUTE
events (including zero-cycle ones) and barriers.
"""

from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.coltrace import KIND_BARRIER, KIND_COMPUTE, ColumnarTrace
from repro.common.config import CacheConfig, MachineConfig
from repro.common.errors import SimulationError
from repro.common.events import Site, Trace, barrier, compute, lock, read, unlock, write
from repro.engine.tape import _TAPE_ARRAYS, MachineTape
from repro.sim.coherence import (
    HOOK_FILL_CORE,
    HOOK_FILL_L2,
    HOOK_FILL_MEM,
    HOOK_INVALIDATE,
    HOOK_L1_EVICT,
    HOOK_L2_EVICT,
    HOOK_WRITEBACK,
    L2_SOURCE,
    MEMORY_SOURCE,
    MachineListener,
)
from repro.sim.machine import LOCK_WORD_BYTES, Machine

LINE = 32
BASE = 0x1000
#: Few enough lines that several cores share them, many more than the
#: tiny L2 holds, so displacements regularly catch multi-copy lines.
LINES = 48
SITE = Site("parity.c", 1, "f")


#: (size, ways) of the L1s and the L2.  The direct-mapped 2-line L1 and
#: the 8-line L2 let one straddling access evict, or back-invalidate, a
#: line it touched itself.
L1_SHAPES = ((256, 2), (64, 1))
L2_SHAPES = ((1024, 2), (256, 2))


def tiny_config(
    num_cores: int,
    coherence: str,
    pins: tuple[int, ...],
    l1: tuple[int, int] = L1_SHAPES[0],
    l2: tuple[int, int] = L2_SHAPES[0],
) -> MachineConfig:
    return MachineConfig(
        num_cores=num_cores,
        coherence=coherence,
        l1=CacheConfig(*l1, LINE, 3),
        l2=CacheConfig(*l2, LINE, 10),
        thread_mapping="pinned" if pins else "modulo",
        thread_pins=pins,
    )


@st.composite
def runs(draw, max_size=300):
    """(MachineConfig, ColumnarTrace) with every event kind the tape sees."""
    num_cores = draw(st.sampled_from((4, 16, 64)))
    coherence = draw(st.sampled_from(("snoopy", "directory")))
    num_threads = draw(st.integers(min_value=1, max_value=8))
    pins: tuple[int, ...] = ()
    if draw(st.booleans()):
        # Pin some threads (possibly onto one core); the rest fall back
        # to modulo placement.
        pins = tuple(
            draw(
                st.lists(
                    st.integers(min_value=0, max_value=num_cores - 1),
                    min_size=1,
                    max_size=num_threads,
                )
            )
        )
    trace = Trace(num_threads=num_threads, label="parity")
    tid = st.integers(min_value=0, max_value=num_threads - 1)
    steps = draw(
        st.lists(
            st.tuples(
                st.sampled_from(("data", "data", "data", "lock", "compute", "barrier")),
                tid,
                st.integers(min_value=0, max_value=LINES - 1),  # line index
                st.integers(min_value=0, max_value=LINE - 1),  # offset
                st.integers(min_value=1, max_value=5 * LINE),  # size
                st.booleans(),  # write? / unlock?
            ),
            min_size=20,
            max_size=max_size,
        )
    )
    for step, thread, index, offset, size, flag in steps:
        addr = BASE + LINE * index + offset
        if step == "data":
            # Mostly word-sized accesses; the size draw makes some span
            # up to six lines.
            size = size if size > 8 and offset % 4 == 0 else min(size, 8)
            trace.append(thread, (write if flag else read)(addr, SITE, size))
        elif step == "lock":
            # Lock words at any 2-byte offset: some straddle a line.
            addr = BASE + LINE * index + (offset & ~1)
            trace.append(thread, (unlock if flag else lock)(addr, SITE))
        elif step == "compute":
            trace.append(thread, compute(size if flag else 0))
        else:
            for arriving in range(num_threads):
                trace.append(arriving, barrier(1, num_threads))
    config = tiny_config(
        num_cores,
        coherence,
        pins,
        draw(st.sampled_from(L1_SHAPES)),
        draw(st.sampled_from(L2_SHAPES)),
    )
    return config, ColumnarTrace.from_events(trace)


class HookTape(MachineListener):
    """Every coherence callback as a flat (code, line, core, aux) list."""

    def __init__(self):
        self.hooks: list[int] = []

    def on_fill(self, core, line_addr, source):
        if source is MEMORY_SOURCE:
            self.hooks += (HOOK_FILL_MEM, line_addr, core, 0)
        elif source is L2_SOURCE:
            self.hooks += (HOOK_FILL_L2, line_addr, core, 0)
        else:
            self.hooks += (HOOK_FILL_CORE, line_addr, core, source.core)

    def on_writeback(self, core, line_addr):
        self.hooks += (HOOK_WRITEBACK, line_addr, core, 0)

    def on_l1_evict(self, core, line_addr, dirty):
        self.hooks += (HOOK_L1_EVICT, line_addr, core, int(dirty))

    def on_invalidate(self, core, line_addr):
        self.hooks += (HOOK_INVALIDATE, line_addr, core, 0)

    def on_l2_evict(self, line_addr):
        self.hooks += (HOOK_L2_EVICT, line_addr, -1, 0)


def reference(cols: ColumnarTrace, config: MachineConfig):
    """The tape arrays and machine of a per-event ``Machine.access`` walk."""
    machine = Machine(config)
    listener = HookTape()
    machine.add_listener(listener)
    hooks = listener.hooks
    n = cols.n
    hook_off, pig, sharer_off = [], [], []
    sharer_line, sharer_flag = [], []
    for i in range(n):
        hook_off.append(len(hooks) // 4)
        sharer_off.append(len(sharer_line))
        kind = cols.kind[i]
        count = 0
        if kind <= 1:
            core = machine.core_for_thread(cols.tid[i])
            result = machine.access(core, cols.addr[i], cols.size[i], kind == 1)
            for line in result.lines:
                source = line.fill_source
                count += source is not None and source is not MEMORY_SOURCE
                count += line.l1_victim is not None and line.l1_victim.dirty
            for line in result.lines:
                sharer_line.append(line.line_addr)
                sharer_flag.append(
                    int(machine.has_other_sharers(line.line_addr, excluding=core))
                )
        elif kind == KIND_COMPUTE:
            machine.charge(cols.cycles[i], "compute")
        elif kind != KIND_BARRIER:
            core = machine.core_for_thread(cols.tid[i])
            machine.access(core, cols.addr[i], LOCK_WORD_BYTES, True)
        pig.append(count)
    hook_off.append(len(hooks) // 4)
    sharer_off.append(len(sharer_line))
    for tid in sorted(set(cols.tid)):
        machine.core_for_thread(tid)
    machine.remove_listener(listener)
    arrays = (
        array("q", hook_off),
        array("B", hooks[0::4]),
        array("q", hooks[1::4]),
        array("i", hooks[2::4]),
        array("i", hooks[3::4]),
        array("B", pig),
        array("q", sharer_off),
        array("q", sharer_line),
        array("B", sharer_flag),
    )
    return arrays, machine


def machine_state(machine: Machine) -> dict:
    """Everything the two paths must leave identical, orders included."""

    def sets(cache):
        return [[(tag, line.state) for tag, line in s.items()] for s in cache._sets]

    return {
        "l1s": [sets(l1) for l1 in machine.l1s],
        "l2": sets(machine.l2),
        "holders": machine._holders,
        "evictions": machine.evictions,
        "cycles": machine.cycles,
        "threads": machine._thread_cores,
        "stats": machine.stats.snapshot(),
        "bus_cycles": machine.bus.cycles,
        "bus_stats": machine.bus.stats.snapshot(),
    }


def assert_parity(config: MachineConfig, cols: ColumnarTrace) -> Machine:
    expected_arrays, expected = reference(cols, config)
    machine = Machine(config)
    arrays = machine.record(cols)
    for (name, typecode), got, want in zip(_TAPE_ARRAYS, arrays, expected_arrays):
        assert got.typecode == typecode, name
        assert got == want, name
    assert machine_state(machine) == machine_state(expected)
    return machine


@settings(max_examples=120, deadline=None)
@given(runs())
def test_record_matches_per_event_access(run):
    config, cols = run
    assert_parity(config, cols)


def test_directed_trace_reaches_every_case():
    """One hand-built trace through every branch, checked for parity."""
    trace = Trace(num_threads=4, label="directed")
    # Lines 0, 32 and 64 share an L2 set (16 sets of 2 ways): three cores
    # read line 0, one dirties it, then lines 16 and 32 displace it.
    for tid in (0, 1, 2):
        trace.append(tid, read(BASE, SITE))
    trace.append(0, write(BASE, SITE))  # upgrade: invalidates cores 1, 2
    trace.append(1, read(BASE, SITE))  # cache-to-cache from a dirty owner
    trace.append(2, write(BASE + 4, SITE))  # L2 supplies, invalidates 0, 1
    trace.append(3, read(BASE, SITE))  # c2c again; now two copies
    trace.append(0, read(BASE + 16 * LINE, SITE))
    trace.append(0, read(BASE + 32 * LINE, SITE))  # back-invalidates two L1s
    trace.append(1, write(BASE + LINE - 2, SITE, 4))  # straddles two lines
    trace.append(2, lock(BASE + 3 * LINE - 2, SITE))  # a straddling lock word
    trace.append(2, compute(0))
    trace.append(3, compute(7))
    for tid in range(4):
        trace.append(tid, barrier(1, 4))
    for k in range(8):  # conflict misses: L1 victims, some dirty
        trace.append(0, write(BASE + 4 * k * LINE, SITE))
    config = tiny_config(4, "directory", ())
    machine = assert_parity(config, ColumnarTrace.from_events(trace))
    ev = machine.evictions
    assert ev.back_invalidations >= 2 and ev.l2_evictions >= 1
    assert ev.l1_evictions and ev.l1_writebacks and ev.invalidations >= 4
    stats = machine.stats.snapshot()
    assert stats["cycles.compute"] == 7
    assert stats["access.c2c_r"] and stats["access.l2_w"] and stats["access.l1_w"]
    assert machine.bus.stats["bus.transactions.upgrade"] == 1


def test_empty_and_compute_only_traces_create_no_access_keys():
    trace = Trace(num_threads=2, label="compute-only")
    trace.append(1, compute(0))
    trace.append(0, barrier(1, 1))
    config = tiny_config(4, "snoopy", ())
    machine = assert_parity(config, ColumnarTrace.from_events(trace))
    assert machine.stats.snapshot() == {
        "cycles.compute": 0,
        "machine.threads.placed": 2,
    }
    assert machine.bus.stats.snapshot() == {}


def test_tape_records_through_the_kernel():
    trace = Trace(num_threads=2, label="tape")
    trace.append(0, write(BASE, SITE))
    trace.append(1, read(BASE, SITE))
    cols = ColumnarTrace.from_events(trace)
    config = tiny_config(4, "snoopy", ())
    tape = MachineTape(cols, config)
    arrays, machine = reference(cols, config)
    assert [bytes(getattr(tape, name)) for name, _ in _TAPE_ARRAYS] == [
        bytes(a) for a in arrays
    ]
    assert tape.machine_cycles == machine.cycles
    assert tape.machine_stats == machine.stats.snapshot()
    assert tape.bus_stats == machine.bus.stats.snapshot()


class TestRecordFailsClosed:
    """``record`` makes no callbacks, so it refuses machines that need them."""

    def cols(self) -> ColumnarTrace:
        trace = Trace(num_threads=1, label="closed")
        trace.append(0, read(BASE, SITE))
        return ColumnarTrace.from_events(trace)

    def test_registered_listener_is_refused(self):
        machine = Machine(tiny_config(4, "snoopy", ()))
        machine.add_listener(HookTape())
        with pytest.raises(SimulationError, match=r"Machine\.access"):
            machine.record(self.cols())
        assert machine.stats.snapshot() == {}
