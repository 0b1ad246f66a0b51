"""Property-based tests for MESI coherence and metadata consistency.

Each example draws a machine — 4, 16 or 64 cores over the snoopy bus or
the directory fabric — and a sequence of program accesses: unaligned and
line-spanning data accesses (offset 0–31, size 1–8) mixed with 4-byte
lock-word writes.  The caches are tiny, so L1 evictions and L2
displacements (with their back-invalidations) happen constantly.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import CacheConfig, MachineConfig
from repro.sim.machine import Machine
from repro.sim.metadata import CacheMetadataStore

LINE = 32
BASE = 0x1000


@st.composite
def runs(draw, max_size=400):
    """(num_cores, coherence, [(core, addr, size, is_write), ...])."""
    num_cores = draw(st.sampled_from((4, 16, 64)))
    coherence = draw(st.sampled_from(("snoopy", "directory")))
    data_access = st.tuples(
        st.integers(min_value=0, max_value=num_cores - 1),  # core
        st.integers(min_value=0, max_value=120),            # line index
        st.integers(min_value=0, max_value=LINE - 1),       # offset
        st.integers(min_value=1, max_value=8),              # size
        st.booleans(),                                      # write?
    )
    lock_write = st.tuples(
        st.integers(min_value=0, max_value=num_cores - 1),
        st.integers(min_value=0, max_value=120),
        st.sampled_from(range(0, LINE, 4)),
        st.just(4),
        st.just(True),
    )
    accesses = draw(st.lists(st.one_of(data_access, lock_write), max_size=max_size))
    return num_cores, coherence, [
        (core, BASE + LINE * index + offset, size, is_write)
        for core, index, offset, size, is_write in accesses
    ]


def tiny_machine(num_cores: int = 4, coherence: str = "snoopy") -> Machine:
    return Machine(
        MachineConfig(
            num_cores=num_cores,
            coherence=coherence,
            l1=CacheConfig(256, 2, LINE, 3),
            l2=CacheConfig(1024, 2, LINE, 10),
        )
    )


def holders_from_l1s(machine: Machine) -> dict:
    derived = {}
    for core, l1 in enumerate(machine.l1s):
        for line in l1.resident_lines():
            derived.setdefault(line.tag, set()).add(core)
    return derived


@settings(max_examples=60, deadline=None)
@given(runs())
def test_mesi_invariants_hold(run):
    num_cores, coherence, seq = run
    machine = tiny_machine(num_cores, coherence)
    for core, addr, size, is_write in seq:
        machine.access(core, addr, size, is_write)
    machine.check_invariants()


@settings(max_examples=60, deadline=None)
@given(runs())
def test_holders_map_matches_l1_contents(run):
    num_cores, coherence, seq = run
    machine = tiny_machine(num_cores, coherence)
    for core, addr, size, is_write in seq:
        machine.access(core, addr, size, is_write)
        assert holders_from_l1s(machine) == machine._holders


@settings(max_examples=60, deadline=None)
@given(runs())
def test_shared_after_matches_sharers(run):
    # The access path answers shared_after from the holders map instead of
    # building the sorted sharer list; the two must agree on every line.
    num_cores, coherence, seq = run
    machine = tiny_machine(num_cores, coherence)
    for core, addr, size, is_write in seq:
        result = machine.access(core, addr, size, is_write)
        for line_result in result.lines:
            line_addr = line_result.line_addr
            assert line_result.shared_after == bool(
                machine.sharers(line_addr, excluding=core)
            )
            assert line_result.shared_after == machine.has_other_sharers(
                line_addr, excluding=core
            )
    machine.check_invariants()


@settings(max_examples=60, deadline=None)
@given(runs())
def test_writer_always_ends_modified(run):
    num_cores, coherence, seq = run
    machine = tiny_machine(num_cores, coherence)
    for core, addr, size, is_write in seq:
        result = machine.access(core, addr, size, is_write)
        for line_result in result.lines:
            line = machine.l1s[core].lookup(line_result.line_addr)
            assert line is not None
            if is_write:
                assert line.state.value == "M"


@settings(max_examples=40, deadline=None)
@given(runs())
def test_metadata_store_mirrors_protocol(run):
    num_cores, coherence, seq = run
    machine = tiny_machine(num_cores, coherence)
    store = CacheMetadataStore(fresh=lambda line: [line], clone=list.copy)
    machine.add_listener(store)
    for core, addr, size, is_write in seq:
        machine.access(core, addr, size, is_write)
    for core, l1 in enumerate(machine.l1s):
        for line in l1.resident_lines():
            assert store.get(core, line.tag) is not None
    for line_addr in store.tracked_lines():
        assert machine.l2.contains(line_addr)


@settings(max_examples=40, deadline=None)
@given(runs())
def test_cycles_monotone_and_positive(run):
    num_cores, coherence, seq = run
    machine = tiny_machine(num_cores, coherence)
    previous = 0
    for core, addr, size, is_write in seq:
        machine.access(core, addr, size, is_write)
        assert machine.cycles > previous
        previous = machine.cycles
