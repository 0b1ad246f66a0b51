"""Unit tests for the CMP machine: MESI protocol, inclusion, events."""

import pytest

from repro.common.config import CacheConfig, MachineConfig
from repro.common.errors import SimulationError
from repro.sim.cache import MESI
from repro.sim.coherence import FillSource, MachineListener, SourceKind
from repro.sim.machine import Machine


def tiny_machine(l2_kb: int = 4) -> Machine:
    """A machine small enough to force evictions in tests."""
    return Machine(
        MachineConfig(
            num_cores=4,
            l1=CacheConfig(512, 2, 32, 3),
            l2=CacheConfig(l2_kb * 1024, 4, 32, 10),
            memory_latency_cycles=200,
        )
    )


class RecordingListener(MachineListener):
    """Captures every coherence event for assertions."""

    def __init__(self):
        self.events: list[tuple] = []

    def on_fill(self, core, line_addr, source):
        self.events.append(("fill", core, line_addr, source))

    def on_writeback(self, core, line_addr):
        self.events.append(("writeback", core, line_addr))

    def on_l1_evict(self, core, line_addr, dirty):
        self.events.append(("l1_evict", core, line_addr, dirty))

    def on_invalidate(self, core, line_addr):
        self.events.append(("invalidate", core, line_addr))

    def on_l2_evict(self, line_addr):
        self.events.append(("l2_evict", line_addr))


class TestBasicAccess:
    def test_cold_read_fills_from_memory(self):
        m = tiny_machine()
        result = m.access(0, 0x1000, 4, is_write=False)
        (line,) = result.lines
        assert line.hit_level == "memory"
        assert line.filled_from_memory
        assert m.l1s[0].lookup(0x1000).state is MESI.EXCLUSIVE
        assert m.l2.contains(0x1000)

    def test_second_read_hits_l1(self):
        m = tiny_machine()
        m.access(0, 0x1000, 4, False)
        result = m.access(0, 0x1000, 4, False)
        assert result.lines[0].hit_level == "l1"
        assert result.lines[0].cycles == m.config.l1.latency_cycles

    def test_cold_write_installs_modified(self):
        m = tiny_machine()
        m.access(0, 0x1000, 4, True)
        assert m.l1s[0].lookup(0x1000).state is MESI.MODIFIED

    def test_write_hit_on_exclusive_upgrades_silently(self):
        m = tiny_machine()
        m.access(0, 0x1000, 4, False)
        result = m.access(0, 0x1000, 4, True)
        assert result.lines[0].hit_level == "l1"
        assert not result.lines[0].upgraded  # silent E->M, no bus
        assert m.l1s[0].lookup(0x1000).state is MESI.MODIFIED

    def test_straddling_access_touches_both_lines(self):
        m = tiny_machine()
        result = m.access(0, 0x101E, 4, False)
        assert [lr.line_addr for lr in result.lines] == [0x1000, 0x1020]


class TestSharing:
    def test_read_sharing_downgrades_to_shared(self):
        m = tiny_machine()
        m.access(0, 0x1000, 4, False)  # core0 E
        result = m.access(1, 0x1000, 4, False)
        assert result.lines[0].hit_level == "c2c"
        assert result.lines[0].fill_source == FillSource.from_core(0)
        assert m.l1s[0].lookup(0x1000).state is MESI.SHARED
        assert m.l1s[1].lookup(0x1000).state is MESI.SHARED

    def test_read_of_modified_line_writes_back(self):
        m = tiny_machine()
        listener = RecordingListener()
        m.add_listener(listener)
        m.access(0, 0x1000, 4, True)  # core0 M
        m.access(1, 0x1000, 4, False)
        assert ("writeback", 0, 0x1000) in listener.events
        assert m.l2.lookup(0x1000).state is MESI.MODIFIED  # dirty vs memory

    def test_write_invalidates_sharers(self):
        m = tiny_machine()
        m.access(0, 0x1000, 4, False)
        m.access(1, 0x1000, 4, False)
        result = m.access(2, 0x1000, 4, True)
        assert set(result.lines[0].invalidated_cores) == {0, 1}
        assert m.l1s[0].lookup(0x1000) is None
        assert m.l1s[1].lookup(0x1000) is None
        assert m.l1s[2].lookup(0x1000).state is MESI.MODIFIED

    def test_upgrade_from_shared_issues_invalidations(self):
        m = tiny_machine()
        m.access(0, 0x1000, 4, False)
        m.access(1, 0x1000, 4, False)
        result = m.access(0, 0x1000, 4, True)  # S->M upgrade
        assert result.lines[0].upgraded
        assert result.lines[0].invalidated_cores == (1,)

    def test_second_reader_from_l2_when_no_owner(self):
        m = tiny_machine()
        m.access(0, 0x1000, 4, False)
        m.access(1, 0x1000, 4, False)  # both S now
        m.access(2, 0x1000, 4, False)
        # No M/E holder: the inclusive L2 supplies the third copy.
        assert m.l1s[2].lookup(0x1000).state is MESI.SHARED

    def test_sharers_reports_holders(self):
        m = tiny_machine()
        m.access(0, 0x1000, 4, False)
        m.access(1, 0x1000, 4, False)
        assert set(m.sharers(0x1000)) == {0, 1}
        assert m.sharers(0x1000, excluding=0) == [1]


class TestEvictionsAndInclusion:
    def test_l2_eviction_back_invalidates_l1(self):
        m = tiny_machine(l2_kb=1)  # 32 lines in L2
        listener = RecordingListener()
        m.add_listener(listener)
        # Touch enough lines from core 0 to cycle the small L2.
        for i in range(200):
            m.access(0, 0x1000 + 32 * i, 4, False)
        evictions = [e for e in listener.events if e[0] == "l2_evict"]
        assert evictions, "small L2 must displace lines"
        m.check_invariants()

    def test_fill_event_order_for_write_steal(self):
        """on_fill precedes on_invalidate for the same line (metadata copies)."""
        m = tiny_machine()
        listener = RecordingListener()
        m.add_listener(listener)
        m.access(0, 0x1000, 4, True)  # core0 M
        listener.events.clear()
        m.access(1, 0x1000, 4, True)  # steal
        kinds = [e[0] for e in listener.events]
        assert kinds.index("fill") < kinds.index("invalidate")

    def test_dirty_l1_eviction_writes_back(self):
        m = tiny_machine()
        listener = RecordingListener()
        m.add_listener(listener)
        # L1 has 16 lines (512B/32B), 2-way, 8 sets: lines 0x1000 and
        # 0x1000 + 8*32*k map to the same set.
        stride = 8 * 32
        m.access(0, 0x1000, 4, True)
        m.access(0, 0x1000 + stride, 4, False)
        m.access(0, 0x1000 + 2 * stride, 4, False)  # evicts dirty 0x1000
        assert ("writeback", 0, 0x1000) in listener.events
        assert ("l1_evict", 0, 0x1000, True) in listener.events

    def test_straddling_access_never_displaces_its_own_line(self):
        """A later line's L2 fill must not evict a line the same access used.

        Line A (0x10e0) is the L2's least recently used line but an L1 hit
        for core 0, so core 0's read of A and B (0x1100) fills B from memory
        into a full one-set L2.  Evicting A would back-invalidate the copy
        the access has just used, leaving a detector no metadata for it.
        """
        m = Machine(
            MachineConfig(
                num_cores=4,
                l1=CacheConfig(512, 2, 32, 3),
                l2=CacheConfig(256, 8, 32, 10),  # one set of 8 ways
                memory_latency_cycles=200,
            )
        )
        listener = RecordingListener()
        m.add_listener(listener)
        m.access(0, 0x10E0, 4, False)
        for k in range(7):
            m.access(1, 0x2000 + 32 * k, 4, False)
        listener.events.clear()
        m.access(0, 0x10FC, 8, False)
        assert m.l1s[0].lookup(0x10E0) is not None
        assert [e for e in listener.events if e[0] == "l2_evict"] == [
            ("l2_evict", 0x2000)
        ]
        m.check_invariants()

    def test_invariants_hold_under_random_traffic(self):
        import random

        m = tiny_machine(l2_kb=2)
        rng = random.Random(42)
        for _ in range(2000):
            core = rng.randrange(4)
            addr = 0x1000 + 32 * rng.randrange(150)
            m.access(core, addr, 4, rng.random() < 0.4)
        m.check_invariants()


class TestTimingAccounting:
    def test_memory_fill_costs_more_than_l2(self):
        m = tiny_machine()
        cold = m.access(0, 0x1000, 4, False).cycles
        m.access(1, 0x2000, 4, False)
        m.l1s[1].evict(0x2000)  # force L2-only residence
        l2_fill = m.access(1, 0x2000, 4, False).cycles
        hit = m.access(0, 0x1000, 4, False).cycles
        assert cold > l2_fill > hit

    def test_cycles_accumulate(self):
        m = tiny_machine()
        before = m.cycles
        m.access(0, 0x1000, 4, False)
        assert m.cycles > before

    def test_charge_rejects_negative(self):
        with pytest.raises(SimulationError):
            tiny_machine().charge(-1, "x")

    def test_bad_core_rejected(self):
        with pytest.raises(SimulationError):
            tiny_machine().access(9, 0x1000, 4, False)

    def test_core_for_thread_round_robin(self):
        m = tiny_machine()
        assert [m.core_for_thread(t) for t in range(6)] == [0, 1, 2, 3, 0, 1]
