"""Ablation: the Counter Register (Section 3.3).

Without the per-bit counters, releasing a lock clears all its signature
bits outright; under signature collisions this erases bits belonging to
*still-held* locks, making the Lock Register under-approximate the lock set
and produce spurious empty intersections — phantom alarms on correctly
locked code.
"""

from repro.common.config import BloomConfig, HardConfig
from repro.common.events import Site, Trace, lock, read, unlock, write
from repro.core.bloom import BloomMapper
from repro.core.detector import HardDetector
from repro.reporting import run_core

S = [Site("abl.c", i, f"s{i}") for i in range(10)]
VAR = 0x20000


def colliding_locks() -> tuple[int, int]:
    mapper = BloomMapper(BloomConfig())
    for a in range(64):
        for b in range(a + 1, 64):
            if mapper.signature(a << 2) & mapper.signature(b << 2):
                return a << 2, b << 2
    raise AssertionError


def nested_collision_trace() -> Trace:
    """Both threads protect VAR with lock A, while also holding and then
    releasing a colliding scratch lock B inside the critical section."""
    a, b = colliding_locks()
    trace = Trace(num_threads=2)
    for _ in range(4):
        for tid in (0, 1):
            trace.append(tid, lock(a, S[0]))
            trace.append(tid, lock(b, S[1]))
            trace.append(tid, unlock(b, S[2]))  # collision: may clear A's bits
            trace.append(tid, write(VAR, S[3]))
            trace.append(tid, read(VAR, S[4]))
            trace.append(tid, unlock(a, S[5]))
    return trace


def run_with(use_counter_register: bool):
    config = HardConfig(use_counter_register=use_counter_register)
    return run_core(HardDetector(config=config).core(), nested_collision_trace())


def test_counter_register_prevents_phantom_alarms(save_exhibit, checked):
    def _check():
        with_counters = run_with(True)
        without = run_with(False)
        save_exhibit(
            "ablation_counter_register",
            "Ablation: Counter Register on nested colliding locks (race-free)\n"
            f"  with counters   : {with_counters.reports.alarm_count} alarms\n"
            f"  naive clearing  : {without.reports.alarm_count} alarms",
        )
        assert with_counters.reports.alarm_count == 0
        assert without.reports.alarm_count >= 1

    checked(_check)

def test_bench_counter_register_pass(benchmark):
    result = benchmark.pedantic(lambda: run_with(True), rounds=1, iterations=1)
    assert result.reports.alarm_count == 0
