"""Ablation: the barrier BFVector reset (Section 3.5).

Disabling the reset must flood the barrier-phased applications with false
positives (every cross-phase unlocked access pattern becomes a lockset
violation) while leaving detection of the injected bugs essentially intact.
Ocean — the barrier application — is the showcase.
"""

import pytest

from repro.harness.detectors import make_detector
from repro.reporting import run_core


@pytest.fixture(scope="module")
def ocean_clean_trace(runner):
    return runner.trace_for("ocean", -1)


@pytest.fixture(scope="module")
def alarms_by_reset(ocean_clean_trace):
    counts = {}
    for reset in (True, False):
        detector = make_detector("hard-ideal", barrier_reset=reset)
        counts[reset] = run_core(detector.core(), ocean_clean_trace).reports.alarm_count
    return counts


def test_reset_prunes_barrier_false_positives(alarms_by_reset, save_exhibit, checked):
    def _check():
        save_exhibit(
            "ablation_barrier_reset",
            "Ablation: barrier BFVector reset (ocean, race-free run, ideal lockset)\n"
            f"  reset enabled : {alarms_by_reset[True]:>5} alarms\n"
            f"  reset disabled: {alarms_by_reset[False]:>5} alarms",
        )
        assert alarms_by_reset[True] < alarms_by_reset[False]
        # The reset must remove the barrier-ordered accesses wholesale.
        assert alarms_by_reset[False] >= alarms_by_reset[True] + 3

    checked(_check)

def test_reset_does_not_hurt_detection(runner, checked):
    def _check():
        detected = 0
        for run in range(5):
            trace = runner.trace_for("ocean", run)
            detector = make_detector("hard-ideal", barrier_reset=True)
            result = run_core(detector.core(), trace)
            bug = runner.injected_bug("ocean", run)
            detected += any(
                bug.matches_report(r.addr, r.size, r.site) for r in result.reports
            )
            runner.drop_trace("ocean", run)
        assert detected == 5

    checked(_check)

def test_bench_reset_pass(ocean_clean_trace, benchmark):
    detector = make_detector("hard-ideal", barrier_reset=True)
    result = benchmark.pedantic(
        lambda: run_core(detector.core(), ocean_clean_trace), rounds=1, iterations=1
    )
    assert result.reports.alarm_count >= 0
