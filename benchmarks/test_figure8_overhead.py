"""Figure 8: HARD's execution-time overhead.

Run the race-free execution of every application with the HARD extensions
active and attribute cycles: metadata piggybacks and broadcasts on the bus,
candidate-set checks on shared accesses, lock-register updates, and barrier
flash-resets.  ``overhead = extra_cycles / baseline_cycles``.

Reproduction target: small single-digit percentages (the paper reports
0.1% – 2.6%), with the bus traffic as the dominant contributor and the
lock-heavy apps at the high end.
"""

import pytest

from repro.harness.experiment import CLEAN_RUN
from repro.harness.tables import PAPER_FIGURE8, figure8, render_figure8
from repro.workloads.registry import WORKLOAD_NAMES
from repro.reporting import run_core


@pytest.fixture(scope="module")
def figure8_data(runner):
    return figure8(runner)


def test_figure8_regenerates(figure8_data, save_exhibit, checked):
    def _check():
        save_exhibit("figure8", render_figure8(figure8_data))

    checked(_check)

def test_overhead_in_paper_band(figure8_data, checked):
    """Every app lands in (or very near) the paper's 0.1%-2.6% band."""
    def _check():
        for app in WORKLOAD_NAMES:
            pct = figure8_data[app]["overhead_pct"]
            assert 0.0 <= pct <= 4.0, (app, pct)
        # At least one app is well under 1% and none dominates execution.
        assert min(d["overhead_pct"] for d in figure8_data.values()) < 1.0

    checked(_check)

def test_traffic_dominates_overhead(runner, checked):
    """Section 5.1: the bus traffic increase is the main contributor."""
    def _check():
        outcome = runner.run_detector("cholesky", CLEAN_RUN, "hard-default")
        result_stats = _overhead_components(runner, "cholesky")
        traffic = result_stats["piggyback"] + result_stats["broadcast"]
        compute = result_stats["check"] + result_stats["lockreg"] + result_stats["reset"]
        assert traffic + compute == pytest.approx(outcome.detector_extra_cycles)
        assert traffic > compute

    checked(_check)

def _overhead_components(runner, app: str) -> dict:
    from repro.harness.detectors import make_detector

    trace = runner.trace_for(app, -1)
    result = run_core(make_detector("hard-default").core(), trace)
    return {
        "piggyback": result.stats.get("cycles.hard.piggyback"),
        "broadcast": result.stats.get("cycles.hard.broadcast"),
        "check": result.stats.get("cycles.hard.check"),
        "lockreg": result.stats.get("cycles.hard.lockreg"),
        "reset": result.stats.get("cycles.hard.barrier_reset"),
    }


def test_reference_band_recorded(checked):
    def _check():
        assert max(PAPER_FIGURE8.values()) == 2.6
        assert min(PAPER_FIGURE8.values()) == 0.1

    checked(_check)

def test_bench_overhead_measurement(runner, benchmark):
    def measure():
        return runner.run_detector("barnes", CLEAN_RUN, "hard-default")

    outcome = benchmark.pedantic(measure, rounds=1, iterations=1)
    assert outcome.cycles > 0
