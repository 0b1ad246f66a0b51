"""Extension study: the hybrid lockset + happens-before detector.

Section 7 names the hybrid as future work and warns it "will be challenging
to minimize the hardware cost without losing any functionality".  This
exhibit quantifies the trade-off on the ideal substrate:

* false alarms collapse — ordering prunes the hand-off and benign-phase
  alarms that pure lockset reports;
* but *detection* regresses toward happens-before: a de-protected access
  whose competitors were scheduled apart is exactly what the threadset
  filter suppresses.

That tension is the reason HARD ships pure lockset and leaves the hybrid
as an extension.
"""

import pytest

from repro.harness.detectors import make_detector
from repro.harness.experiment import score_detection
from repro.workloads.registry import WORKLOAD_NAMES
from repro.reporting import run_core


@pytest.fixture(scope="module")
def hybrid_data(runner):
    data = {}
    for app in WORKLOAD_NAMES:
        detected = {"hybrid": 0, "hard-ideal": 0, "hb-ideal": 0}
        for run in range(10):
            trace = runner.trace_for(app, run)
            bug = runner.injected_bug(app, run)
            for key in detected:
                result = run_core(make_detector(key).core(), trace)
                detected[key] += score_detection(result, bug)
            runner.drop_trace(app, run)
        clean = runner.trace_for(app, -1)
        alarms = {
            key: run_core(make_detector(key).core(), clean).reports.alarm_count
            for key in ("hybrid", "hard-ideal", "hb-ideal")
        }
        data[app] = {"detected": detected, "alarms": alarms}
    return data


def render(data) -> str:
    lines = [
        "Extension: hybrid lockset+HB vs its parents (ideal substrate)",
        f"{'Application':<16}{'bugs hyb':>9}{'bugs LS':>9}{'bugs HB':>9}"
        f"{'FA hyb':>8}{'FA LS':>8}{'FA HB':>8}",
    ]
    for app, row in data.items():
        lines.append(
            f"{app:<16}"
            f"{row['detected']['hybrid']:>9}{row['detected']['hard-ideal']:>9}"
            f"{row['detected']['hb-ideal']:>9}"
            f"{row['alarms']['hybrid']:>8}{row['alarms']['hard-ideal']:>8}"
            f"{row['alarms']['hb-ideal']:>8}"
        )
    return "\n".join(lines)


def test_exhibit_regenerates(hybrid_data, save_exhibit, checked):
    def _check():
        save_exhibit("extension_hybrid", render(hybrid_data))

    checked(_check)


def test_hybrid_prunes_false_alarms(hybrid_data, checked):
    def _check():
        total_hybrid = sum(r["alarms"]["hybrid"] for r in hybrid_data.values())
        total_lockset = sum(r["alarms"]["hard-ideal"] for r in hybrid_data.values())
        assert total_hybrid < total_lockset

    checked(_check)


def test_hybrid_detection_between_parents(hybrid_data, checked):
    def _check():
        hybrid = sum(r["detected"]["hybrid"] for r in hybrid_data.values())
        lockset = sum(r["detected"]["hard-ideal"] for r in hybrid_data.values())
        hb = sum(r["detected"]["hb-ideal"] for r in hybrid_data.values())
        assert hybrid <= lockset
        # The filter costs coverage relative to pure lockset (the paper's
        # warning) but can only ever add HB-style evidence requirements,
        # so it should not fall below happens-before materially.
        assert hybrid >= hb - 1

    checked(_check)


def test_bench_one_hybrid_pass(runner, benchmark):
    trace = runner.trace_for("raytrace", -1)
    detector = make_detector("hybrid")
    result = benchmark.pedantic(lambda: run_core(detector.core(), trace), rounds=1, iterations=1)
    assert result.reports.alarm_count >= 0
