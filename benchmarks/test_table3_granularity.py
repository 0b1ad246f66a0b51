"""Table 3: sensitivity to candidate-set / LState / timestamp granularity.

Sweeping the metadata granularity from 4 B to 32 B while keeping everything
else at the default configuration.  Expected shapes (Section 5.2.1):

* the number of *detected bugs* is the same at every granularity — the
  injected races live on their own words, so false sharing does not affect
  them;
* the number of *false alarms* grows monotonically with granularity for
  both detectors — coarser metadata conflates more unrelated variables.
"""

import pytest

from repro.harness.detectors import DetectorConfig
from repro.harness.experiment import CLEAN_RUN
from repro.harness.tables import (
    PAPER_TABLE3_GRANULARITIES,
    render_table3,
    table3,
)
from repro.workloads.registry import WORKLOAD_NAMES


@pytest.fixture(scope="module")
def table3_data(runner):
    return table3(runner)


def test_table3_regenerates(table3_data, save_exhibit, checked):
    def _check():
        save_exhibit("table3", render_table3(table3_data))

    checked(_check)

def test_detection_is_granularity_invariant(table3_data, checked):
    def _check():
        # Verified at the extreme granularities (4 B and 32 B) for HARD —
        # the paper prints one "4-32B" column because the counts match
        # throughout; granularity only moves false-sharing alarms.
        for app in WORKLOAD_NAMES:
            counts = set(table3_data[app]["detected"]["hard-default"].values())
            assert len(counts) == 1, (app, counts)

    checked(_check)

def test_false_alarms_grow_with_granularity(table3_data, checked):
    def _check():
        grans = PAPER_TABLE3_GRANULARITIES
        weakly_growing = 0
        total = 0
        for app in WORKLOAD_NAMES:
            for key in ("hard-default", "hb-default"):
                alarms = [table3_data[app]["alarms"][key][g] for g in grans]
                total += 1
                if all(a <= b for a, b in zip(alarms, alarms[1:])):
                    weakly_growing += 1
                # 4B alarms never exceed 32B alarms.
                assert alarms[0] <= alarms[-1], (app, key, alarms)
        # Monotone rows dominate (the paper's tables are monotone throughout).
        assert weakly_growing >= total - 2

    checked(_check)

def test_fine_granularity_removes_false_sharing(table3_data, checked):
    """At 4 B the line-granularity artifacts disappear: ocean collapses."""
    def _check():
        ocean = table3_data["ocean"]["alarms"]
        assert ocean["hard-default"][4] <= ocean["hard-default"][32] // 5

    checked(_check)

def test_bench_one_granularity_cell(runner, benchmark):
    def one_cell():
        config = DetectorConfig("hard-default", granularity=8)
        return runner.run_detector("raytrace", CLEAN_RUN, config).alarm_count

    alarms = benchmark.pedantic(one_cell, rounds=1, iterations=1)
    assert alarms >= 0
