"""Table 6: sensitivity to the BFVector size (16 vs 32 bits).

The paper's cost-effectiveness check for the Bloom filter: because the
SPLASH-2 candidate sets and lock sets are tiny (typically one lock), the
16-bit vector detects exactly the same bugs as a 32-bit one, and the false
alarms are virtually identical (a hash collision can hide at most the odd
alarm — ocean gains a single alarm at 32 bits in the paper).
"""

import pytest

from repro.common.config import PAPER_BLOOM_SIZES
from repro.harness.detectors import DetectorConfig
from repro.harness.experiment import CLEAN_RUN
from repro.harness.tables import render_table6, table6
from repro.workloads.registry import WORKLOAD_NAMES


@pytest.fixture(scope="module")
def table6_data(runner):
    return table6(runner)


def test_table6_regenerates(table6_data, save_exhibit, checked):
    def _check():
        save_exhibit("table6", render_table6(table6_data))

    checked(_check)

def test_same_bugs_at_both_vector_sizes(table6_data, checked):
    def _check():
        for app in WORKLOAD_NAMES:
            row = table6_data[app]["detected"]
            assert row[16] == row[32], (app, row)

    checked(_check)

def test_false_alarms_nearly_identical(table6_data, checked):
    def _check():
        for app in WORKLOAD_NAMES:
            row = table6_data[app]["alarms"]
            assert abs(row[16] - row[32]) <= 2, (app, row)
            # Collisions can only *hide* alarms at 16 bits, never invent them.
            assert row[16] <= row[32] + 1, (app, row)

    checked(_check)

def test_vector_sizes_covered(checked):
    def _check():
        assert PAPER_BLOOM_SIZES == (16, 32)

    checked(_check)

def test_bench_one_bloom_cell(runner, benchmark):
    def one_cell():
        config = DetectorConfig("hard-default", vector_bits=32)
        return runner.run_detector("raytrace", CLEAN_RUN, config).alarm_count

    alarms = benchmark.pedantic(one_cell, rounds=1, iterations=1)
    assert alarms >= 0
