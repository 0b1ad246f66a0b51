"""A miniature end-to-end evaluation: the Table 2 pipeline at toy scale.

Runs the full protocol — build app, inject bugs, interleave, score all
detectors on identical traces — on a shrunken barnes instance, asserting
the paper's qualitative claims hold even at toy scale.  The real Table 2
lives in ``benchmarks/test_table2_overall.py``; this test keeps the whole
pipeline covered by the fast suite.
"""

import pytest

from repro.harness.detectors import make_detector
from repro.harness.experiment import score_detection
from repro.threads.runtime import interleave
from repro.threads.scheduler import RandomScheduler
from repro.workloads.barnes import BarnesParams
from repro.workloads.injection import inject_bug
from repro.workloads.registry import build_workload
from repro.reporting import run_core

TINY = BarnesParams(
    counter_updates_per_thread=160,
    stream_lines_per_thread=450,
    table_lines=30,
    flag_instances=6,
    flag_site_groups=3,
    fs_private_lines=4,
    fs_locked_lines=3,
    pc_tasks=40,
    benign=1,
)

RUNS = 3


@pytest.fixture(scope="module")
def verdicts():
    out = {}
    for run in range(RUNS):
        program = build_workload("barnes", seed=0, params=TINY)
        buggy = inject_bug(program, seed=run)
        trace = interleave(
            buggy, RandomScheduler(seed=run, max_burst=8)
        ).trace
        bug = buggy.injected_bug
        for key in ("hard-ideal", "hb-ideal"):
            result = run_core(make_detector(key).core(), trace)
            out.setdefault(key, []).append(
                (score_detection(result, bug), result.reports.alarm_count)
            )
    return out


def test_ideal_lockset_catches_every_toy_bug(verdicts):
    assert all(hit for hit, _ in verdicts["hard-ideal"])


def test_happens_before_never_beats_lockset(verdicts):
    lockset_hits = sum(hit for hit, _ in verdicts["hard-ideal"])
    hb_hits = sum(hit for hit, _ in verdicts["hb-ideal"])
    assert hb_hits <= lockset_hits


def test_race_free_run_alarm_profile():
    """Clean toy run: flag/benign alarms only for ideal detectors."""
    program = build_workload("barnes", seed=0, params=TINY)
    trace = interleave(program, RandomScheduler(seed=5, max_burst=8)).trace
    lockset = run_core(make_detector("hard-ideal").core(), trace)
    # Workload sites are labelled ``<pattern>.<role>[#k]``.
    patterns = {
        (site.label or "").split(".", 1)[0].split("#", 1)[0]
        for site in lockset.reports.sites()
    }
    allowed = {"treeready", "stats", "cells"}
    assert patterns <= allowed, patterns
