"""Bit-for-bit equivalence: one engine session vs per-detector run_core.

The engine's contract is that walking many detectors in one session is
*invisible* in the results: every detector produces exactly the
``DetectionResult`` that ``run_core`` produces for its core alone — same
dynamic reports in the same order, same alarm sites, same cycle
accounting, same stat counters.  The session runs on ``"auto"``, so every
batch-capable key is checked against the scalar loop here.  These tests
pin that contract over harness workloads, over the sweep surface's
non-default configurations, and over every checked-in fuzz corpus
exemplar (the traces the differential oracle found interesting).
"""

from pathlib import Path

import pytest

from repro.engine import EngineSession
from repro.fuzz.corpus import corpus_paths, load_case
from repro.harness.detectors import DETECTOR_KEYS, DetectorConfig, make_detector
from repro.threads.runtime import interleave
from repro.threads.scheduler import RandomScheduler
from repro.workloads.registry import build_workload
from repro.reporting import run_core

CORPUS_DIR = Path(__file__).parent.parent / "fuzz" / "corpus"

#: Harness workloads exercised by the full detector matrix.  Two suffice to
#: cover both barrier-heavy and lock-heavy signatures; the corpus exemplars
#: below cover the adversarial corner cases.
WORKLOADS = ("raytrace", "barnes")


def _report_rows(result):
    """The order-sensitive identity of every dynamic report."""
    return [
        (r.seq, r.thread_id, r.addr, r.size, r.site, r.is_write, r.detail)
        for r in result.reports
    ]


def assert_identical(engine_result, legacy_result, context):
    """Engine and legacy results must match field for field."""
    assert engine_result.detector == legacy_result.detector, context
    assert _report_rows(engine_result) == _report_rows(legacy_result), context
    assert engine_result.alarm_sites() == legacy_result.alarm_sites(), context
    assert engine_result.cycles == legacy_result.cycles, context
    assert (
        engine_result.detector_extra_cycles
        == legacy_result.detector_extra_cycles
    ), context
    assert (
        engine_result.stats.snapshot() == legacy_result.stats.snapshot()
    ), context


def _compare_all_keys(trace, context):
    """Run every detector key both ways over ``trace`` and compare."""
    session = EngineSession(trace)
    for key in DETECTOR_KEYS:
        session.add_config(DetectorConfig(key))
    engine_results = session.run()
    for key, engine_result in zip(DETECTOR_KEYS, engine_results):
        legacy = run_core(make_detector(DetectorConfig(key)).core(), trace)
        assert_identical(engine_result, legacy, f"{context}:{key}")


class TestWorkloadEquivalence:
    """All seven detector keys over interleaved harness workloads."""

    @pytest.mark.parametrize("app", WORKLOADS)
    def test_engine_matches_legacy(self, app):
        program = build_workload(app, seed=0)
        trace = interleave(program, RandomScheduler(seed=0, max_burst=8)).trace
        _compare_all_keys(trace, app)

    def test_overrides_preserved_through_engine(self):
        # Non-default configurations (the sweep surface) must round-trip
        # too: granularity, vector width and L2 size all change behaviour.
        program = build_workload("raytrace", seed=0)
        trace = interleave(program, RandomScheduler(seed=0, max_burst=8)).trace
        configs = [
            DetectorConfig("hard-default", granularity=8),
            DetectorConfig("hard-default", vector_bits=256),
            DetectorConfig("hard-default", l2_size=4 * 1024 * 1024),
            DetectorConfig("hb-default", broadcast_updates=True),
        ]
        session = EngineSession(trace)
        for config in configs:
            session.add_config(config)
        engine_results = session.run()
        for config, engine_result in zip(configs, engine_results):
            legacy = run_core(make_detector(config).core(), trace)
            assert_identical(engine_result, legacy, repr(config))


class TestCorpusEquivalence:
    """All seven detector keys over every checked-in fuzz exemplar.

    The corpus holds shrunk reproducers of real detector divergences
    (Bloom collisions, L2 displacement, false sharing…) — exactly the
    traces where a subtle engine/legacy drift would hide.
    """

    def test_corpus_is_present(self):
        assert len(corpus_paths(CORPUS_DIR)) >= 6

    @pytest.mark.parametrize(
        "path", corpus_paths(CORPUS_DIR), ids=lambda p: p.stem
    )
    def test_engine_matches_legacy(self, path):
        case = load_case(path)
        # Reinterleave under the saved schedule exactly as the oracle does
        # (OracleConfig.schedule_min_burst/max_burst defaults).
        scheduler = RandomScheduler(
            seed=case.schedule_seed, min_burst=1, max_burst=8
        )
        trace = interleave(case.program, scheduler).trace
        _compare_all_keys(trace, path.stem)
