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

from repro.api import detect
from repro.common.events import Site, Trace, lock, unlock, write
from repro.core.bloom import BloomMapper
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


@pytest.fixture(scope="module")
def raytrace_trace():
    program = build_workload("raytrace", seed=0)
    return interleave(program, RandomScheduler(seed=0, max_burst=8)).trace


class TestKernelKnobEquivalence:
    """The HARD kernel's own branches: every knob it reads, scalar ≡ batch."""

    @pytest.mark.parametrize(
        "overrides",
        (
            {"use_counter_register": False},
            {"broadcast_updates": False},
            {"barrier_reset": False},
            {"granularity": 4},
        ),
        ids=lambda overrides: "-".join(f"{k}={v}" for k, v in overrides.items()),
    )
    def test_knob_matches_scalar(self, raytrace_trace, overrides):
        config = DetectorConfig("hard-default", **overrides)
        session = EngineSession(raytrace_trace)
        session.add_config(config)
        (engine_result,) = session.run()
        assert session.path_taken == "batch"
        legacy = run_core(make_detector(config).core(), raytrace_trace)
        assert_identical(engine_result, legacy, repr(config))
        assert (
            engine_result.reports.dynamic_count == legacy.reports.dynamic_count
        ), repr(config)


#: Four locks whose signatures share exactly one Bloom bit (part 0's first
#: bit) and differ in the other three parts (Figure 4 mapping: address
#: bits 2..9, two per part).
SHARED_BIT_LOCKS = tuple(
    0x10000 | (k << 4) | (k << 6) | (k << 8) for k in range(4)
)


def saturation_trace() -> tuple[Trace, Site, Site]:
    """t1 writes X and Y under lock A; t0 nests A..D, then writes X and Y.

    t0's four acquires saturate the shared bit's 2-bit counter at 3.  It
    releases D and writes X still holding A, B and C: with the Counter
    Register the shared bit survives (counter 2), without it the naive
    clear empties part 0 and X races.  It then releases C and B and writes
    Y holding A: the saturated counter reaches 0, the bit is cleared
    though A is held, and Y races under both settings (the documented
    hardware approximation).
    """
    a, b, c, d = SHARED_BIT_LOCKS
    x, y = 0x2000, 0x3000
    site = Site("saturate.c", 1, "lock")
    site_x = Site("saturate.c", 10, "x")
    site_y = Site("saturate.c", 20, "y")
    trace = Trace(num_threads=2)
    for op in (lock(a, site), write(x, site), write(y, site), unlock(a, site)):
        trace.append(1, op)
    for addr in (a, b, c, d):
        trace.append(0, lock(addr, site))
    trace.append(0, unlock(d, site))
    trace.append(0, write(x, site_x))
    trace.append(0, unlock(c, site))
    trace.append(0, unlock(b, site))
    trace.append(0, write(y, site_y))
    trace.append(0, unlock(a, site))
    return trace, site_x, site_y


class TestCounterRegisterSaturation:
    """Nested locks sharing one Bloom bit: the two counter settings differ."""

    def test_locks_share_exactly_one_bit(self):
        mapper = BloomMapper()
        sigs = [mapper.signature(addr) for addr in SHARED_BIT_LOCKS]
        common = sigs[0]
        for sig in sigs[1:]:
            common &= sig
        assert common.bit_count() == 1
        for i, sig in enumerate(sigs):
            for other in sigs[i + 1 :]:
                assert (sig & other) == common

    @pytest.mark.parametrize("path", ("scalar", "batch"))
    def test_counter_settings_give_different_verdicts(self, path):
        trace, site_x, site_y = saturation_trace()
        with_counters = detect(trace, "hard-default", engine_path=path)
        naive = detect(
            trace, "hard-default", engine_path=path, use_counter_register=False
        )
        assert with_counters.alarm_sites() == {site_y}
        assert naive.alarm_sites() == {site_x, site_y}

    @pytest.mark.parametrize("use_counter_register", (True, False))
    def test_batch_matches_scalar(self, use_counter_register):
        trace, _, _ = saturation_trace()
        config = DetectorConfig(
            "hard-default", use_counter_register=use_counter_register
        )
        batch = detect(trace, config, engine_path="batch")
        legacy = run_core(make_detector(config).core(), trace)
        assert_identical(batch, legacy, repr(config))


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
