"""The vectorized batch path: bit-for-bit equal to the scalar reference.

The engine's ``path`` knob selects the walk — ``"scalar"`` is the
per-event reference oracle, ``"batch"`` the vectorized kernels over the
columnar encoding, ``"auto"`` picks batch whenever every core supports it.
These tests pin the API contract (selection, error cases, mixed sessions)
and the core guarantee: identical verdicts, cycles, and stats either way,
on a Table 2 cell and on every checked-in fuzz-corpus exemplar.
"""

from pathlib import Path

import pytest

from repro.api import detect, detect_many
from repro.common.coltrace import ColumnarTrace
from repro.common.errors import DetectorError
from repro.common.events import Site, Trace, read, unlock
from repro.engine import EngineError, EngineSession
from repro.fuzz import load_case
from repro.fuzz.corpus import corpus_paths
from repro.harness.detectors import DetectorConfig, make_detector
from repro.hybrids.multilock import MultiLockHBDetector
from repro.obs import FlightRecorder, Observability, RecordingEmitter
from repro.threads.runtime import interleave
from repro.threads.scheduler import RandomScheduler
from repro.workloads.registry import build_workload

CORPUS_DIR = Path(__file__).parent.parent / "fuzz" / "corpus"

#: The Table 2 cell shape the smoke test replays (a seconds-scale app).
TABLE2_DETECTORS = ("hard-default", "hb-default", "software", "hb-ideal")

#: Every batch-capable detector key.
BATCH_KEYS = (
    "hard-default",
    "hard-ideal",
    "hb-default",
    "hb-ideal",
    "software",
    "fasttrack",
    "acculock",
    "multilock-hb",
)


def result_key(result) -> tuple:
    """Everything that must match for two results to count as identical."""
    return (
        result.detector,
        tuple(
            (r.seq, r.thread_id, r.addr, r.size, r.site, r.is_write, r.detail)
            for r in result.reports
        ),
        result.cycles,
        result.detector_extra_cycles,
        tuple(sorted(result.stats.snapshot().items())),
    )


@pytest.fixture(scope="module")
def trace():
    program = build_workload("raytrace", seed=3)
    return interleave(program, RandomScheduler(seed=5, max_burst=8)).trace


class TestTable2CellSmoke:
    def test_batch_and_scalar_verdicts_identical(self, trace):
        scalar = detect_many(trace, TABLE2_DETECTORS, engine_path="scalar")
        batch = detect_many(trace, TABLE2_DETECTORS, engine_path="batch")
        assert [result_key(r) for r in scalar] == [result_key(r) for r in batch]

    def test_auto_matches_scalar(self, trace):
        auto = detect_many(trace, TABLE2_DETECTORS)
        scalar = detect_many(trace, TABLE2_DETECTORS, engine_path="scalar")
        assert [result_key(r) for r in auto] == [result_key(r) for r in scalar]

    def test_single_detector_facade(self, trace):
        a = detect(trace, "hard-default", engine_path="batch")
        b = detect(trace, "hard-default", engine_path="scalar")
        assert result_key(a) == result_key(b)


class TestColumnarInput:
    def test_session_accepts_columns(self, trace):
        cols = trace.columns()
        from_cols = detect_many(cols, TABLE2_DETECTORS, engine_path="batch")
        from_trace = detect_many(trace, TABLE2_DETECTORS, engine_path="scalar")
        assert [result_key(r) for r in from_cols] == [
            result_key(r) for r in from_trace
        ]

    def test_serialized_columns_round_trip_through_engine(self, trace):
        cols = ColumnarTrace.from_bytes(trace.columns().to_bytes())
        a = detect(cols, "hb-ideal", engine_path="batch")
        b = detect(trace, "hb-ideal", engine_path="scalar")
        assert result_key(a) == result_key(b)


class TestPathSelection:
    def test_every_key_matches_scalar(self, trace):
        for key in BATCH_KEYS:
            a = detect(trace, key, engine_path="batch")
            b = detect(trace, key, engine_path="scalar")
            assert result_key(a) == result_key(b), key

    def test_unknown_path_rejected(self, trace):
        with pytest.raises(EngineError):
            EngineSession(trace, path="vectorized")

    def test_batch_demands_capable_cores(self, trace):
        # hybrid has no batch kernels: path="batch" must refuse loudly...
        session = EngineSession(trace, path="batch")
        session.add_config(DetectorConfig.coerce("hybrid"))
        with pytest.raises(EngineError):
            session.run()

    def test_auto_falls_back_for_incapable_cores(self, trace):
        # ...while "auto" silently walks them on the scalar path.
        a = detect(trace, "hybrid")
        b = detect(trace, "hybrid", engine_path="scalar")
        assert result_key(a) == result_key(b)

    def test_mixed_session_matches_scalar(self, trace):
        keys = ("hard-default", "hybrid", "hb-ideal")
        mixed = detect_many(trace, keys)
        scalar = detect_many(trace, keys, engine_path="scalar")
        assert [result_key(r) for r in mixed] == [result_key(r) for r in scalar]

    def test_batch_rejects_active_observability(self, trace):
        obs = Observability(emitter=RecordingEmitter())
        session = EngineSession(trace, obs=obs, path="batch")
        session.add_config(DetectorConfig.coerce("hard-default"))
        with pytest.raises(EngineError):
            session.run()

    def test_auto_with_recorder_still_matches(self, trace):
        # A flight recorder rides the batch walk under "auto"; results
        # must still be the scalar reference results.
        session = EngineSession(trace, obs=Observability(telemetry=FlightRecorder()))
        session.add_config(DetectorConfig.coerce("hard-default"))
        observed = session.run()
        assert session.path_taken == "batch"
        plain = detect_many(trace, ("hard-default",), engine_path="scalar")
        assert result_key(observed[0]) == result_key(plain[0])


class TestCorpusExemplars:
    @pytest.mark.parametrize(
        "path", corpus_paths(CORPUS_DIR), ids=lambda p: p.stem
    )
    def test_exemplar_batch_equals_scalar(self, path):
        case = load_case(path)
        scheduler = RandomScheduler(seed=case.schedule_seed, max_burst=8)
        trace = interleave(case.program, scheduler).trace
        for key in BATCH_KEYS:
            a = detect(trace, key, engine_path="batch")
            b = detect(trace, key, engine_path="scalar")
            assert result_key(a) == result_key(b), (path.stem, key)
        # The MultiLock-HB ablations the fuzz oracle and the conformance
        # harness build, which no registry key reaches.
        for ablation in ({"use_weak_hb": False}, {"barrier_reset": False}):
            a, b = (
                run_detector(trace, MultiLockHBDetector(**ablation), path)
                for path in ("batch", "scalar")
            )
            assert result_key(a) == result_key(b), (path.stem, ablation)


def run_detector(trace, detector, path):
    """One detector instance over ``trace`` on the given engine path."""
    session = EngineSession(trace, path=path)
    session.add(detector)
    return session.run()[0]


class TestUnbalancedRelease:
    @pytest.mark.parametrize("path", ("scalar", "batch", "sharded"))
    @pytest.mark.parametrize(
        "key", ("hard-ideal", "software", "acculock", "multilock-hb")
    )
    def test_release_of_untaken_lock_names_it(self, key, path):
        site = Site("release.c", 1, "release")
        trace = Trace(num_threads=1)
        trace.append(0, read(0x2000, site))
        trace.append(0, unlock(0x1000, site))
        with pytest.raises(
            DetectorError, match=r"^t0 released lock 0x1000 it never took$"
        ):
            detect(trace, key, engine_path=path)


class TestDeprecatedRunShim:
    def test_run_warns_and_still_works(self, trace):
        detector = make_detector("hard-default")
        with pytest.warns(DeprecationWarning, match="detect_with_engine"):
            legacy = detector.run(trace)
        modern = detect(trace, "hard-default", engine_path="scalar")
        assert result_key(legacy) == result_key(modern)

    @pytest.mark.parametrize(
        "key", ("hard-ideal", "hb-default", "hb-ideal", "software", "hybrid")
    )
    def test_every_detector_run_warns(self, key, trace):
        with pytest.warns(DeprecationWarning):
            make_detector(key).run(trace)
