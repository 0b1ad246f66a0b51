"""The vectorized batch path: bit-for-bit equal to the scalar reference.

The engine's ``path`` knob selects the walk — ``"scalar"`` is the
per-event reference oracle, ``"batch"`` the vectorized kernels over the
columnar encoding, ``"auto"`` picks batch unless per-event observability
is active.  Every registered key has a batch kernel; a custom core
without one runs on ``"scalar"`` only.  These tests pin the API contract
(selection, error cases) and the core guarantee: identical verdicts,
cycles, and stats either way, on a Table 2 cell and on every checked-in
fuzz-corpus exemplar.
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
from repro.harness.detectors import DETECTOR_KEYS, DetectorConfig, make_detector
from repro.hybrids.multilock import MultiLockHBDetector
from repro.obs import FlightRecorder, Observability, RecordingEmitter
from repro.threads.runtime import interleave
from repro.threads.scheduler import RandomScheduler
from repro.workloads.registry import build_workload

CORPUS_DIR = Path(__file__).parent.parent / "fuzz" / "corpus"

#: The Table 2 cell shape the smoke test replays (a seconds-scale app).
TABLE2_DETECTORS = ("hard-default", "hb-default", "software", "hb-ideal")

#: Every registered detector key; each has a batch kernel.
BATCH_KEYS = DETECTOR_KEYS


class ScalarOnlyCore:
    """A custom core with the scalar protocol only (no ``begin_batch``).

    It delegates to a registered key's core, so its scalar result is that
    key's; ``name`` is its own so error messages can be told apart.
    """

    name = "scalar-only"

    def __init__(self, key: str = "hb-ideal"):
        self._inner = make_detector(key).core()
        self.machine_config = self._inner.machine_config

    def begin(self, trace, obs=None):
        self._inner.begin(trace, obs=obs)

    def step(self, event):
        self._inner.step(event)

    def finish(self):
        return self._inner.finish()


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

    @pytest.mark.parametrize("key", DETECTOR_KEYS)
    def test_registered_key_has_a_batch_kernel(self, key):
        # The batch walk takes every core or none: a registered key
        # without the batch protocol would make every default run raise.
        core = make_detector(key).core()
        for method in ("begin_batch", "step_batch", "finish_batch"):
            assert callable(getattr(core, method, None)), (key, method)

    def test_batch_demands_capable_cores(self, trace):
        # A core without a batch kernel: path="batch" refuses by name,
        # even next to batch-capable cores...
        session = EngineSession(trace, path="batch")
        session.add_config(DetectorConfig.coerce("hard-default"))
        session.add_core(ScalarOnlyCore())
        with pytest.raises(EngineError, match=r'scalar-only; run them with path="scalar"'):
            session.run()

    def test_auto_falls_back_for_incapable_cores(self, trace):
        # ...and so does "auto": no session splits its cores between
        # walks.  path="scalar" runs the core, with its key's result.
        session = EngineSession(trace)
        session.add_core(ScalarOnlyCore())
        with pytest.raises(EngineError, match="scalar-only"):
            session.run()
        session = EngineSession(trace, path="scalar")
        session.add_core(ScalarOnlyCore())
        [result] = session.run()
        assert session.path_taken == "scalar"
        assert session.fallback is None
        assert result_key(result) == result_key(detect(trace, "hb-ideal"))

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

