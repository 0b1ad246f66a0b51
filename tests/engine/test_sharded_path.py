"""The parallel walk: one configuration per task, bit-for-bit equal.

``path="sharded"`` runs each configuration's unchanged batch walk as one
task, in a worker process (or serially in-process with ``jobs=1``) that
maps the spilled columns and machine tapes, and returns the results in
add order.  These tests pin the whole contract: identical verdicts,
cycles, and stats against both the scalar reference and the
single-process batch walk — on a Table 2 cell (in process and across two
worker processes) and on every checked-in fuzz exemplar — plus the API
surface (the ``auto`` rule, gating errors, cache lifecycle) and the
persistent tape cache's simulate-once guarantee, which the workers share.
"""

import time
from pathlib import Path

import pytest

from repro.api import detect, detect_many
from repro.engine import EngineError, EngineSession, run_sharded
from repro.engine.tape import MachineTape
from repro.fuzz import load_case
from repro.fuzz.corpus import corpus_paths
from repro.harness.detectors import DetectorConfig, make_detector
from repro.harness.tracecache import TapeCache
from repro.obs import Observability, RecordingEmitter
from repro.threads.runtime import interleave
from repro.threads.scheduler import RandomScheduler
from repro.workloads.registry import build_workload

from tests.engine.test_batch_path import BATCH_KEYS, ScalarOnlyCore, result_key

CORPUS_DIR = Path(__file__).parent.parent / "fuzz" / "corpus"


@pytest.fixture(scope="module")
def trace():
    program = build_workload("raytrace", seed=3)
    return interleave(program, RandomScheduler(seed=5, max_burst=8)).trace


@pytest.fixture(scope="module")
def scalar_results(trace):
    return [
        result_key(r)
        for r in detect_many(trace, BATCH_KEYS, engine_path="scalar")
    ]


def sharded_keys(trace, *, jobs=1, keys=BATCH_KEYS):
    configs = [DetectorConfig.coerce(key) for key in keys]
    results = run_sharded(trace.columns(), configs, jobs=jobs)
    return [result_key(r) for r in results]


class TestParity:
    @pytest.mark.parametrize("n_configs", (1, 2, 3, 5))
    def test_serial_sharded_matches_scalar(self, trace, scalar_results, n_configs):
        # One task per config: any count comes back whole and in add order.
        keys = BATCH_KEYS[:n_configs]
        assert sharded_keys(trace, keys=keys) == scalar_results[:n_configs]

    def test_sharded_matches_batch(self, trace):
        batch = detect_many(trace, BATCH_KEYS, engine_path="batch")
        assert sharded_keys(trace) == [result_key(r) for r in batch]

    def test_worker_processes_match_scalar(self, trace, scalar_results):
        # Two real worker processes pull the configs off one queue.
        assert sharded_keys(trace, jobs=2) == scalar_results

    def test_session_worker_processes_match_scalar(self, trace, scalar_results):
        session = EngineSession(trace, path="sharded", jobs=2)
        for key in BATCH_KEYS:
            session.add_config(DetectorConfig.coerce(key))
        assert [result_key(r) for r in session.run()] == scalar_results
        assert session.path_taken == "sharded"

    def test_session_path_sharded(self, trace, scalar_results):
        session = EngineSession(trace, path="sharded", jobs=1)
        for key in BATCH_KEYS:
            session.add_config(DetectorConfig.coerce(key))
        assert [result_key(r) for r in session.run()] == scalar_results

    def test_facade_engine_path(self, trace):
        a = detect(trace, "hard-default", engine_path="sharded")
        b = detect(trace, "hard-default", engine_path="scalar")
        assert result_key(a) == result_key(b)


class TestCorpusExemplars:
    @pytest.mark.parametrize(
        "path", corpus_paths(CORPUS_DIR), ids=lambda p: p.stem
    )
    def test_exemplar_sharded_equals_scalar(self, path):
        case = load_case(path)
        scheduler = RandomScheduler(seed=case.schedule_seed, max_burst=8)
        trace = interleave(case.program, scheduler).trace
        scalar = [
            result_key(r)
            for r in detect_many(trace, BATCH_KEYS, engine_path="scalar")
        ]
        assert sharded_keys(trace) == scalar, path.stem


def _spill_in_fresh_worker(_task) -> str:
    # A pool worker forked after this process spilled inherits its spill
    # directory; forget it so the worker makes and owns one of its own.
    import repro.engine.shard as shard_module

    shard_module._SPILL_DIR = None
    return str(shard_module._spill_dir())


class TestSpillLifetime:
    def test_pool_worker_removes_its_spill_dir_at_exit(self):
        # A grid or fuzz worker walking sharded with jobs=1 spills in the
        # worker, which exits without running atexit handlers.
        from repro.harness.parallel import fan_out

        paths = fan_out((0, 1), _spill_in_fresh_worker, jobs=2)
        assert len(paths) == 2
        # The pool's workers exit (and run their finalizers) after
        # fan_out returns, so give them a bounded moment.
        deadline = time.monotonic() + 30
        while any(Path(path).exists() for path in paths):
            assert time.monotonic() < deadline, f"spill dirs left: {paths}"
            time.sleep(0.05)


class TestSelectionAndGating:
    def test_auto_picks_sharded_above_threshold(self, trace, monkeypatch):
        calls = []
        import repro.engine.shard as shard_module

        real = shard_module.run_sharded

        def spy(*args, **kwargs):
            calls.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(shard_module, "run_sharded", spy)
        monkeypatch.setattr(shard_module, "SHARD_THRESHOLD", 1)
        keys = ("hard-default", "hb-ideal", "software")
        session = EngineSession(trace, path="auto", jobs=2)
        for key in keys:
            session.add_config(DetectorConfig.coerce(key))
        results = session.run()
        assert calls, "auto did not select the sharded path"
        assert session.path_taken == "sharded"
        assert [result_key(r) for r in results] == [
            result_key(r) for r in detect_many(trace, keys, engine_path="scalar")
        ]

    def test_auto_stays_single_process_below_threshold(self, trace, monkeypatch):
        import repro.engine.shard as shard_module

        def boom(*args, **kwargs):
            raise AssertionError("sharded path taken below threshold")

        monkeypatch.setattr(shard_module, "run_sharded", boom)
        monkeypatch.setattr(shard_module, "SHARD_THRESHOLD", len(trace) + 1)
        session = EngineSession(trace, path="auto", jobs=2)
        for key in ("hard-default", "hb-ideal", "software"):
            session.add_config(DetectorConfig.coerce(key))
        session.run()
        assert session.path_taken == "batch"

    @pytest.mark.parametrize("n_configs", (1, 2))
    def test_auto_walks_batch_below_min_configs(self, trace, monkeypatch, n_configs):
        # One config is one task, and a second walk does not cover the
        # fan-out (the numbers sit next to SHARD_MIN_CONFIGS).
        import repro.engine.shard as shard_module

        assert n_configs < shard_module.SHARD_MIN_CONFIGS
        monkeypatch.setattr(shard_module, "SHARD_THRESHOLD", 1)
        session = EngineSession(trace, path="auto", jobs=2)
        for key in BATCH_KEYS[:n_configs]:
            session.add_config(DetectorConfig.coerce(key))
        session.run()
        assert (session.path_taken, session.fallback) == ("batch", None)

    def test_sharded_rejects_active_observability(self, trace):
        obs = Observability(emitter=RecordingEmitter())
        session = EngineSession(trace, obs=obs, path="sharded")
        session.add_config(DetectorConfig.coerce("hard-default"))
        with pytest.raises(EngineError):
            session.run()

    def test_sharded_demands_config_registration(self, trace):
        session = EngineSession(trace, path="sharded")
        session.add(make_detector(DetectorConfig.coerce("hard-default")))
        with pytest.raises(EngineError, match="add_config"):
            session.run()

    def test_sharded_demands_batch_capable_cores(self, trace):
        # The missing batch kernel is named before the add_config rule.
        session = EngineSession(trace, path="sharded")
        session.add_config(DetectorConfig.coerce("hard-default"))
        session.add_core(ScalarOnlyCore())
        with pytest.raises(EngineError, match=r'scalar-only; run them with path="scalar"'):
            session.run()

    def test_unknown_path_still_rejected(self, trace):
        with pytest.raises(EngineError):
            EngineSession(trace, path="shards")


@pytest.fixture
def fresh_trace(trace):
    """The module trace with no memoised columns before or after the test.

    Closing a :class:`TapeCache` invalidates tapes it loaded, so tests
    that close caches must not leak mmap-backed tapes into the memo that
    other tests share.
    """
    trace._columnar = None
    yield trace
    trace._columnar = None


class TestTapeCache:
    def test_warm_cache_skips_simulation(self, fresh_trace, tmp_path, monkeypatch):
        trace = fresh_trace
        cols = trace.columns()
        core = make_detector(DetectorConfig.coerce("hard-default")).core()
        machine_config = core.machine_config
        cache = TapeCache(tmp_path)

        cold = MachineTape.for_columns(cols, machine_config, cache=cache)
        assert cache.stores == 1 and cache.hits == 0

        def no_simulation(self, *args, **kwargs):
            raise AssertionError("machine re-simulated despite a warm cache")

        monkeypatch.setattr(MachineTape, "__init__", no_simulation)
        warm_cols = trace.columns()
        warm_cols._tapes = {}  # defeat the in-memory memo, keep the digest
        warm = MachineTape.for_columns(warm_cols, machine_config, cache=cache)
        assert cache.hits == 1
        assert warm.machine_cycles == cold.machine_cycles
        assert bytes(warm.hook_code) == bytes(
            cold.hook_code.tobytes()
            if hasattr(cold.hook_code, "tobytes")
            else cold.hook_code
        )
        cache.close()

    def test_cache_hit_results_identical(self, fresh_trace, tmp_path):
        trace = fresh_trace
        keys = ("hard-default", "hb-default")
        cache = TapeCache(tmp_path)
        configs = [DetectorConfig.coerce(key) for key in keys]

        def run_with_cache():
            session = EngineSession(trace.columns(), path="batch", tape_cache=cache)
            for config in configs:
                session.add_config(config)
            return [result_key(r) for r in session.run()]

        cold = run_with_cache()
        trace._columnar = None  # force fresh columns: only the disk cache persists
        warm = run_with_cache()
        assert cold == warm
        assert cache.hits >= 1
        cache.close()

    def test_sharded_run_uses_cache(self, fresh_trace, tmp_path, monkeypatch):
        import repro.engine.shard as shard_module

        # Workers map the tape cache's own entries: no second spill copy.
        mapped = []
        real_init = shard_module._shard_init

        def spy_init(spec):
            mapped.extend(Path(path).parent for _, path in spec.tape_paths)
            real_init(spec)

        monkeypatch.setattr(shard_module, "_shard_init", spy_init)
        trace = fresh_trace
        cache = TapeCache(tmp_path)
        configs = [DetectorConfig.coerce("hard-default")]
        cols = trace.columns()
        first = run_sharded(cols, configs, jobs=1, tape_cache=cache)
        assert cache.stores == 1
        assert mapped == [tmp_path]
        cols._tapes = {}
        second = run_sharded(cols, configs, jobs=1, tape_cache=cache)
        assert cache.hits >= 1
        assert [result_key(r) for r in first] == [result_key(r) for r in second]
        cache.close()

    def test_disabled_cache_is_inert(self, fresh_trace):
        cache = TapeCache(None)
        cols = fresh_trace.columns()
        machine_config = make_detector(
            DetectorConfig.coerce("hard-default")
        ).core().machine_config
        assert not cache.enabled
        assert cache.load(cols, machine_config) is None
        tape = MachineTape.for_columns(cols, machine_config, cache=cache)
        assert cache.store(cols, tape) is None
        assert cache.clear() == 0


class TestCloseLifecycle:
    def test_session_close_releases_tapes(self, fresh_trace):
        cols = fresh_trace.columns()
        session = EngineSession(cols, path="batch")
        session.add_config(DetectorConfig.coerce("hard-default"))
        session.run()
        assert cols._tapes
        session.close()
        assert not cols._tapes

    def test_tape_cache_close_releases_mmaps(self, fresh_trace, tmp_path):
        cache = TapeCache(tmp_path)
        cols = fresh_trace.columns()
        machine_config = make_detector(
            DetectorConfig.coerce("hard-default")
        ).core().machine_config
        MachineTape.for_columns(cols, machine_config, cache=cache)
        cols._tapes = {}
        loaded = cache.load(cols, machine_config)
        assert loaded is not None and loaded._buffer is not None
        cache.close()  # must not raise BufferError over exported views
        assert loaded._buffer is None
        loaded.close()  # idempotent
