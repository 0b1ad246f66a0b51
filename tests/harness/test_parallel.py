"""Tests for the parallel experiment engine and its serial equivalence.

The load-bearing guarantee: a grid evaluated with ``jobs=N`` produces
bit-for-bit the same outcomes — and the same on-disk cache contents — as
``jobs=1``, because workers run the identical pure cell function with the
identical derived seeds.
"""

import json
import os
import pickle
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.common.rng import derive_seed
from repro.harness.detectors import DetectorConfig, config_signature
from repro.harness.experiment import CLEAN_RUN, ExperimentRunner, schedule_seed_for
from repro.harness.parallel import (
    GridCell,
    WorkerSpec,
    fan_out,
    plan_chunks,
    run_grid,
)
from repro.harness.tracecache import TraceCache
from repro.obs.metrics import MetricsRegistry

APP = "raytrace"
#: Trace-only detectors keep the multi-process tests fast.
FAST_CONFIGS = (DetectorConfig(key="hard-ideal"), DetectorConfig(key="hb-ideal"))


def small_grid(runs=(CLEAN_RUN, 0)):
    return [
        GridCell(APP, run, config) for config in FAST_CONFIGS for run in runs
    ]


class TestPicklability:
    def test_cell_and_spec_round_trip(self):
        cell = GridCell(APP, 3, DetectorConfig(key="hard-default", granularity=8))
        spec = WorkerSpec(workload_seed=1, cache_dir="/tmp/x", trace_cache_dir=None)
        assert pickle.loads(pickle.dumps(cell)) == cell
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_cell_signature_matches_config(self):
        cell = GridCell(APP, 0, DetectorConfig(key="hb-default", l2_size=131072))
        assert cell.signature == config_signature("hb-default", l2_size=131072)


class TestChunking:
    def test_groups_by_execution(self):
        chunks = plan_chunks(small_grid(runs=(CLEAN_RUN, 0, 1)))
        assert [(app, run) for app, run, _ in chunks] == [
            (APP, CLEAN_RUN),
            (APP, 0),
            (APP, 1),
        ]
        for _, _, configs in chunks:
            assert set(configs) == set(FAST_CONFIGS)

    def test_deduplicates_cells(self):
        cells = small_grid() + small_grid()
        chunks = plan_chunks(cells)
        assert sum(len(configs) for _, _, configs in chunks) == len(small_grid())

    def test_order_is_deterministic(self):
        cells = small_grid(runs=(1, CLEAN_RUN, 0))
        assert plan_chunks(cells) == plan_chunks(list(reversed(cells)))


class TestSeedDeterminism:
    def test_schedule_seed_is_pure(self):
        a = schedule_seed_for("barnes", 0, 3)
        b = schedule_seed_for("barnes", 0, 3)
        assert a == b

    def test_schedule_seed_distinguishes_cells(self):
        seeds = {
            schedule_seed_for(app, seed, run)
            for app in ("barnes", "ocean")
            for seed in (0, 1)
            for run in (CLEAN_RUN, 0, 1)
        }
        assert len(seeds) == 12

    def test_matches_derive_seed_contract(self):
        assert schedule_seed_for("fmm", 0, 2) == derive_seed("schedule", "fmm", 0, 2)


class TestTraceCache:
    def test_round_trip(self, tmp_path):
        runner = ExperimentRunner(cache_dir=tmp_path)
        trace = runner.trace_for(APP, CLEAN_RUN)
        # A second runner over the same cache dir loads instead of rebuilding.
        runner2 = ExperimentRunner(cache_dir=tmp_path)
        again = runner2.trace_for(APP, CLEAN_RUN)
        assert runner2.trace_cache.hits == 1
        assert len(again) == len(trace)
        assert [e.op for e in again.events[:50]] == [e.op for e in trace.events[:50]]

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = TraceCache(tmp_path)
        runner = ExperimentRunner(cache_dir=None)
        trace = runner.trace_for(APP, CLEAN_RUN)
        cache.store(trace, APP, CLEAN_RUN, "k")
        path = cache.path_for(APP, CLEAN_RUN, "k")
        path.write_bytes(path.read_bytes()[: len(path.read_bytes()) // 2])
        assert cache.load(APP, CLEAN_RUN, "k") is None
        # The corrupt file was dropped, so a fresh store works again.
        cache.store(trace, APP, CLEAN_RUN, "k")
        assert cache.load(APP, CLEAN_RUN, "k") is not None

    def test_disabled_cache_is_inert(self):
        cache = TraceCache(None)
        assert not cache.enabled
        assert cache.load("a", 0) is None
        assert cache.clear() == 0

    def test_no_temp_files_left(self, tmp_path):
        runner = ExperimentRunner(cache_dir=tmp_path)
        runner.trace_for(APP, CLEAN_RUN)
        assert list(tmp_path.rglob("*.tmp")) == []

    def test_key_distinguishes_parts(self, tmp_path):
        cache = TraceCache(tmp_path)
        assert cache.path_for("a", 0, 1) != cache.path_for("a", 0, 2)
        assert cache.path_for("a", 0, 1) != cache.path_for("a", 1, 1)


class TestSerialParallelEquivalence:
    @pytest.fixture(scope="class")
    def grids(self, tmp_path_factory):
        serial_dir = tmp_path_factory.mktemp("serial")
        parallel_dir = tmp_path_factory.mktemp("parallel")
        cells = small_grid()
        serial = run_grid(cells, jobs=1, cache_dir=serial_dir)
        parallel = run_grid(cells, jobs=2, cache_dir=parallel_dir)
        return serial, parallel, serial_dir, parallel_dir

    def test_outcomes_identical(self, grids):
        serial, parallel, _, _ = grids
        assert serial.outcomes == parallel.outcomes

    def test_canonical_order(self, grids):
        _, parallel, _, _ = grids
        keys = [(o.app, o.run, o.detector) for o in parallel.outcomes]
        assert keys == sorted(keys)

    def test_cache_contents_identical(self, grids):
        _, _, serial_dir, parallel_dir = grids
        serial_files = {p.name: p.read_text() for p in serial_dir.glob("*.json")}
        parallel_files = {p.name: p.read_text() for p in parallel_dir.glob("*.json")}
        assert serial_files == parallel_files
        assert serial_files  # the grid actually cached something

    def test_merged_metrics_cover_grid(self, grids):
        serial, parallel, _, _ = grids
        for report in (serial, parallel):
            assert report.metrics.get("grid.cells") == len(small_grid())
            assert report.metrics.get("harness.cells_evaluated") == len(small_grid())

    def test_report_serialises(self, grids):
        _, parallel, _, _ = grids
        payload = json.dumps(parallel.to_dict())
        data = json.loads(payload)
        assert data["jobs"] == 2
        assert len(data["outcomes"]) == len(small_grid())


class TestOutcomes:
    def test_parallel_outcomes_match_serial(self, tmp_path):
        cells = small_grid(runs=(CLEAN_RUN, 0))
        parallel = ExperimentRunner(cache_dir=tmp_path / "p", runs=1, jobs=2)
        serial = ExperimentRunner(cache_dir=tmp_path / "s", runs=1, jobs=1)
        got = parallel.outcomes(cells)
        assert set(got) == set(cells)
        assert got == serial.outcomes(cells)
        assert parallel.metrics.get("grid.cells") == len(cells)
        # Every later request is a memo hit: no further evaluation.
        before = parallel.metrics.get("harness.cells_evaluated")
        assert parallel.outcomes(cells) == got
        assert parallel.metrics.get("harness.cells_evaluated") == before

    def test_outcomes_skip_known_cells(self, tmp_path):
        runner = ExperimentRunner(cache_dir=tmp_path, runs=1, jobs=2)
        runner.outcomes(small_grid(runs=(CLEAN_RUN,)))
        runner.outcomes(small_grid(runs=(CLEAN_RUN, 0)))
        # The second call evaluated only the injected run's cells.
        assert runner.metrics.get("harness.cells_evaluated") == len(small_grid())
        assert runner.metrics.get("grid.cells") == len(small_grid())

    def test_serial_outcomes_warm_memo(self, tmp_path):
        runner = ExperimentRunner(cache_dir=tmp_path, runs=1, jobs=1)
        cells = small_grid(runs=(CLEAN_RUN,))
        first = runner.outcomes(cells + cells)
        assert list(first) == cells
        evaluated = runner.metrics.get("harness.cells_evaluated")
        assert evaluated == len(FAST_CONFIGS)
        for cell in cells:
            again = runner.run_detector(cell.app, cell.run, cell.config)
            assert again == first[cell]
        assert runner.metrics.get("harness.cells_evaluated") == evaluated


class TestMetricsMerge:
    def test_merges_counters_histograms_timers(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.add("x", 2)
        b.add("x", 3)
        a.observe("h", 1.0)
        b.observe("h", 5.0)
        b.observe("h", 5.0)
        a.timer("t").observe(0.5)
        b.timer("t").observe(1.5)
        a.merge_registry(b)
        assert a.get("x") == 5
        hist = a.histogram("h")
        assert hist.count == 3 and hist.min == 1.0 and hist.max == 5.0
        assert hist.values() == {1.0: 1, 5.0: 2}
        timer = a.timer("t")
        assert timer.count == 2 and timer.total_s == 2.0

    def test_merge_is_order_independent(self):
        def shard(values):
            reg = MetricsRegistry()
            for v in values:
                reg.add("n")
                reg.observe("h", v)
            return reg

        left = MetricsRegistry()
        left.merge_registry(shard([1, 2]))
        left.merge_registry(shard([3]))
        right = MetricsRegistry()
        right.merge_registry(shard([3]))
        right.merge_registry(shard([1, 2]))
        assert left.snapshot_all() == right.snapshot_all()


def _reject_odd(task):
    """A fan-out worker that raises on odd tasks (a plain Python error)."""
    if task % 2:
        raise ValueError(f"odd task {task}")
    return task


#: A fan-out in which one of four tasks kills its worker process outright.
DEAD_WORKER_PROBE = textwrap.dedent(
    """
    import os
    import sys

    from repro.common.errors import HarnessError
    from repro.harness.parallel import fan_out


    def task(n):
        if n == 2:
            os._exit(9)
        return n


    if __name__ == "__main__":
        try:
            fan_out([0, 1, 2, 3], task, jobs=2)
        except HarnessError as exc:
            print(exc)
            sys.exit(0)
        sys.exit(1)
    """
)


class TestFanOutFailsClosed:
    def test_dead_worker_raises_instead_of_hanging(self, tmp_path):
        # Run in a subprocess under a timeout, so a fan-out that waits
        # forever for the lost task fails this test instead of hanging it.
        probe = tmp_path / "probe.py"
        probe.write_text(DEAD_WORKER_PROBE)
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (src, env.get("PYTHONPATH")))
        )
        proc = subprocess.run(
            [sys.executable, str(probe)],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "a worker process died" in proc.stdout
        assert "-j 1" in proc.stdout

    def test_worker_exception_propagates_unchanged(self):
        with pytest.raises(ValueError, match="odd task"):
            fan_out([0, 1, 2, 3], _reject_odd, jobs=2)
