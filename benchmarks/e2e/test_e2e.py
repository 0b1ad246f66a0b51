"""Self-test of the end-to-end benchmark (not part of the tier-1 suite).

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e.py -q

Every workload runs here on a one-cell list of a small program, so the
whole file takes seconds, not minutes.
"""

from __future__ import annotations

import json

import pytest

import compare
import run
import speed
from spans import Span, self_times

SMALL_TABLE2 = [("radix", run.CLEAN_RUN)]
SMALL_MANYCORE = [("fuzz:3", 4, "directory", 0)]


def _spec() -> dict:
    return json.loads(run.SPEC_PATH.read_text())


def _cache_snapshot() -> dict:
    cache = run.ROOT / "results" / "cache"
    return {
        str(path.relative_to(cache)): (path.stat().st_size, path.stat().st_mtime_ns)
        for path in cache.rglob("*")
    }


@pytest.fixture
def measure():
    """``measure(name, trace, scratch)``: one run of a workload, as run.py makes it."""
    with speed.SpeedMeter() as meter:
        common = (run.perf(), run.perf())
        # run.py's golden gate gives the meter its first samples.
        while len(meter.durations) < speed.MIN_SAMPLES:
            speed.probe()

        def measure(name, trace, scratch):
            return run.run_workload(name, 0, 0, trace, scratch, meter, common)

        yield measure


@pytest.fixture
def small_cells(monkeypatch):
    """Shrink every workload's default cell list to one small cell."""
    for cls in (run.Table2Cold, run.Table2Warm, run.ObservedRun):
        monkeypatch.setattr(cls, "default_cells", lambda self, seed: SMALL_TABLE2)
    monkeypatch.setattr(
        run.ManycoreServer, "default_cells", lambda self, seed: SMALL_MANYCORE
    )


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_workload_runs_and_checks_one_cell(name, small_cells, tmp_path):
    workload = run.WORKLOADS[name](0, tmp_path)
    times, failed, _ = run.set_up(workload, 2)
    assert len(times) == 2 and failed == 0
    for _ in range(2):
        done = workload.run_pass()
        assert [c.error for c in done.cells] == [None]
        assert done.cells[0].events > 0
        assert workload.check(done.cells) == 0


@pytest.mark.parametrize("trace", [False, True])
def test_every_benchmark_metric_is_emitted_with_its_unit(
    trace, small_cells, measure, tmp_path
):
    spec = _spec()
    group = spec["per_layer"] if trace else spec["end_to_end"]
    names = [m["name"] for m in group]
    units = {m["name"]: m["unit"] for m in group}
    for name in run.WORKLOADS:
        record = measure(name, trace, tmp_path)
        line = json.loads(run._result_line(record, units, names))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        assert {n: m["unit"] for n, m in line["metrics"].items()} == units
        if trace:
            assert record["missing_hooks"] == []


def test_self_times_of_a_synthetic_span_tree():
    spans = [
        Span("pass", 0.0, 10.0, busy=10.0),
        Span("cell", 1.0, 9.0, parent=0, busy=8.0),
        # Overlapping children cover the union [2, 5] of their intervals.
        Span("a", 2.0, 4.0, parent=1, busy=2.0),
        Span("b", 3.0, 5.0, parent=1, busy=2.0),
        # An aggregate child covers its summed busy time, not its extent.
        Span("c", 5.0, 8.0, parent=1, busy=1.5, calls=3, aggregate=True),
        Span("d", 2.5, 3.5, parent=2, busy=1.0),
    ]
    assert self_times(spans) == pytest.approx([2.0, 3.5, 1.0, 2.0, 1.5, 1.0])


def test_injected_verdict_mismatch_raises_error_rate(
    small_cells, measure, tmp_path, monkeypatch
):
    def wrong_reference(self, scratch):
        cell = "fuzz:3/c4/directory/s0"
        verdict = run.Verdict(False, 10**6, 0, 0, 0)
        return {cell: {key: verdict for key in run.MANYCORE_KEYS}}

    monkeypatch.setattr(run.ManycoreServer, "setup", wrong_reference)
    record = measure("manycore-server", False, tmp_path)
    assert not record["correct"]
    # The set-ups agree with one another; every pass's cell differs from them.
    assert record["failed"] == len(record["passes"]) >= run.MIN_PASSES
    assert 0 < record["checks"]["error_rate"] < 1


def test_scaled_time_leaves_out_the_probe_and_scales_by_the_median_sample():
    meter = speed.SpeedMeter()
    reference = speed.REFERENCE_S
    # One sample every 0.1 s from t=0, the host twice as slow as the reference.
    meter.starts = [i / 10 for i in range(100)]
    meter.durations = [2 * reference] * 100
    meter.durations[50] = 100 * reference  # an outlier the median ignores
    slowdown = 2**speed.ELASTICITY
    # 10 samples in [1.0, 1.95]: too few, so the 20 nearest the middle count.
    own = 0.95 - 10 * 2 * reference
    assert meter.scaled(1.0, 1.95) == pytest.approx(own / slowdown)
    # 21 samples in [4.0, 6.0], the outlier among them.
    own = 2.0 - 20 * 2 * reference - 100 * reference
    assert meter.scaled(4.0, 6.0) == pytest.approx(own / slowdown)
    with pytest.raises(ValueError):
        speed.SpeedMeter().scaled(0.0, 1.0)


def test_set_ups_that_disagree_count_as_failed(tmp_path):
    references = iter([{"a": 1, "b": 2}, {"a": 1, "b": 2}, {"a": 1, "b": 3}])

    class Disagreeing(run.Workload):
        def default_cells(self, seed):
            return []

        def setup(self, scratch):
            return next(references)

    times, failed, attempted = run.set_up(Disagreeing(0, tmp_path), 3)
    assert len(times) == 3 and (failed, attempted) == (1, 4)


def _records(values: list[float]) -> list[dict]:
    return [
        {
            "workload": "table2-warm",
            "host": {"seed": seed},
            "checks": {"error_rate": 0.0},
            "metrics": {"events_per_s": value, "sim_overhead_pct": 0.5},
        }
        for seed, value in enumerate(values)
    ]


def test_compare_flags_a_20_percent_slowdown(tmp_path, capsys, monkeypatch):
    # A 20% slowdown against 10% bounds.  BENCHMARK.json's own host-time
    # bounds are set from the reference host's noise (README.md).
    spec = _spec()
    for metric in spec["end_to_end"]:
        metric["bound"] = 0.1
    spec_path = tmp_path / "BENCHMARK.json"
    spec_path.write_text(json.dumps(spec))
    monkeypatch.setattr(compare, "SPEC_PATH", spec_path)

    base = [1000.0, 1004.0, 996.0, 1002.0, 998.0, 1001.0]
    slow = [v * 0.8 for v in base]
    a_path, b_path = tmp_path / "A.json", tmp_path / "B.json"
    a_path.write_text(json.dumps(_records(base)))
    b_path.write_text(json.dumps(_records(slow)))
    assert compare.main([str(a_path), str(b_path)]) == 1
    rows = {r["metric"]: r["verdict"] for r in compare.compare(
        _records(base), _records(slow), spec
    )}
    assert rows == {"events_per_s": "worse", "sim_overhead_pct": "ok", "error_rate": "ok"}
    assert compare.main([str(a_path), str(a_path)]) == 0
    assert "worse" in capsys.readouterr().out


def test_results_cache_is_untouched(small_cells, tmp_path):
    before = _cache_snapshot()
    for name in run.WORKLOADS:
        workload = run.WORKLOADS[name](0, tmp_path / name)
        run.set_up(workload, 1)
        workload.run_pass()
    assert _cache_snapshot() == before
