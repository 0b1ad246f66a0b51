"""Every exhibit declares its grid once and scores it in one call.

For each exhibit, ``-j 1`` and ``-j 2`` give identical data and text, and
each declared cell is evaluated exactly once: ``harness.cells_evaluated``
equals the number of distinct cells the exhibit's one
:meth:`ExperimentRunner.outcomes` call asked for, so nothing is evaluated
twice or outside that call.  Each run gets a fresh verdict cache; the
trace and tape caches are shared across the module, so the test times
detection, not interleaving.
"""

import pytest

from repro import api
from repro.harness.experiment import ExperimentRunner

APPS = ("raytrace",)


@pytest.fixture(scope="module")
def shared(tmp_path_factory):
    """Trace and tape cache directories shared by every run."""
    root = tmp_path_factory.mktemp("shared")
    for layer in ("traces", "tapes"):
        (root / layer).mkdir()
    return root


@pytest.fixture
def requested(monkeypatch):
    """Every cell list passed to ExperimentRunner.outcomes."""
    calls = []
    outcomes = ExperimentRunner.outcomes

    def recording(self, cells):
        cells = list(cells)
        calls.append(cells)
        return outcomes(self, cells)

    monkeypatch.setattr(ExperimentRunner, "outcomes", recording)
    return calls


@pytest.mark.parametrize("name", api.EXHIBITS)
def test_exhibit_scores_its_grid_once(name, shared, requested, tmp_path):
    results = {}
    for jobs in (1, 2):
        cache = tmp_path / f"j{jobs}"
        cache.mkdir()
        for layer in ("traces", "tapes"):
            (cache / layer).symlink_to(shared / layer)
        requested.clear()
        result = api.run_table(name, apps=APPS, runs=1, cache_dir=cache, jobs=jobs)
        assert len(requested) <= 1
        declared = {cell for cells in requested for cell in cells}
        counters = result.metrics["counters"]
        assert counters.get("harness.cells_evaluated", 0) == len(declared)
        assert counters.get("harness.verdict_cache_hits", 0) == 0
        results[jobs] = result
    assert results[2].data == results[1].data
    assert results[2].text == results[1].text
