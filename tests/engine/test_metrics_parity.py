"""Metrics ride the batch walk: per-event metrics equal the scalar oracle's.

A ``collect_metrics`` session used to force the per-event scalar walk.
Now every batch kernel books, in ``finish_batch``, exactly the counters
and histograms its scalar ``step`` books per event
(``obs.lockset_refinements``, ``obs.bloom_collision_bits``,
``hard.candidate_popcount``, ``hard.barrier_reset_copies``,
``lockset.candidate_size``), machine-backed kernels merge the tape's
``machine.access_cycles`` histogram, and ``obs.alarms`` is booked once per
finished result from its report log by ``repro.reporting.book_alarms``, on
either walk.  This suite runs every registered key
on golden-verdict coordinates, on the snoopy bus and the directory fabric,
and holds the two walks' metric snapshots equal.

The coordinates are every fuzz-corpus exemplar plus the two smallest
golden workloads (``radix`` and ``raytrace``): the scalar oracle costs
seconds per detector on the larger apps, and the exemplars already pin
the mechanisms (L2 displacement, Bloom collisions, barrier resets, nested
locks).
"""

import pytest

from repro.engine import EngineSession
from repro.harness.detectors import DETECTOR_KEYS, DetectorConfig
from repro.obs import Observability

from tests.engine.test_golden_verdicts import _case_traces, _load_goldens

#: Golden workloads small enough to walk on the scalar oracle here.
PARITY_WORKLOADS = ("workload:radix", "workload:raytrace")

CASES = [
    (name, make)
    for name, make in _case_traces()
    if name.startswith("corpus:") or name in PARITY_WORKLOADS
]


def metrics_snapshot(trace, path: str, coherence: str | None):
    """(path taken, fallback, counters, histograms) of one metrics session."""
    obs = Observability(collect_metrics=True)
    session = EngineSession(trace, obs=obs, path=path)
    for key in DETECTOR_KEYS:
        session.add_config(DetectorConfig(key, coherence=coherence))
    session.run()
    snapshot = obs.metrics.snapshot_all()
    return (
        session.path_taken,
        session.fallback,
        snapshot["counters"],
        snapshot["histograms"],
    )


def test_cases_are_golden_coordinates():
    goldens = _load_goldens()
    names = [name for name, _ in CASES]
    assert set(names) <= set(goldens)
    assert set(PARITY_WORKLOADS) <= set(names)
    assert sum(name.startswith("corpus:") for name in names) >= 6


@pytest.mark.parametrize("coherence", [None, "directory"], ids=["snoopy", "directory"])
@pytest.mark.parametrize(
    "name,make", CASES, ids=lambda v: v if isinstance(v, str) else ""
)
def test_batch_metrics_equal_scalar(name, make, coherence):
    trace = make()
    scalar = metrics_snapshot(trace, "scalar", coherence)
    batch = metrics_snapshot(trace, "auto", coherence)
    assert scalar[:2] == ("scalar", None)
    assert batch[:2] == ("batch", None)
    assert batch[2] == scalar[2], name
    assert batch[3] == scalar[3], name
