"""Null-sink observability must cost < 5% on a full detector run.

The whole observability design hinges on one claim: threading a *disabled*
:class:`~repro.obs.Observability` bundle through the pipeline is free, so
instrumented builds can stay instrumented.  Hot paths gate on one
precomputed boolean (``obs is not None and obs.active``), which this
benchmark holds to a hard ratio: a ``HardDetector.run`` with the null
bundle may take at most 1.05x the bare ``run(trace)`` wall-clock, best of
N to shed scheduler noise.

The flight recorder makes the same claim for *enabled* telemetry: it
rides the batch walk, paying two ``perf_counter`` calls per core per sync
run plus one frame per walk layer, so an engine pass with
``Observability(telemetry=FlightRecorder())`` must stay inside the
identical 5% budget — and must take the same walk as the bare pass.
"""

from __future__ import annotations

import time

import pytest

from repro.engine import EngineSession
from repro.harness.detectors import DetectorConfig, make_detector
from repro.obs import FlightRecorder, Observability
from repro.threads.runtime import interleave
from repro.threads.scheduler import RandomScheduler
from repro.workloads.registry import build_workload
from repro.reporting import run_core

#: Acceptance threshold: disabled observability adds < 5% wall-clock.
MAX_NULL_OBS_RATIO = 1.05
ROUNDS = 3


@pytest.fixture(scope="module")
def barnes_trace():
    program = build_workload("barnes", seed=0)
    return interleave(program, RandomScheduler(seed=0, max_burst=8)).trace


def _best_of(fn, rounds: int = ROUNDS) -> float:
    """Minimum wall-clock of ``rounds`` calls — the least-noise estimate."""
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_null_observability_overhead_under_5_percent(barnes_trace, benchmark):
    detector = make_detector("hard-default")
    null_obs = Observability()  # null emitter, metrics collection off
    assert not null_obs.active

    # Warm both paths once (allocator, branch caches) before timing.
    run_core(detector.core(), barnes_trace)
    run_core(detector.core(), barnes_trace, obs=null_obs)

    bare = _best_of(lambda: run_core(detector.core(), barnes_trace))
    observed = benchmark.pedantic(
        lambda: _best_of(lambda: run_core(detector.core(), barnes_trace, obs=null_obs)),
        rounds=1,
        iterations=1,
    )

    ratio = observed / bare
    print(
        f"\nbare {bare:.3f}s vs null-obs {observed:.3f}s -> ratio {ratio:.3f}"
    )
    assert ratio <= MAX_NULL_OBS_RATIO, (
        f"null-sink observability costs {100 * (ratio - 1):.1f}% "
        f"(budget {100 * (MAX_NULL_OBS_RATIO - 1):.0f}%)"
    )


def test_flight_recorder_overhead_under_5_percent(barnes_trace, benchmark):
    """An engine pass with telemetry enabled stays inside the 5% budget."""
    config = DetectorConfig.coerce("hard-default")

    def run_engine(obs):
        session = EngineSession(barnes_trace, obs=obs)
        session.add_config(config)
        session.run()
        # Both sides of the ratio must time the same walk.
        assert session.path_taken == "batch"
        return session

    # Warm both paths once (allocator, branch caches) before timing.
    run_engine(None)
    run_engine(Observability(telemetry=FlightRecorder()))

    bare = _best_of(lambda: run_engine(None))
    observed = benchmark.pedantic(
        lambda: _best_of(
            lambda: run_engine(Observability(telemetry=FlightRecorder()))
        ),
        rounds=1,
        iterations=1,
    )

    ratio = observed / bare
    print(
        f"\nbare {bare:.3f}s vs telemetry {observed:.3f}s -> ratio {ratio:.3f}"
    )
    assert ratio <= MAX_NULL_OBS_RATIO, (
        f"flight-recorder telemetry costs {100 * (ratio - 1):.1f}% "
        f"(budget {100 * (MAX_NULL_OBS_RATIO - 1):.0f}%)"
    )
