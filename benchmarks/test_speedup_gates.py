"""Hard speedup gates: the engine's four speed claims, held as assertions.

Each gate times two ways of producing the same result on this host and
fails when the ratio falls short.  Gates (a)–(c) share one water-nsquared
trace (workload seed 0, schedule seed 0), the Table 2 cell shape:

* (a) the batch walk's detect time on the four paper keys must be at most
  a third of the frozen pre-columnar artifact's
  (``baselines/BENCH_engine_precolumnar.json``, one vCPU);
* (b) one engine session over the same four keys must be at least 1.5x
  faster than running each core alone on the scalar reference walk
  (``run_core``), after checking that both give bit-for-bit identical
  results;
* (c) the sharded walk at ``-j 4`` over the seven default keys (each
  key's whole batch walk one task for a worker process) must be at least
  1.8x faster than the batch walk on the same keys;
* (d) the Table 3 grid on raytrace and barnes (two injected runs each)
  must be at least 2x faster at ``-j 4`` than at ``-j 1``, against fresh
  cache directories, and render the same text.

Every side is timed over :data:`ROUNDS` rounds and the minimum is kept
(min against min), except (d), whose fresh-cache grids are timed once
each.  Gates (c) and (d) measure four worker processes: on a host with
fewer than four CPUs they fail, naming the host's count, rather than
skip.

Outside tier-1 (``benchmarks/`` is not collected by default)::

    PYTHONPATH=src python -m pytest -q -s benchmarks/test_speedup_gates.py
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro import api
from repro.engine import EngineSession
from repro.harness.detectors import DetectorConfig, make_detector
from repro.reporting import run_core
from repro.threads.runtime import interleave
from repro.threads.scheduler import RandomScheduler
from repro.workloads.registry import build_workload

from tests.engine.test_batch_path import result_key

BASELINES = Path(__file__).resolve().parent / "baselines"
PRECOLUMNAR = BASELINES / "BENCH_engine_precolumnar.json"

#: The four configurations the frozen pre-columnar artifact scored.
PAPER_KEYS = ("hard-default", "hb-default", "software", "hb-ideal")
#: The paper keys plus the hybrid family: the sharded gate's cell.
DEFAULT_KEYS = PAPER_KEYS + ("fasttrack", "acculock", "multilock-hb")
ROUNDS = 3
JOBS = 4

MIN_DETECT_SPEEDUP = 3.0
MIN_ENGINE_SPEEDUP = 1.5
MIN_SHARDED_SPEEDUP = 1.8
MIN_GRID_SPEEDUP = 2.0


@pytest.fixture(scope="module")
def trace():
    program = build_workload("water-nsquared", seed=0)
    return interleave(program, RandomScheduler(seed=0, max_burst=8)).trace


def require_cpus() -> None:
    cpus = os.cpu_count() or 1
    if cpus < JOBS:
        pytest.fail(
            f"this gate measures -j {JOBS} and needs at least {JOBS} CPUs; "
            f"this host has {cpus}",
            pytrace=False,
        )


def run_session(trace, keys, **kwargs) -> list:
    session = EngineSession(trace, **kwargs)
    for key in keys:
        session.add_config(DetectorConfig.coerce(key))
    return session.run()


def run_alone(trace, keys) -> list:
    return [run_core(make_detector(key).core(), trace) for key in keys]


def timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def report(name: str, slow: list, fast: list, floor: float) -> float:
    speedup = min(slow) / min(fast)
    print(
        f"\n{name}: {min(slow):.3f}s / {min(fast):.3f}s = {speedup:.2f}x "
        f"(gate >= {floor}x)"
    )
    return speedup


def test_batch_detect_beats_precolumnar_baseline(trace):
    with PRECOLUMNAR.open() as fh:
        baseline = json.load(fh)["phases"]["detect"]["min_s"]
    detect = [
        timed(lambda: run_session(trace, PAPER_KEYS, path="batch"))
        for _ in range(ROUNDS)
    ]
    speedup = report("detect vs pre-columnar", [baseline], detect, MIN_DETECT_SPEEDUP)
    assert min(detect) <= baseline / MIN_DETECT_SPEEDUP, speedup


def test_engine_beats_one_walk_per_detector(trace):
    alone = run_alone(trace, PAPER_KEYS)
    engine = run_session(trace, PAPER_KEYS)
    assert [result_key(r) for r in engine] == [result_key(r) for r in alone]
    alone_s, engine_s = [], []
    for _ in range(ROUNDS):
        alone_s.append(timed(lambda: run_alone(trace, PAPER_KEYS)))
        engine_s.append(timed(lambda: run_session(trace, PAPER_KEYS)))
    speedup = report("engine vs run_core", alone_s, engine_s, MIN_ENGINE_SPEEDUP)
    assert speedup >= MIN_ENGINE_SPEEDUP


def test_sharded_beats_batch_at_four_jobs(trace):
    require_cpus()
    batch = [
        timed(lambda: run_session(trace, DEFAULT_KEYS, path="batch"))
        for _ in range(ROUNDS)
    ]
    sharded = [
        timed(lambda: run_session(trace, DEFAULT_KEYS, path="sharded", jobs=JOBS))
        for _ in range(ROUNDS)
    ]
    speedup = report(f"sharded -j {JOBS} vs batch", batch, sharded, MIN_SHARDED_SPEEDUP)
    assert speedup >= MIN_SHARDED_SPEEDUP


def test_table3_grid_scales_to_four_jobs(tmp_path):
    require_cpus()
    walls, texts = [], []
    for jobs in (1, JOBS):
        t0 = time.perf_counter()
        result = api.run_table(
            "table3",
            apps=("raytrace", "barnes"),
            runs=2,
            cache_dir=tmp_path / f"j{jobs}",
            jobs=jobs,
        )
        walls.append(time.perf_counter() - t0)
        texts.append(result.text)
    assert texts[0] == texts[1]
    speedup = report(
        f"table3 -j {JOBS} vs -j 1", walls[:1], walls[1:], MIN_GRID_SPEEDUP
    )
    assert speedup >= MIN_GRID_SPEEDUP
