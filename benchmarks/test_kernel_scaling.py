"""Per-kernel scaling check: batch events/s at 1x, 2x and 4x trace length.

A batch kernel whose per-event cost grows with the trace — a record list
scanned on every access and never pruned, say — loses rate as the trace
grows, and the Fine-Grained Lens paper's complexity classes (PAPERS.md)
say none of ours should: each is O(1) or O(T * S) per access in the
thread count T and the locksets per thread S, neither of which grows with
the trace length.  This check builds raytrace at 1x, 2x and 4x of its
repetition counts (the shape parameters stay put), times every batch key's
walk over each trace through ``walk_batch_core`` (the loop the engine
runs) with the machine tape already recorded, and fails when a key's 4x
rate is below half its 1x rate.  The machine tape's recorder
(``MachineTape``, i.e. ``Machine.record``) is held to the same bound on the
default machine: its per-access cost must not grow with the trace either,
as it would with a cache set that is never pruned.  The best of
``REPEATS`` passes is kept, so a noisy host has to slow every pass to fail
the check.

Outside tier-1 (``benchmarks/`` is not collected by default)::

    PYTHONPATH=src python -m pytest -q -s benchmarks/test_kernel_scaling.py
"""

from __future__ import annotations

import time
from dataclasses import fields, replace
from functools import partial

import pytest

from repro.common.config import MachineConfig
from repro.engine.session import walk_batch_core
from repro.engine.tape import MachineTape
from repro.harness.detectors import make_detector
from repro.threads.runtime import interleave
from repro.threads.scheduler import RandomScheduler
from repro.workloads.raytrace import RaytraceParams, build

from tests.engine.test_batch_path import BATCH_KEYS

SCALES = (1, 2, 4)
REPEATS = 2
#: The 4x rate may fall to this fraction of the 1x rate, no further.
MIN_RATE_RATIO = 0.5

#: RaytraceParams fields that repeat work; the rest set the program's shape.
REPEAT_COUNTS = (
    "job_visits_per_thread",
    "ray_counter_updates_per_thread",
    "bracketed_updates_per_thread",
    "pc_tasks",
    "fb_private_rounds",
    "fs_locked_rounds",
    "stream_lines_per_thread",
)


def scaled_params(scale: int) -> RaytraceParams:
    base = RaytraceParams()
    names = {spec.name for spec in fields(base)}
    assert set(REPEAT_COUNTS) <= names
    return replace(base, **{name: getattr(base, name) * scale for name in REPEAT_COUNTS})


@pytest.fixture(scope="module")
def columns():
    """Columnar raytrace traces by scale, each built and interleaved once."""
    out = {}
    for scale in SCALES:
        program = build(seed=3, params=scaled_params(scale))
        trace = interleave(program, RandomScheduler(seed=5, max_burst=8)).trace
        out[scale] = trace.columns()
    yield out
    for cols in out.values():
        cols.close()


def kernel_rate(key: str, cols) -> float:
    """Best-of-``REPEATS`` events/s of one key's batch kernel over ``cols``."""
    best = float("inf")
    for _ in range(REPEATS):
        core = make_detector(key).core()
        machine_config = getattr(core, "machine_config", None)
        if machine_config is not None:
            MachineTape.for_columns(cols, machine_config)  # memoised: untimed
        t0 = time.perf_counter()
        walk_batch_core(core, cols, partial(MachineTape.for_columns, cols))
        best = min(best, time.perf_counter() - t0)
    return cols.n / best


def record_rate(cols) -> float:
    """Best-of-``REPEATS`` events/s of recording ``cols``'s default tape."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        MachineTape(cols, MachineConfig())
        best = min(best, time.perf_counter() - t0)
    return cols.n / best


def check_rates(name: str, rates: dict, columns) -> None:
    print(
        f"\n{name}: "
        + ", ".join(
            f"{scale}x {columns[scale].n} events {rate:,.0f}/s"
            for scale, rate in rates.items()
        )
    )
    assert rates[SCALES[-1]] >= MIN_RATE_RATIO * rates[SCALES[0]], rates


@pytest.mark.parametrize("key", BATCH_KEYS)
def test_rate_holds_as_the_trace_grows(key, columns):
    rates = {scale: kernel_rate(key, cols) for scale, cols in columns.items()}
    check_rates(key, rates, columns)


def test_tape_recording_rate_holds_as_the_trace_grows(columns):
    rates = {scale: record_rate(cols) for scale, cols in columns.items()}
    check_rates("tape record", rates, columns)
