"""Golden trace digests: the interleaver's output, pinned bit for bit.

For every paper and server workload, clean and with an injected bug
(bug seed 0), under a random scheduler (seed 0, bursts of 1–8) and a
round-robin scheduler (quantum 3), this file pins the trace's
:meth:`~repro.common.coltrace.ColumnarTrace.content_digest` — every packed
column, the site table and the injected bug — together with the
interleaver's diagnostics (context switches, lock blocks, barrier
episodes).  Any change to the interleaver or the packer that moves one
event, one site id or one counter fails here.

Regenerate (only when an *intentional* behaviour change lands) with::

    PYTHONPATH=src:. python tests/threads/test_golden_traces.py

which rewrites ``golden_traces.json`` next to this module.
"""

import json
from pathlib import Path

import pytest

from repro.threads.runtime import interleave
from repro.threads.scheduler import RandomScheduler, RoundRobinScheduler
from repro.workloads.injection import inject_bug
from repro.workloads.registry import SERVER_WORKLOADS, WORKLOAD_NAMES, build_workload

GOLDEN_PATH = Path(__file__).parent / "golden_traces.json"

#: Scheduler name -> factory.
SCHEDULERS = {
    "random8": lambda: RandomScheduler(seed=0, max_burst=8),
    "rr3": lambda: RoundRobinScheduler(3),
}

APPS = WORKLOAD_NAMES + SERVER_WORKLOADS


def _programs(app: str):
    """(variant, program) for the clean and the injected build of ``app``."""
    program = build_workload(app, seed=0)
    yield "clean", program
    yield "injected", inject_bug(program, seed=0)


def record(app: str) -> dict:
    """Every pinned coordinate of ``app``: name -> digest and diagnostics."""
    out = {}
    for variant, program in _programs(app):
        for sched_name, make in SCHEDULERS.items():
            result = interleave(program, make())
            out[f"{app}/{variant}/{sched_name}"] = {
                "digest": result.trace.columns().content_digest(),
                "events": len(result.trace),
                "context_switches": result.context_switches,
                "lock_block_events": result.lock_block_events,
                "barrier_episodes": result.barrier_episodes,
            }
    return out


def generate() -> dict:
    out = {}
    for app in APPS:
        out.update(record(app))
    return out


def _load_goldens() -> dict:
    with GOLDEN_PATH.open() as fh:
        return json.load(fh)


class TestGoldenTraces:
    """Every pinned interleaving is reproduced column for column."""

    def test_goldens_cover_every_coordinate(self):
        expected = {
            f"{app}/{variant}/{sched}"
            for app in APPS
            for variant in ("clean", "injected")
            for sched in SCHEDULERS
        }
        assert set(_load_goldens()) == expected

    @pytest.mark.parametrize("app", APPS)
    def test_traces_match_golden(self, app):
        goldens = _load_goldens()
        for name, got in record(app).items():
            assert got == goldens[name], name


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(generate(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
