"""Golden ``--trace-out`` payloads: every event type, pinned as a multiset.

A ``--trace-out`` file explains a run in the paper's terms: Figure 2
LState transitions, Figure 6 broadcasts (or the directory's point-to-point
metadata updates), Section 3.4 piggybacks, the Section 3.5 barrier reset,
Section 3.6 L2 displacements, cache evictions and alarms.  This file pins,
for each event type, the number of events and the sha256 of their sorted
canonical payloads (``t``, ``wall_s``, ``id`` and ``parent`` stripped, as
they carry wall time and emission order).  The reference was captured from
the per-event scalar walk, which emitted from inside the simulator and the
scalar ``step``s; today the batch walk emits every type, so a match here
means the batch walk tells the same story the scalar walk told.

Coordinates: raytrace with an injected bug through ``hard-default``,
``hb-default`` and ``software`` on the snoopy bus and on the directory
fabric (``run_pipeline``, as ``repro run --trace-out`` drives it), and the
``exemplar-l2-displacement`` corpus case through every registered detector
on a 16 KiB L2, which exercises ``l2.displacement`` and the L2's own
``cache.evict`` events.

Regenerate (only when an *intentional* change to what is emitted lands)
with::

    PYTHONPATH=src:. python tests/obs/test_trace_out_golden.py

which rewrites ``golden_trace_out.json`` next to this module.
"""

import hashlib
import json
from collections import defaultdict
from pathlib import Path

import pytest

from repro.engine import EngineSession
from repro.fuzz.corpus import load_case
from repro.harness.detectors import DETECTOR_KEYS, DetectorConfig
from repro.harness.pipeline import run_pipeline
from repro.obs import Observability, RecordingEmitter
from repro.threads.runtime import interleave
from repro.threads.scheduler import RandomScheduler

GOLDEN_PATH = Path(__file__).parent / "golden_trace_out.json"
CORPUS_DIR = Path(__file__).parent.parent / "fuzz" / "corpus"

#: Fields that carry wall time or emission order, not run content.
VOLATILE_FIELDS = frozenset({"t", "wall_s", "id", "parent"})
#: The detectors of the raytrace coordinates (the CI smoke run's set).
RUN_DETECTORS = "hard-default,hb-default,software"
#: The machine-backed keys, run on the exemplar's small L2.
MACHINE_KEYS = ("hard-default", "hb-default", "software")
SMALL_L2 = 16 * 1024


def payload_digests(events) -> dict[str, dict]:
    """Per event type: the count and sha256 of the sorted payloads."""
    payloads: dict[str, list[str]] = defaultdict(list)
    for etype, fields in events:
        kept = {k: v for k, v in fields.items() if k not in VOLATILE_FIELDS}
        payloads[etype].append(
            json.dumps(kept, sort_keys=True, separators=(",", ":"))
        )
    return {
        etype: {
            "count": len(lines),
            "sha256": hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest(),
        }
        for etype, lines in sorted(payloads.items())
    }


def _raytrace_events(fabric: str):
    emitter = RecordingEmitter()
    run_pipeline(
        "raytrace",
        RUN_DETECTORS,
        bug_seed=3,
        obs=Observability(emitter=emitter),
        coherence=fabric,
    )
    return emitter.events


def _exemplar_events():
    case = load_case(CORPUS_DIR / "exemplar-l2-displacement.json")
    scheduler = RandomScheduler(seed=case.schedule_seed, max_burst=8)
    trace = interleave(case.program, scheduler).trace
    emitter = RecordingEmitter()
    session = EngineSession(trace, obs=Observability(emitter=emitter))
    for key in DETECTOR_KEYS:
        l2_size = SMALL_L2 if key in MACHINE_KEYS else None
        session.add_config(DetectorConfig(key=key, l2_size=l2_size))
    session.run()
    return emitter.events


COORDINATES = {
    "raytrace-snoopy": lambda: _raytrace_events("snoopy"),
    "raytrace-directory": lambda: _raytrace_events("directory"),
    "exemplar-l2-displacement": _exemplar_events,
}


def compute_golden() -> dict[str, dict]:
    return {name: payload_digests(build()) for name, build in COORDINATES.items()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("name", sorted(COORDINATES))
def test_trace_out_payloads_match_golden(golden, name):
    assert payload_digests(COORDINATES[name]()) == golden[name]


def test_golden_exercises_every_detector_event_type(golden):
    # The coordinates are chosen so every detector-side type is pinned.
    seen = set()
    for digests in golden.values():
        seen.update(digests)
    assert {
        "span",
        "alarm",
        "lstate.transition",
        "lockset.refine",
        "bloom.collision",
        "barrier.reset",
        "metadata.piggyback",
        "candidate.broadcast",
        "metadata.update",
        "cache.evict",
        "l2.displacement",
    } <= seen


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(compute_golden(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
