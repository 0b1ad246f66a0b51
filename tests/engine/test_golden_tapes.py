"""Golden machine-tape digests: the simulated data path, pinned bit for bit.

``golden_verdicts.json`` pins verdicts and cycle totals on the default
4-core snoopy machine.  This file pins the machine itself: for every
coordinate below, the sha256 of the nine packed :class:`MachineTape`
arrays (the hook stream, piggyback counts and post-access sharer flags),
the data-path cycle total and the key-sorted machine and fabric counters.
Any change to the simulator's access path that moves one hook, one flag,
one cycle or one counter fails here — on many-core snoopy and directory
machines as well as on the Table 1 platform, and on the fuzz-corpus
exemplars (``exemplar-l2-displacement`` pins L2 back-invalidation).  A
16 KB L2 makes the server workloads displace lines that several L1s
hold, which pins the order of multi-copy back-invalidations too.

Regenerate (only when an *intentional* behaviour change lands) with::

    PYTHONPATH=src:. python tests/engine/test_golden_tapes.py

which rewrites ``golden_tapes.json`` next to this module.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.common.config import KB, MachineConfig
from repro.engine.tape import _TAPE_ARRAYS, MachineTape
from repro.fuzz.corpus import corpus_paths, load_case
from repro.harness.experiment import (
    CLEAN_RUN,
    SCHEDULE_MAX_BURST,
    SCHEDULE_MIN_BURST,
    schedule_seed_for,
)
from repro.threads.runtime import interleave
from repro.threads.scheduler import RandomScheduler
from repro.workloads.registry import SERVER_WORKLOADS, build_workload

GOLDEN_PATH = Path(__file__).parent / "golden_tapes.json"
CORPUS_DIR = Path(__file__).parent.parent / "fuzz" / "corpus"

#: Machine coordinates of the server-workload tapes.
SERVER_CORES = (4, 16, 64)
FABRICS = ("snoopy", "directory")
#: The small L2 of the back-invalidation coordinates, and their core counts
#: (8 threads place identically on 16 and 64 cores).
SMALL_L2 = 16 * KB
SMALL_L2_CORES = (4, 16)


def tape_digest(tape: MachineTape) -> str:
    """sha256 over the packed arrays, the cycle total and sorted counters."""
    digest = hashlib.sha256()
    for name, _ in _TAPE_ARRAYS:
        digest.update(name.encode())
        digest.update(bytes(getattr(tape, name)))
    totals = {
        "machine_cycles": tape.machine_cycles,
        "machine_stats": sorted(tape.machine_stats.items()),
        "bus_stats": sorted(tape.bus_stats.items()),
    }
    digest.update(json.dumps(totals, sort_keys=True).encode())
    return digest.hexdigest()


def _server_columns(app: str):
    program = build_workload(app, seed=0)
    scheduler = RandomScheduler(
        seed=schedule_seed_for(app, 0, CLEAN_RUN),
        min_burst=SCHEDULE_MIN_BURST,
        max_burst=SCHEDULE_MAX_BURST,
    )
    return interleave(program, scheduler).trace.columns()


def _corpus_columns(path: Path):
    case = load_case(path)
    scheduler = RandomScheduler(seed=case.schedule_seed, min_burst=1, max_burst=8)
    return interleave(case.program, scheduler).trace.columns()


def _cases():
    """(app or exemplar name, columns factory, [(coordinate name, config)])."""
    for app in SERVER_WORKLOADS:
        machines = [
            (
                f"{app}/c{cores}/{fabric}",
                MachineConfig(num_cores=cores, coherence=fabric),
            )
            for cores in SERVER_CORES
            for fabric in FABRICS
        ] + [
            (
                f"{app}/c{cores}/{fabric}/l2-16k",
                MachineConfig(num_cores=cores, coherence=fabric).with_l2_size(SMALL_L2),
            )
            for cores in SMALL_L2_CORES
            for fabric in FABRICS
        ]
        yield app, lambda app=app: _server_columns(app), machines
    for path in corpus_paths(CORPUS_DIR):
        name = f"corpus:{path.stem}"
        yield name, lambda path=path: _corpus_columns(path), [(name, MachineConfig())]


def generate() -> dict:
    out = {}
    for _, make, machines in _cases():
        cols = make()
        for name, config in machines:
            out[name] = tape_digest(MachineTape(cols, config))
    return out


def _load_goldens() -> dict:
    with GOLDEN_PATH.open() as fh:
        return json.load(fh)


class TestGoldenTapes:
    """Every pinned (trace, machine) tape is recorded bit for bit."""

    def test_goldens_cover_every_coordinate(self):
        expected = {name for _, _, machines in _cases() for name, _ in machines}
        assert set(_load_goldens()) == expected
        assert "corpus:exemplar-l2-displacement" in expected

    @pytest.mark.parametrize(
        "group,make,machines", list(_cases()), ids=[group for group, _, _ in _cases()]
    )
    def test_tapes_match_golden(self, group, make, machines):
        goldens = _load_goldens()
        cols = make()
        for name, config in machines:
            assert tape_digest(MachineTape(cols, config)) == goldens[name], name


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(generate(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
