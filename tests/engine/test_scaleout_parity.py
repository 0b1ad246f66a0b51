"""Scale-out parity: batch/scalar/run_core agreement per (fabric, cores).

The engine's bit-for-bit contract (see ``test_batch_path``) must survive
the scale-out machine axes: every (core count, coherence fabric)
coordinate — and the pinned thread-mapping policy — produces identical
verdicts, cycles and stat counters on the vectorized batch path, the
scalar session and the per-detector ``run_core`` walk.  Also pins the cache-key side: ``num_cores`` and ``coherence`` fold
into ``config_signature`` so pre-PR-10 disk-cached verdicts (which never
saw these knobs) self-invalidate instead of being served for the wrong
machine.
"""

import pytest

from repro.common.config import HardConfig, MachineConfig
from repro.core.detector import HardDetector
from repro.engine import EngineSession
from repro.harness.detectors import DetectorConfig, config_signature, make_detector
from repro.reporting import run_core
from repro.threads.runtime import interleave
from repro.threads.scheduler import RandomScheduler
from repro.workloads.registry import build_workload

#: The sweep coordinates exercised (full grid is the scaling exhibit's job).
COORDS = [(4, "directory"), (16, "snoopy"), (16, "directory"), (64, "directory")]


def result_key(result) -> tuple:
    return (
        result.detector,
        tuple(
            (r.seq, r.thread_id, r.addr, r.size, r.site, r.is_write, r.detail)
            for r in result.reports
        ),
        result.cycles,
        result.detector_extra_cycles,
        tuple(sorted(result.stats.snapshot().items())),
    )


@pytest.fixture(scope="module")
def trace():
    program = build_workload("workqueue", seed=0)
    return interleave(program, RandomScheduler(seed=0, max_burst=8)).trace


class TestGridParity:
    @pytest.mark.parametrize(
        "cores,fabric", COORDS, ids=[f"{c}-{f}" for c, f in COORDS]
    )
    def test_batch_scalar_legacy_agree(self, trace, cores, fabric):
        config = DetectorConfig(
            "hard-default",
            num_cores=None if cores == 4 else cores,
            coherence=None if fabric == "snoopy" else fabric,
        )
        keys = []
        for path in ("batch", "scalar"):
            session = EngineSession(trace, path=path)
            session.add_config(config)
            keys.append(result_key(session.run()[0]))
        keys.append(result_key(run_core(make_detector(config).core(), trace)))
        assert keys[0] == keys[1] == keys[2], (cores, fabric)

    def test_coordinates_actually_differ(self, trace):
        # The grid is only a test of anything if the machine axes change
        # the accounting: directory stats must appear, cycles must move.
        def run(config):
            session = EngineSession(trace)
            session.add_config(config)
            return session.run()[0]

        snoopy = run(DetectorConfig("hard-default"))
        directory = run(DetectorConfig("hard-default", coherence="directory"))
        assert directory.cycles > snoopy.cycles
        assert directory.stats.get("dir.messages.home_lookup") > 0
        assert snoopy.stats.get("dir.messages.home_lookup") == 0


class TestPinnedMappingParity:
    def test_batch_matches_scalar_under_pinning(self, trace):
        # Fold 8 threads onto 2 cores via an explicit pin map: the batch
        # kernels must reproduce the scalar walk's placement exactly.
        machine = MachineConfig(
            num_cores=4,
            thread_mapping="pinned",
            thread_pins=(1, 1, 2, 2, 1, 2, 1, 2),
        )
        keys = []
        for path in ("batch", "scalar"):
            session = EngineSession(trace, path=path)
            session.add(HardDetector(machine, HardConfig(), name="hard-pinned"))
            keys.append(result_key(session.run()[0]))
        assert keys[0] == keys[1]

    def test_pinning_changes_the_outcome(self, trace):
        # Sanity: the placement policy is observable (else the parity
        # test above proves nothing).
        def run(machine):
            session = EngineSession(trace)
            session.add(HardDetector(machine, HardConfig(), name="hard"))
            return session.run()[0]

        spread = run(MachineConfig())
        folded = run(
            MachineConfig(
                num_cores=4,
                thread_mapping="pinned",
                thread_pins=(0,) * 8,
            )
        )
        assert folded.stats.get("machine.cores.oversubscribed") == 7
        assert result_key(spread) != result_key(folded)


class TestSignatureFolding:
    def test_scale_axes_fold_into_signature(self):
        sig = config_signature("hard-default", num_cores=16, coherence="directory")
        assert sig == "hard-default;v2;coherence=directory;num_cores=16"

    def test_default_signature_unchanged(self):
        # Pre-PR-10 cache entries for the default platform stay valid.
        assert config_signature("hard-default") == "hard-default;v2"
        assert config_signature("hard-default", num_cores=None) == "hard-default;v2"

    def test_distinct_machines_never_collide(self):
        sigs = {
            config_signature("hard-default", num_cores=cores, coherence=fabric)
            for cores in (8, 16, 64)
            for fabric in ("snoopy", "directory")
        }
        assert len(sigs) == 6
