"""The kernel-major batch walk: GC pause, release and positional results.

The batch walk runs one core at a time — ``begin_batch``, one
``step_batch`` over the whole trace, ``finish_batch`` — with the cyclic
garbage collector paused, and frees each core before the next begins.
The pause is free only because no batch kernel builds a reference cycle:
reference counting alone frees all of a kernel's state.  These tests pin
that invariant for every registered batch key, the pause's restore
semantics (caller-disabled collection, a raising kernel, concurrent
sessions), the release, and results kept by position.
"""

import gc
import sys
import threading
import time
import weakref
from pathlib import Path

import pytest

from repro.common.errors import DetectorError
from repro.common.gcpause import gc_paused
from repro.common.events import Site, Trace, read, unlock
from repro.engine import EngineSession
from repro.engine.tape import MachineTape
from repro.fuzz.corpus import load_case
from repro.harness.detectors import DETECTOR_KEYS, DetectorConfig, make_detector
from repro.reporting import DetectionResult, RaceReportLog
from repro.threads.runtime import interleave
from repro.threads.scheduler import RandomScheduler
from repro.workloads.registry import build_workload

CORPUS_DIR = Path(__file__).parent.parent / "fuzz" / "corpus"

#: Every registered key: each has a batch kernel
#: (``test_batch_path.py::test_registered_key_has_a_batch_kernel``).
REGISTERED_BATCH_KEYS = DETECTOR_KEYS


def _machine_configs(keys):
    configs = (getattr(make_detector(key).core(), "machine_config", None) for key in keys)
    return {config for config in configs if config is not None}


@pytest.fixture(autouse=True)
def restore_gc():
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.fixture(scope="module", params=("workload:raytrace", "corpus:exemplar-l2-displacement"))
def golden_cols(request):
    """Columns of a golden coordinate with every batch key's tape recorded."""
    kind, name = request.param.split(":")
    if kind == "workload":
        program, scheduler = build_workload(name, seed=0), RandomScheduler(seed=0, max_burst=8)
    else:
        case = load_case(CORPUS_DIR / f"{name}.json")
        program = case.program
        scheduler = RandomScheduler(seed=case.schedule_seed, min_burst=1, max_burst=8)
    cols = interleave(program, scheduler).trace.columns()
    # Tapes are fetched outside the pause; record them here so the walks
    # below see only the kernels.
    for machine_config in _machine_configs(REGISTERED_BATCH_KEYS):
        MachineTape.for_columns(cols, machine_config)
    yield cols
    cols.close()


@pytest.mark.parametrize("key", REGISTERED_BATCH_KEYS)
def test_kernel_builds_no_reference_cycles(key, golden_cols):
    gc.collect()
    gc.disable()
    session = EngineSession(golden_cols, path="batch")
    session.add_config(DetectorConfig(key))
    result = session.run()
    assert not gc.isenabled(), "the walk re-enabled a collector its caller disabled"
    del session, result
    assert gc.collect() == 0, f"{key}'s batch walk left cyclic garbage"


def test_pause_counts_overlapping_threads():
    # Many short overlapping pauses under a tiny switch interval: the
    # collector stays off while any pause is open and comes back on after
    # the last one, which a lost update to the shared depth would break.
    gc.enable()
    errors = []

    def work():
        for _ in range(2000):
            with gc_paused():
                time.sleep(0)  # let another thread enter or leave
                if gc.isenabled():
                    errors.append("collector enabled inside a pause")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert gc.isenabled()


# ----------------------------------------------------------- test kernels


class ProbeCore:
    """A trace-only batch kernel that records what the walk looked like.

    ``begin_batch`` notes which watched cores are still alive and
    registers a weak reference to itself; ``step_batch`` notes its range
    and the collector's state, optionally waiting on a barrier to overlap
    with another thread, or raising.
    """

    machine_config = None

    def __init__(self, name, log, *, barrier=None, fail=False):
        self.name = name
        self.log = log
        self.barrier = barrier
        self.fail = fail

    def begin_batch(self, cols, tape, obs=None):
        watched = (ref() for ref in self.log["watch"])
        alive = [core.name for core in watched if core is not None]
        self.log["alive"].append((self.name, alive))
        self.log["watch"].append(weakref.ref(self))

    def step_batch(self, cols, lo, hi):
        self.log["steps"].append((self.name, lo, hi, gc.isenabled()))
        if self.barrier is not None:
            self.barrier.wait()
        if self.fail:
            raise DetectorError(f"{self.name} failed")

    def finish_batch(self):
        return DetectionResult(self.name, RaceReportLog(self.name))


class ProbeDetector:
    def __init__(self, name, log, **kwargs):
        self.args = (name, log)
        self.kwargs = kwargs

    def core(self):
        return ProbeCore(*self.args, **self.kwargs)


def new_log() -> dict:
    return {"alive": [], "watch": [], "steps": []}


@pytest.fixture(scope="module")
def trace():
    program = build_workload("raytrace", seed=3)
    return interleave(program, RandomScheduler(seed=5, max_burst=8)).trace


class TestPause:
    def test_one_step_per_core_with_collection_paused(self, trace):
        gc.enable()
        log = new_log()
        session = EngineSession(trace, path="batch")
        for name in ("a", "b"):
            session.add(ProbeDetector(name, log))
        session.run()
        n = len(trace)
        assert log["steps"] == [("a", 0, n, False), ("b", 0, n, False)]
        assert gc.isenabled()

    def test_caller_disabled_collection_stays_disabled(self, trace):
        gc.disable()
        session = EngineSession(trace, path="batch")
        session.add(ProbeDetector("a", new_log()))
        session.add_config(DetectorConfig("hb-ideal"))
        session.run()
        assert not gc.isenabled()

    def test_raising_kernel_restores_collection(self, trace):
        gc.enable()
        session = EngineSession(trace, path="batch")
        session.add(ProbeDetector("boom", new_log(), fail=True))
        with pytest.raises(DetectorError, match="boom failed"):
            session.run()
        assert gc.isenabled()

    @pytest.mark.parametrize("key", ("hard-ideal", "software", "acculock", "multilock-hb"))
    def test_unbalanced_release_restores_collection(self, key):
        site = Site("release.c", 1, "release")
        bad = Trace(num_threads=1)
        bad.append(0, read(0x2000, site))
        bad.append(0, unlock(0x1000, site))
        gc.enable()
        session = EngineSession(bad, path="batch")
        session.add_config(DetectorConfig(key))
        with pytest.raises(DetectorError, match="never took"):
            session.run()
        assert gc.isenabled()

    def test_concurrent_sessions_restore_collection(self, trace):
        gc.enable()
        cols = trace.columns()
        barrier = threading.Barrier(2, timeout=30)
        logs = [new_log(), new_log()]
        errors = []

        def work(log):
            try:
                session = EngineSession(cols, path="batch")
                session.add(ProbeDetector("t", log, barrier=barrier))
                session.add_config(DetectorConfig("software"))
                session.run()
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(log,)) for log in logs]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert errors == []
        # Both kernels were inside the pause at the barrier together.
        assert [log["steps"][0][3] for log in logs] == [False, False]
        assert gc.isenabled()


class TestRelease:
    def test_added_core_is_freed_before_the_next_begins(self, trace):
        log = new_log()
        session = EngineSession(trace, path="batch")
        log["watch"].append(weakref.ref(session.add_config(DetectorConfig("software"))))
        session.add(ProbeDetector("first", log))
        session.add(ProbeDetector("second", log))
        session.run()
        # Neither the add_config core nor the first probe outlives its walk.
        assert log["alive"] == [("first", []), ("second", [])]
