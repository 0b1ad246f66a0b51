"""Oracle classification on hand-built divergence cases (tentpole satellite).

Each test pins one row of the expected-divergence taxonomy to a program
engineered (in :mod:`tests.fuzz.cases`) to trigger exactly that class, and
asserts both the classification and its direction/evidence.
"""

from pathlib import Path

import pytest

from repro.common.events import OpKind, Site
from repro.engine import EngineSession
from repro.engine.tape import MachineTape
from repro.fuzz.corpus import load_case
from repro.fuzz.generator import generate_program
from repro.fuzz.oracle import (
    DEFAULT_ORACLE,
    HARD_EXTRA,
    HARD_MISSED,
    HB_ONLY,
    LOCKSET_ONLY,
    CaseVerdict,
    Divergence,
    DivergenceKind,
    evaluate_program,
    evaluate_trace,
    eviction_lines,
)
from repro.harness.detectors import DetectorConfig, make_detector
from repro.sim.coherence import MachineListener
from repro.sim.machine import LOCK_WORD_BYTES, Machine
from repro.threads.runtime import interleave
from repro.threads.scheduler import RandomScheduler

from tests.fuzz.cases import EXEMPLARS, find_schedule_seed


def _verdict(name):
    build, required, allowed = EXEMPLARS[name]
    program = build()
    _, verdict = find_schedule_seed(program, required, allowed=allowed)
    return verdict


@pytest.fixture(scope="module")
def verdicts():
    return {name: _verdict(name) for name in EXEMPLARS}


class TestClassification:
    def test_false_sharing_is_hard_extra(self, verdicts):
        verdict = verdicts["false-sharing"]
        assert not verdict.unexplained
        kinds = {(d.direction, d.kind) for d in verdict.divergences}
        assert kinds == {(HARD_EXTRA, DivergenceKind.FALSE_SHARING)}
        assert verdict.alarm_counts["hard-ideal"] == 0
        assert verdict.alarm_counts["hard-ideal@line"] > 0

    def test_bloom_collision_is_hard_missed(self, verdicts):
        verdict = verdicts["bloom-collision"]
        assert not verdict.unexplained
        collisions = [
            d
            for d in verdict.divergences
            if d.kind is DivergenceKind.BLOOM_COLLISION
        ]
        assert collisions
        for divergence in collisions:
            assert divergence.direction == HARD_MISSED
            assert "BFVector re-run" in divergence.evidence

    def test_l2_displacement_is_hard_missed(self, verdicts):
        verdict = verdicts["l2-displacement"]
        assert not verdict.unexplained
        displaced = [
            d
            for d in verdict.divergences
            if d.kind is DivergenceKind.L2_DISPLACEMENT
        ]
        assert displaced
        for divergence in displaced:
            assert divergence.direction == HARD_MISSED
            assert "L2 re-run recovers" in divergence.evidence

    def test_ordered_by_sync_is_lockset_only(self, verdicts):
        # The Figure 1 scenario is now two-sided: the exact lockset reports
        # where HB is silent, and the schedule-insensitive hybrid reports
        # the same discipline violation against exact HB.
        verdict = verdicts["ordered-by-sync"]
        assert not verdict.unexplained
        kinds = {(d.direction, d.kind) for d in verdict.divergences}
        assert kinds == {
            (LOCKSET_ONLY, DivergenceKind.ORDERED_BY_SYNC),
            ("acculock-vs-fasttrack", DivergenceKind.HB_SCHEDULE_MISS),
        }
        assert verdict.alarm_counts["hb-ideal"] == 0
        assert verdict.alarm_counts["hard-ideal"] > 0

    def test_hb_schedule_miss_is_hybrid_extra(self, verdicts):
        # The hybrid's extra warning must be verified against the strict
        # lockset replay, and fasttrack must agree with hb-ideal (both
        # schedule-bound) while the hybrids alone carry the extra.
        verdict = verdicts["ordered-by-sync"]
        misses = [
            d
            for d in verdict.divergences
            if d.kind is DivergenceKind.HB_SCHEDULE_MISS
        ]
        assert misses
        for divergence in misses:
            assert divergence.direction == "acculock-vs-fasttrack"
            assert "strict lockset warns" in divergence.evidence
        assert verdict.alarm_counts["fasttrack"] == verdict.alarm_counts["hb-ideal"]
        assert verdict.alarm_counts["multilock-hb"] > verdict.alarm_counts["hb-ideal"]

    def test_pairwise_lockset_is_hybrid_missed(self, verdicts):
        # {A,B} ∩ {B,C} ∩ {A,C} = ∅ so the exact lockset reports, but every
        # access pair shares a lock: the hybrid family and even its
        # no-weak-HB ablation stay silent — Eraser's accumulated
        # intersection is strictly stronger than any pairwise test.
        verdict = verdicts["pairwise-lockset"]
        assert not verdict.unexplained
        missed = [
            d
            for d in verdict.divergences
            if d.kind is DivergenceKind.PAIRWISE_LOCKSET
        ]
        assert missed
        assert "exact-vs-multilock" in {d.direction for d in missed}
        for divergence in missed:
            assert divergence.direction in (
                "exact-vs-multilock",
                "strict-vs-multilock",
            )
            assert "no-weak-HB ablation is silent" in divergence.evidence
        assert verdict.alarm_counts["hard-ideal"] > 0
        assert verdict.alarm_counts["multilock-hb"] == 0
        assert verdict.alarm_counts["fasttrack"] == 0

    def test_lstate_forgiven_never_checked(self, verdicts):
        verdict = verdicts["lstate-forgiven"]
        assert not verdict.unexplained
        kinds = {(d.direction, d.kind) for d in verdict.divergences}
        assert kinds == {
            (HB_ONLY, DivergenceKind.LSTATE_FORGIVEN),
            ("exact-vs-multilock", DivergenceKind.LSTATE_FORGIVEN),
        }
        assert any(
            "never reached" in d.evidence for d in verdict.divergences
        )

    def test_lstate_forgiven_absorbed_locks(self, verdicts):
        # The subtler face of forgiveness: the race check DID run, but one
        # side's locks were absorbed during the Virgin/Exclusive window.
        # The oracle must verify this with the strict-lockset replay, not
        # just wave it through.
        verdict = verdicts["absorbed-locks"]
        assert not verdict.unexplained
        assert {d.kind for d in verdict.divergences} == {
            DivergenceKind.LSTATE_FORGIVEN
        }
        assert any("strict" in d.evidence for d in verdict.divergences)


CORPUS_DIR = Path(__file__).parent / "corpus"


def _l2_displacement_trace():
    case = load_case(CORPUS_DIR / "exemplar-l2-displacement.json")
    scheduler = RandomScheduler(seed=case.schedule_seed, max_burst=8)
    return interleave(case.program, scheduler).trace


def _fuzz_trace(index):
    scheduler = RandomScheduler(seed=index, max_burst=8)
    return interleave(generate_program(index), scheduler).trace


class EvictionListener(MachineListener):
    """The lines a machine displaced from its L2 or evicted clean from an L1."""

    def __init__(self):
        self.displaced: set[int] = set()
        self.clean_evicted: set[int] = set()

    def on_l1_evict(self, core, line_addr, dirty):
        if not dirty:
            self.clean_evicted.add(line_addr)

    def on_l2_evict(self, line_addr):
        self.displaced.add(line_addr)


class TestTapeEvidence:
    @pytest.mark.parametrize(
        "build",
        (_l2_displacement_trace, lambda: _fuzz_trace(24)),
        ids=("l2-displacement", "fuzz-24"),
    )
    def test_tape_sets_equal_scalar_event_sets(self, build):
        # The oracle reads evictions off hard-default's machine tape; a
        # per-event Machine.access replay must see its listener told of the
        # same lines.  The reference is the listener, not the trace
        # emitter, whose eviction events are read off the tape itself.
        trace = build()
        hard_cfg = DetectorConfig(key="hard-default", l2_size=DEFAULT_ORACLE.l2_size)
        machine_config = make_detector(hard_cfg).machine_config
        machine = Machine(machine_config)
        listener = EvictionListener()
        machine.add_listener(listener)
        for event in trace:
            op = event.op
            core = machine.core_for_thread(event.thread_id)
            if op.is_memory_access:
                machine.access(core, op.addr, op.size, op.is_write)
            elif op.kind in (OpKind.LOCK, OpKind.UNLOCK):
                machine.access(core, op.addr, LOCK_WORD_BYTES, True)
        displaced, clean_evicted = eviction_lines(
            MachineTape.for_columns(trace.columns(), machine_config)
        )
        assert displaced == listener.displaced
        assert clean_evicted == listener.clean_evicted
        assert displaced

    def test_batch_evaluation_walks_no_scalar_session(self, monkeypatch):
        paths = []
        init = EngineSession.__init__

        def spy(self, trace, obs=None, path="auto", **kwargs):
            paths.append(path)
            init(self, trace, obs, path, **kwargs)

        monkeypatch.setattr(EngineSession, "__init__", spy)
        verdict = evaluate_trace(_l2_displacement_trace(), engine_path="batch")
        assert any(
            d.kind is DivergenceKind.L2_DISPLACEMENT for d in verdict.divergences
        )
        assert paths and "scalar" not in paths


class TestEnginePaths:
    def test_every_walk_gives_the_same_verdict(self):
        # The pairwise exemplar needs the judge's no-weak-HB ablation,
        # which is not a registry config: a sharded evaluation must still
        # judge it (on the batch walk), not raise.
        case = load_case(CORPUS_DIR / "exemplar-pairwise-lockset.json")
        scheduler = RandomScheduler(seed=case.schedule_seed, max_burst=8)
        trace = interleave(case.program, scheduler).trace
        verdicts = [
            evaluate_trace(trace, engine_path=path).to_dict()
            for path in ("batch", "scalar", "sharded")
        ]
        assert verdicts[0] == verdicts[1] == verdicts[2]
        kinds = {d["kind"] for d in verdicts[0]["divergences"]}
        assert "pairwise-lockset" in kinds


class TestDeterminism:
    def test_same_case_same_verdict(self, verdicts):
        build, _, _ = EXEMPLARS["bloom-collision"]
        again = evaluate_program(build(), 0)
        assert again.to_dict() == evaluate_program(build(), 0).to_dict()


class TestVerdictModel:
    def _divergence(self, kind):
        site = Site(file="x.c", line=1, label="x")
        return Divergence(HB_ONLY, site, kind, "synthetic")

    def test_only_unexplained_is_unexpected(self):
        for kind in DivergenceKind:
            expected = kind is not DivergenceKind.UNEXPLAINED
            assert self._divergence(kind).is_expected is expected

    def test_unexplained_property_filters(self):
        divergences = (
            self._divergence(DivergenceKind.FALSE_SHARING),
            self._divergence(DivergenceKind.UNEXPLAINED),
        )
        verdict = CaseVerdict(
            program="p", case="clean", trace_events=0, divergences=divergences
        )
        assert verdict.unexplained == (divergences[1],)
        assert verdict.expected_count == 1
        assert verdict.to_dict()["unexplained"] == 1
