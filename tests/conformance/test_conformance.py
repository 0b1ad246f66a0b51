"""The cross-detector conformance harness (the PR 8 tentpole).

Pins the hybrid-family warning lattice on every workload, every checked-in
fuzz exemplar, and fresh seeded corpora:

    fasttrack == hb-ideal ⊆ acculock ⊆ multilock-hb ⊆ strict-lockset

with every divergence between adjacent members machine-classified (no
``unexplained`` kind anywhere), and batch/scalar bit-for-bit parity for
every new core.
"""

from pathlib import Path

import pytest

from repro.fuzz.corpus import corpus_paths, load_case
from repro.fuzz.generator import generate_program
from repro.hybrids import (
    ConformanceReport,
    check_conformance,
    run_conformance_suite,
    strict_lockset_sites,
)
from repro.hybrids.conformance import DivergenceKind, suite_specs
from repro.threads.runtime import interleave
from repro.threads.scheduler import RandomScheduler
from repro.workloads import WORKLOAD_NAMES, build_workload

CORPUS_DIR = Path(__file__).parent.parent / "fuzz" / "corpus"

HB_SCHEDULE_MISS = DivergenceKind.HB_SCHEDULE_MISS
LOCKSET_FALSE_POSITIVE = DivergenceKind.LOCKSET_FALSE_POSITIVE
LSTATE_FORGIVEN = DivergenceKind.LSTATE_FORGIVEN
MULTI_LOCKSET_WITNESS = DivergenceKind.MULTI_LOCKSET_WITNESS
PAIRWISE_LOCKSET = DivergenceKind.PAIRWISE_LOCKSET
UNEXPLAINED = DivergenceKind.UNEXPLAINED

#: Every kind the classifier may emit (the JSON vocabulary).
KNOWN_KINDS = {
    HB_SCHEDULE_MISS,
    MULTI_LOCKSET_WITNESS,
    LOCKSET_FALSE_POSITIVE,
    PAIRWISE_LOCKSET,
    LSTATE_FORGIVEN,
    UNEXPLAINED,
}


def _workload_trace(app: str, schedule_seed: int = 0):
    program = build_workload(app, seed=0)
    scheduler = RandomScheduler(seed=schedule_seed, max_burst=8)
    return interleave(program, scheduler).trace


def _assert_lattice(report: ConformanceReport) -> None:
    """The site-count shadow of the event-level chain."""
    counts = report.alarm_sites
    assert counts["fasttrack"] == counts["hb-ideal"]
    assert counts["fasttrack"] <= counts["acculock"]
    assert counts["acculock"] <= counts["multilock-hb"]
    assert counts["multilock-hb"] <= counts["strict-lockset"]


class TestWorkloadLattice:
    @pytest.mark.parametrize("app", WORKLOAD_NAMES)
    def test_chain_holds_and_gaps_classified(self, app):
        report = check_conformance(_workload_trace(app), label=app)
        assert report.violations == (), report.violations
        assert not report.unexplained, [
            d.to_dict() for d in report.unexplained
        ]
        assert report.ok
        _assert_lattice(report)
        for divergence in report.divergences:
            assert divergence.kind in KNOWN_KINDS

    def test_second_schedule_seed(self):
        # The lattice is a theorem about the trace, not about one lucky
        # schedule; spot-check a different interleaving.
        report = check_conformance(_workload_trace("cholesky", 7))
        assert report.ok
        _assert_lattice(report)


class TestCorpusExemplars:
    @pytest.mark.parametrize(
        "path", corpus_paths(CORPUS_DIR), ids=lambda p: p.stem
    )
    def test_exemplar_conforms_with_parity(self, path):
        # The corpus traces are small: run the full family on BOTH engine
        # walks and demand bit-for-bit identical fingerprints on top of
        # the lattice itself.
        case = load_case(path)
        scheduler = RandomScheduler(seed=case.schedule_seed, max_burst=8)
        trace = interleave(case.program, scheduler).trace
        report = check_conformance(trace, check_parity=True, label=path.stem)
        assert report.ok, report.to_dict()
        _assert_lattice(report)

    def test_ordered_by_sync_is_schedule_miss(self):
        # The Figure 1 exemplar: the hybrid out-warns exact HB and the
        # classifier must prove it via the strict-lockset envelope.
        path = CORPUS_DIR / "exemplar-ordered-by-sync.json"
        case = load_case(path)
        scheduler = RandomScheduler(seed=case.schedule_seed, max_burst=8)
        trace = interleave(case.program, scheduler).trace
        report = check_conformance(trace)
        assert report.ok
        kinds = {d.kind for d in report.divergences}
        assert HB_SCHEDULE_MISS in kinds

    def test_pairwise_lockset_exemplar(self):
        # {A,B} ∩ {B,C} ∩ {A,C} = ∅: exact lockset warns, the whole hybrid
        # family is silent, and the classifier must prove the gap with the
        # no-weak-HB ablation (not just the strict envelope).
        path = CORPUS_DIR / "exemplar-pairwise-lockset.json"
        case = load_case(path)
        scheduler = RandomScheduler(seed=case.schedule_seed, max_burst=8)
        trace = interleave(case.program, scheduler).trace
        report = check_conformance(trace)
        assert report.ok
        assert report.alarm_sites["exact-lockset"] > 0
        assert report.alarm_sites["multilock-hb"] == 0
        kinds = {d.kind for d in report.divergences}
        assert PAIRWISE_LOCKSET in kinds


class TestFreshFuzzCorpora:
    @pytest.mark.parametrize("index", (1, 5, 9))
    def test_fresh_seeded_program_conforms(self, index):
        program = generate_program(index)
        scheduler = RandomScheduler(seed=index, max_burst=8)
        trace = interleave(program, scheduler).trace
        report = check_conformance(trace, check_parity=True)
        assert report.ok, report.to_dict()
        _assert_lattice(report)


class TestStrictEnvelope:
    def test_strict_warns_on_bare_shared_writes(self):
        from repro.common.events import Site, write
        from repro.common.events import Trace

        trace = Trace(num_threads=2)
        site = Site(file="t.c", line=1, label="w")
        trace.append(0, write(0x100, site))
        trace.append(1, write(0x100, site))
        strict = strict_lockset_sites(trace)
        assert strict.sites == frozenset({("t.c", 1, "w")})
        # The warning fires at the second access (first foreign touch).
        assert strict.events == frozenset({(1, ("t.c", 1, "w"))})

    def test_strict_is_single_thread_silent(self):
        from repro.common.events import Site, write
        from repro.common.events import Trace

        trace = Trace(num_threads=1)
        site = Site(file="t.c", line=1, label="w")
        for _ in range(4):
            trace.append(0, write(0x100, site))
        assert strict_lockset_sites(trace).sites == frozenset()


class TestSuiteRunner:
    def test_specs_are_deterministic(self):
        a = suite_specs(apps=("cholesky",), fuzz_seeds=(0, 1))
        b = suite_specs(apps=("cholesky",), fuzz_seeds=(0, 1))
        assert a == b
        assert [s[0] for s in a] == ["workload", "fuzz", "fuzz"]

    def test_parallel_matches_serial(self):
        kwargs = dict(
            apps=(),
            fuzz_seeds=(2, 4),
            schedule_seeds=(0,),
            check_parity=False,
        )
        serial = run_conformance_suite(jobs=1, **kwargs)
        parallel = run_conformance_suite(jobs=2, **kwargs)
        assert serial.ok and parallel.ok
        assert serial.to_dict() == parallel.to_dict()

    def test_corpus_dir_cases_included(self):
        result = run_conformance_suite(
            apps=(), corpus_dir=str(CORPUS_DIR), check_parity=False
        )
        assert len(result.reports) == len(corpus_paths(CORPUS_DIR))
        assert result.ok
        assert result.to_dict()["failures"] == 0
