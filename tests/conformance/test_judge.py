"""One divergence judge: the conformance harness and the fuzz oracle agree.

Both harnesses classify the hybrid family's gaps through
:func:`repro.hybrids.conformance.judge_family`; on the same trace they must
therefore report the same (pair, site, kind) divergences, and a broken
lattice containment must fail both.
"""

from pathlib import Path

import pytest

from repro.fuzz.corpus import corpus_paths, load_case
from repro.fuzz.generator import generate_program
from repro.fuzz.oracle import LATTICE_BREAK, evaluate_trace
from repro.hybrids import DivergenceKind, check_conformance
from repro.hybrids.acculock import AccuLockCore
from repro.hybrids.conformance import FAMILY_PAIRS
from repro.reporting import DetectionResult, RaceReportLog
from repro.threads.runtime import interleave
from repro.threads.scheduler import RandomScheduler

CORPUS_DIR = Path(__file__).parent.parent / "fuzz" / "corpus"


def _corpus_trace(path):
    case = load_case(path)
    scheduler = RandomScheduler(seed=case.schedule_seed, max_burst=8)
    return interleave(case.program, scheduler).trace


def _fuzz_trace(index):
    scheduler = RandomScheduler(seed=index, max_burst=8)
    return interleave(generate_program(index), scheduler).trace


def _triples(divergences):
    return {(d.direction, d.site, d.kind) for d in divergences}


def _assert_judges_agree(trace):
    verdict = evaluate_trace(trace, engine_path="batch")
    report = check_conformance(trace, engine_path="batch")
    family = [d for d in verdict.divergences if d.direction in FAMILY_PAIRS]
    assert _triples(family) == _triples(report.divergences)
    assert report.ok, report.to_dict()
    assert not [d for d in verdict.divergences if d.direction == LATTICE_BREAK]


class TestJudgeParity:
    @pytest.mark.parametrize(
        "path", corpus_paths(CORPUS_DIR), ids=lambda p: p.stem
    )
    def test_corpus_exemplar(self, path):
        _assert_judges_agree(_corpus_trace(path))

    @pytest.mark.parametrize("index", range(10))
    def test_fuzz_program(self, index):
        _assert_judges_agree(_fuzz_trace(index))


class TestLatticeBreak:
    def test_dropped_acculock_report_fails_both_harnesses(self, monkeypatch):
        # fasttrack reports on this exemplar; an acculock that loses its
        # first report breaks fasttrack ⊆ acculock at (event, site).
        finish = AccuLockCore.finish_batch

        def drop_first(self):
            result = finish(self)
            log = RaceReportLog(result.detector)
            for report in list(result.reports)[1:]:
                log.add(
                    seq=report.seq,
                    thread_id=report.thread_id,
                    addr=report.addr,
                    size=report.size,
                    site=report.site,
                    is_write=report.is_write,
                    detail=report.detail,
                )
            return DetectionResult(result.detector, log, result.stats)

        monkeypatch.setattr(AccuLockCore, "finish_batch", drop_first)
        trace = _corpus_trace(CORPUS_DIR / "exemplar-bloom-collision.json")
        report = check_conformance(trace, engine_path="batch")
        assert not report.ok
        assert any("fasttrack ⊄ acculock" in v for v in report.violations)
        verdict = evaluate_trace(trace, engine_path="batch")
        breaks = [d for d in verdict.unexplained if d.direction == LATTICE_BREAK]
        assert breaks
        assert all(d.kind is DivergenceKind.UNEXPLAINED for d in breaks)
        assert any("fasttrack ⊄ acculock" in d.evidence for d in breaks)
