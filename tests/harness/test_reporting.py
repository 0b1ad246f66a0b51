"""Unit tests for race reports, logs and detection results."""

import pickle

import pytest

from repro.common.events import Site
from repro.reporting import DetectionResult, RaceReport, RaceReportLog


def make_log(n_sites: int = 2, dynamic_per_site: int = 3) -> RaceReportLog:
    log = RaceReportLog("test")
    for s in range(n_sites):
        site = Site("r.c", s)
        for k in range(dynamic_per_site):
            log.add(
                seq=s * 10 + k,
                thread_id=k % 4,
                addr=0x1000 + 4 * s,
                size=4,
                site=site,
                is_write=True,
                detail="x",
            )
    return log


class TestRaceReportLog:
    def test_site_dedup(self):
        log = make_log(n_sites=3, dynamic_per_site=5)
        assert log.dynamic_count == 15
        assert log.alarm_count == 3

    def test_first_for_site(self):
        log = make_log()
        site = Site("r.c", 1)
        first = log.first_for_site(site)
        assert first is not None and first.seq == 10
        assert log.first_for_site(Site("r.c", 99)) is None

    def test_reports_matching(self):
        log = make_log()
        writes = log.reports_matching(lambda r: r.is_write)
        assert len(writes) == log.dynamic_count

    def test_str_rendering(self):
        log = make_log(1, 1)
        text = str(next(iter(log)))
        assert "race" in text and "t0" in text


class TestRaceReport:
    def test_log_builds_the_keyword_equivalent(self):
        report = make_log(n_sites=1, dynamic_per_site=1)._reports[0]
        assert report == RaceReport(
            detector="test",
            seq=0,
            thread_id=0,
            addr=0x1000,
            size=4,
            site=Site("r.c", 0),
            is_write=True,
            detail="x",
        )

    def test_equality_and_hashing(self):
        a, b = make_log(n_sites=1, dynamic_per_site=2)
        again = make_log(n_sites=1, dynamic_per_site=2)._reports[0]
        assert a == again and hash(a) == hash(again)
        assert a != b
        assert len({a, b, again}) == 2

    def test_pickle_round_trip(self):
        for report in make_log():
            clone = pickle.loads(pickle.dumps(report))
            assert clone == report and hash(clone) == hash(report)

    def test_frozen_and_slotted(self):
        report = next(iter(make_log()))
        assert not hasattr(report, "__dict__")
        with pytest.raises(AttributeError):
            report.seq = 1


class TestDetectionResult:
    def test_overhead_fraction(self):
        result = DetectionResult(
            detector="d",
            reports=make_log(),
            cycles=1_050_000,
            detector_extra_cycles=50_000,
        )
        assert result.baseline_cycles == 1_000_000
        assert result.overhead_fraction == 0.05

    def test_zero_cycles_overhead_is_zero(self):
        result = DetectionResult(detector="d", reports=make_log())
        assert result.overhead_fraction == 0.0

    def test_alarm_sites(self):
        result = DetectionResult(detector="d", reports=make_log(2))
        assert len(result.alarm_sites()) == 2


class TestHybridComparison:
    def _result(self, name, n_sites):
        return DetectionResult(detector=name, reports=make_log(n_sites))

    def test_counts_and_containment(self):
        from repro.reporting import hybrid_comparison

        small = self._result("fasttrack", 1)
        large = self._result("multilock-hb", 3)
        data = hybrid_comparison([small, large])
        assert data["alarm_sites"] == {"fasttrack": 1, "multilock-hb": 3}
        # make_log sites nest: site 0 ⊂ {0, 1, 2}.
        assert data["contained"]["fasttrack<=multilock-hb"] is True
        assert data["contained"]["multilock-hb<=fasttrack"] is False

    def test_exclusive_sites_listed(self):
        from repro.reporting import hybrid_comparison

        a = self._result("a", 1)
        b = self._result("b", 2)
        data = hybrid_comparison([a, b])
        assert data["only_in"]["a"] == []
        assert len(data["only_in"]["b"]) == 1
