"""Unit tests for the experiment runner (protocol + caching)."""

import json

import pytest

from repro.common.events import Site
from repro.harness.detectors import DETECTOR_KEYS, config_signature, make_detector
from repro.harness.experiment import CLEAN_RUN, ExperimentRunner, score_detection
from repro.reporting import DetectionResult, RaceReportLog
from repro.threads.program import InjectedBug


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner()


class TestProtocol:
    def test_clean_run_has_no_bug(self, runner):
        program = runner.program_for("raytrace", CLEAN_RUN)
        assert program.injected_bug is None

    def test_each_run_has_a_distinct_bug(self, runner):
        bugs = {
            runner.program_for("raytrace", run).injected_bug for run in range(5)
        }
        assert len(bugs) >= 4  # random collisions are possible but rare

    def test_traces_are_memoised(self, runner):
        t1 = runner.trace_for("raytrace", CLEAN_RUN)
        t2 = runner.trace_for("raytrace", CLEAN_RUN)
        assert t1 is t2

    def test_drop_trace_releases(self, runner):
        runner.trace_for("raytrace", 0)
        runner.drop_trace("raytrace", 0)
        assert ("raytrace", 0) not in runner._traces

    def test_all_detectors_consume_identical_trace(self, runner):
        """The Section 5.1 methodology: identical executions."""
        trace = runner.trace_for("raytrace", 1)
        again = runner.trace_for("raytrace", 1)
        assert trace is again


class TestMemoMetrics:
    def test_hit_miss_counters(self):
        runner = ExperimentRunner()
        runner.trace_for("raytrace", CLEAN_RUN)
        runner.trace_for("raytrace", CLEAN_RUN)
        runner.trace_for("raytrace", CLEAN_RUN)
        counters = runner.metrics.snapshot()
        assert counters["harness.trace_memo_misses"] == 1
        assert counters["harness.trace_memo_hits"] == 2
        assert counters["harness.traces_built"] == 1

    def test_eviction_counter(self):
        runner = ExperimentRunner(trace_memo_limit=1)
        runner.trace_for("raytrace", CLEAN_RUN)
        runner.trace_for("raytrace", 0)  # evicts the clean-run trace
        runner.trace_for("raytrace", CLEAN_RUN)  # miss again: rebuilt
        counters = runner.metrics.snapshot()
        assert counters["harness.trace_memo_evictions"] == 2
        assert counters["harness.trace_memo_misses"] == 3
        assert counters.get("harness.trace_memo_hits", 0) == 0

    def test_shared_registry_surfaces_counters(self):
        from repro.obs import MetricsRegistry

        shared = MetricsRegistry()
        runner = ExperimentRunner(metrics=shared)
        assert runner.metrics is shared
        runner.trace_for("raytrace", CLEAN_RUN)
        assert shared.snapshot()["harness.trace_memo_misses"] == 1


class TestScoring:
    def make_result(self, addr: int, site: Site) -> DetectionResult:
        log = RaceReportLog("d")
        log.add(
            seq=0, thread_id=0, addr=addr, size=4, site=site, is_write=True
        )
        return DetectionResult(detector="d", reports=log)

    def bug(self) -> InjectedBug:
        return InjectedBug(
            thread_id=0,
            lock_addr=0x10,
            lock_op_index=0,
            unlock_op_index=2,
            chunk_addresses=frozenset({0x2000, 0x2004}),
            sites=frozenset({Site("b.c", 1)}),
        )

    def test_address_overlap_scores(self):
        result = self.make_result(0x2002, Site("other.c", 9))
        assert score_detection(result, self.bug())

    def test_site_match_scores(self):
        result = self.make_result(0x9999000, Site("b.c", 1))
        assert score_detection(result, self.bug())

    def test_unrelated_report_does_not_score(self):
        result = self.make_result(0x9999000, Site("other.c", 9))
        assert not score_detection(result, self.bug())

    def test_clean_run_never_scores(self):
        result = self.make_result(0x2000, Site("b.c", 1))
        assert not score_detection(result, None)


class TestDiskCache(object):
    def test_cache_round_trip(self, tmp_path):
        runner = ExperimentRunner(cache_dir=tmp_path)
        first = runner.run_detector("raytrace", CLEAN_RUN, "hard-ideal")
        # A second runner with the same cache dir must not recompute.
        runner2 = ExperimentRunner(cache_dir=tmp_path)
        second = runner2.run_detector("raytrace", CLEAN_RUN, "hard-ideal")
        assert runner2.metrics.snapshot()["harness.verdict_cache_hits"] == 1
        # The whole verdict survives the round trip, sites and stats too.
        assert second == first
        assert len(second.sites) == second.alarm_count
        assert second.stats

    def test_cache_write_is_atomic(self, tmp_path):
        runner = ExperimentRunner(cache_dir=tmp_path)
        runner.run_detector("raytrace", CLEAN_RUN, "hard-ideal")
        # The rename-into-place protocol leaves no temp files behind and
        # every cache entry is complete, parseable JSON.
        leftovers = list(tmp_path.glob("*.tmp"))
        assert leftovers == []
        entries = list(tmp_path.glob("*.json"))
        assert entries
        for entry in entries:
            data = json.loads(entry.read_text())
            assert "signature" in data

    @pytest.mark.parametrize(
        "damage",
        (
            lambda text: text[: len(text) // 2],
            lambda text: "[]",
            lambda text: text.replace('"cycles"', '"cycels"'),
            lambda text: text.replace('"sites"', '"setis"'),
        ),
        ids=("truncated", "not-an-object", "missing-cycles", "missing-sites"),
    )
    def test_damaged_entry_is_a_miss(self, tmp_path, damage):
        first = ExperimentRunner(cache_dir=tmp_path).run_detector(
            "radix", CLEAN_RUN, "hb-ideal"
        )
        (entry,) = tmp_path.glob("*.json")
        entry.write_text(damage(entry.read_text()))
        runner = ExperimentRunner(cache_dir=tmp_path)
        again = runner.run_detector("radix", CLEAN_RUN, "hb-ideal")
        assert again.to_dict() == first.to_dict()
        assert "harness.verdict_cache_hits" not in runner.metrics.snapshot()
        # The recomputed verdict was written back, whole.
        assert json.loads(entry.read_text())["cycles"] == first.cycles

    def test_outcome_to_dict(self, tmp_path):
        runner = ExperimentRunner(cache_dir=tmp_path)
        outcome = runner.run_detector("raytrace", CLEAN_RUN, "hard-ideal")
        data = outcome.to_dict()
        assert data["app"] == "raytrace"
        assert data["overhead_fraction"] == outcome.overhead_fraction

    def test_signature_distinguishes_overrides(self):
        a = config_signature("hard-default", granularity=4)
        b = config_signature("hard-default", granularity=8)
        c = config_signature("hard-default")
        assert len({a, b, c}) == 3

    def test_none_overrides_ignored(self):
        assert config_signature("x", l2_size=None) == config_signature("x")


class TestMakeDetector:
    def test_all_keys_construct(self):
        for key in DETECTOR_KEYS:
            detector = make_detector(key)
            assert detector.name == key

    def test_unknown_key_rejected(self):
        from repro.common.errors import HarnessError

        with pytest.raises(HarnessError):
            make_detector("magic")

    def test_overrides_apply(self):
        hard = make_detector("hard-default", granularity=8, vector_bits=32)
        assert hard.config.granularity == 8
        assert hard.config.bloom.vector_bits == 32
        ideal = make_detector("hard-ideal", granularity=16)
        assert ideal.granularity == 16


def held_programs(runner) -> list:
    """Every ParallelProgram reachable from the runner's own attributes."""
    from repro.threads.program import ParallelProgram

    found = []
    for value in vars(runner).values():
        if isinstance(value, dict):
            items = list(value.values())
        elif isinstance(value, tuple):
            items = list(value)
        else:
            items = [value]
        found.extend(item for item in items if isinstance(item, ParallelProgram))
    return found


def programs_built(runner) -> int:
    """How many programs the runner has built (its ``programs_built`` counter)."""
    return runner.metrics.snapshot().get("harness.programs_built", 0)


class TestColumnMemo:
    """The runner memo holds columns and verdicts, never a program.

    A program is built only on a trace-cache miss: once per cold (app, run),
    never for a warm cell or a verdict-cache hit.
    """

    CONFIGS = ("hard-default", "hb-ideal")

    @staticmethod
    def warm_runner(cache_dir) -> ExperimentRunner:
        """Trace and tape caches, no verdict cache: every call walks."""
        return ExperimentRunner(
            trace_cache_dir=cache_dir / "traces", tape_cache_dir=cache_dir / "tapes"
        )

    @pytest.fixture(scope="class")
    def cache_dir(self, tmp_path_factory):
        cache_dir = tmp_path_factory.mktemp("warm")
        with self.warm_runner(cache_dir) as cold:
            cold.run_detectors("raytrace", 0, self.CONFIGS)
            assert programs_built(cold) == 1
        return cache_dir

    def test_warm_cell_decodes_nothing_and_holds_no_program(self, cache_dir):
        with self.warm_runner(cache_dir) as runner:
            outcomes = runner.run_detectors("raytrace", 0, self.CONFIGS)
            assert runner.trace_cache.hits == 1
            trace = runner.trace_for("raytrace", 0)
            assert trace._events is None
            assert held_programs(runner) == []
            assert programs_built(runner) == 0
            assert outcomes[0].detected

    def test_cold_cell_holds_columns_not_events(self):
        runner = ExperimentRunner()
        runner.run_detectors("raytrace", CLEAN_RUN, ["hb-ideal"])
        assert runner.trace_for("raytrace", CLEAN_RUN)._events is None
        assert held_programs(runner) == []
        assert programs_built(runner) == 1

    def test_one_program_per_cold_run(self):
        runner = ExperimentRunner()
        runner.run_detectors("raytrace", CLEAN_RUN, ["hb-ideal"])
        runner.run_detectors("raytrace", CLEAN_RUN, ["hard-ideal"])
        assert runner.injected_bug("raytrace", CLEAN_RUN) is None
        assert programs_built(runner) == 1
        runner.run_detectors("raytrace", 0, ["hb-ideal"])
        assert programs_built(runner) == 2

    def test_verdict_cache_hits_release_the_program(self, tmp_path):
        ExperimentRunner(cache_dir=tmp_path).run_detector(
            "raytrace", CLEAN_RUN, "hb-ideal"
        )
        runner = ExperimentRunner(cache_dir=tmp_path)
        runner.run_detector("raytrace", CLEAN_RUN, "hb-ideal")
        assert runner.metrics.snapshot()["harness.verdict_cache_hits"] == 1
        # A hit needs neither a program nor a trace.
        assert programs_built(runner) == 0
        assert not runner._traces
        assert held_programs(runner) == []

    @pytest.mark.parametrize("run", [CLEAN_RUN, 0, 1, 2, 3, 4])
    def test_injected_bug_matches_the_program(self, runner, run):
        assert runner.injected_bug("raytrace", run) == (
            runner.program_for("raytrace", run).injected_bug
        )

    def test_lazy_events_equal_the_columns(self):
        runner = ExperimentRunner()
        trace = runner.trace_for("raytrace", CLEAN_RUN)
        cols = trace.columns()
        assert trace._events is None
        assert trace.events == cols.to_events()

    def test_decoding_after_close_raises(self, cache_dir):
        from repro.common.errors import ReproError

        runner = self.warm_runner(cache_dir)
        trace = runner.trace_for("raytrace", 0)
        runner.close()
        with pytest.raises(ReproError, match="closing the runner"):
            trace.events

    def test_close_clears_every_per_run_memo(self, cache_dir):
        runner = self.warm_runner(cache_dir)
        runner.run_detectors("raytrace", 0, self.CONFIGS)
        runner.injected_bug("raytrace", CLEAN_RUN)  # a second trace, no verdict
        assert len(runner._traces) == 2 and runner._outcomes
        assert held_programs(runner) == []
        runner.close()
        memos = ("_traces", "_outcomes")
        assert {name: len(getattr(runner, name)) for name in memos} == dict.fromkeys(
            memos, 0
        )
        assert held_programs(runner) == []
