"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.obs import RUNREPORT_SCHEMA_VERSION, validate_jsonl
from repro.obs.perf import BenchResult, write_bench


def bench_artifact(tmp_path, filename, **phases):
    """A small valid BENCH_*.json artifact for --load/--compare tests."""
    result = BenchResult(name="engine", rounds=1)
    for phase, seconds in (phases or {"detect": 1.0}).items():
        result.add_phase(phase, [seconds])
    return write_bench(result, tmp_path / filename)


class TestParser:
    def test_list_parses(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "barnes"])
        assert args.detector == "hard-default"
        assert args.bug_seed is None

    def test_unknown_app_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "linpack"])

    def test_exhibit_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["exhibit", "table9"])

    def test_run_telemetry_flags(self):
        args = build_parser().parse_args(
            ["run", "barnes", "--telemetry", "--flame", "out.txt"]
        )
        assert args.telemetry is True
        assert args.flame == "out.txt"

    def test_bench_defaults(self):
        args = build_parser().parse_args(["bench", "engine"])
        assert args.name == "engine"
        assert args.rounds == 3
        assert args.threshold == pytest.approx(0.10)
        assert args.warn_only is False

    def test_bench_unknown_name_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "linpack"])

    def test_fuzz_and_sweep_accept_obs_flags(self):
        fuzz = build_parser().parse_args(
            ["fuzz", "--seeds", "2", "--metrics", "--trace-out", "t.jsonl"]
        )
        assert fuzz.metrics is True and fuzz.trace_out == "t.jsonl"
        sweep = build_parser().parse_args(
            ["sweep", "--metrics", "--trace-out", "t.jsonl"]
        )
        assert sweep.metrics is True and sweep.trace_out == "t.jsonl"


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "cholesky" in out and "hard-ideal" in out

    def test_collision(self, capsys):
        assert main(["collision"]) == 0
        out = capsys.readouterr().out
        assert "0.0039" in out

    def test_run_detects_injected_bug(self, capsys):
        code = main(
            [
                "run",
                "raytrace",
                "--detector",
                "hard-ideal",
                "--bug-seed",
                "3",
                "--show-alarms",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "injected bug: DETECTED" in out
        assert "alarm:" in out


class TestObservabilityCommands:
    def test_run_json_is_a_single_json_object(self, capsys):
        assert main(["run", "raytrace", "--json", "--bug-seed", "3"]) == 0
        out = capsys.readouterr().out
        report = json.loads(out)  # would raise if anything else was printed
        assert report["app"] == "raytrace"
        assert report["schema_version"] == RUNREPORT_SCHEMA_VERSION
        assert report["verdict"]["detected"] is True
        assert report["trace_events"] > 0
        assert [p["name"] for p in report["phases"]] == [
            "build",
            "interleave",
            "characterize",
            "detect",
        ]

    def test_run_trace_out_validates_against_schema(self, tmp_path, capsys):
        path = tmp_path / "events.jsonl"
        code = main(
            ["run", "raytrace", "--trace-out", str(path), "--bug-seed", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "trace events:" in out
        counts = validate_jsonl(path)
        assert counts["alarm"] > 0
        assert counts["lstate.transition"] > 0

    def test_run_metrics_prints_registry(self, capsys):
        assert main(["run", "raytrace", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "run metrics" in out
        assert "histograms" in out

    def test_profile_prints_breakdown_and_top_events(self, capsys):
        assert main(["profile", "barnes", "hard-default"]) == 0
        out = capsys.readouterr().out
        assert "phase breakdown" in out
        for phase in ("build", "interleave", "characterize", "detect"):
            assert phase in out
        assert "top 10 event types" in out
        assert "lstate.transition" in out
        assert "detect throughput:" in out
        assert "overhead" in out

    def test_profile_defaults_to_hard_default(self):
        args = build_parser().parse_args(["profile", "barnes"])
        assert args.detector == "hard-default"
        assert args.top == 10

    def test_run_telemetry_prints_flight_recorder(self, capsys):
        assert main(["run", "fuzz:3", "--telemetry"]) == 0
        out = capsys.readouterr().out
        assert "flight recorder" in out
        assert "sync density" in out
        assert "events/s" in out

    def test_run_flame_writes_collapsed_stacks(self, tmp_path, capsys):
        path = tmp_path / "flame.txt"
        assert main(["run", "fuzz:3", "--flame", str(path)]) == 0
        lines = path.read_text().splitlines()
        assert lines
        # Every line is "frame;path <integer microseconds>".
        for line in lines:
            stack, micros = line.rsplit(" ", 1)
            assert stack
            assert micros.isdigit()
        assert any(line.startswith("pipeline;") for line in lines)
        assert any(line.startswith("engine;walk") for line in lines)

    def test_run_json_carries_telemetry_block(self, capsys):
        assert main(["run", "fuzz:3", "--json", "--telemetry"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["telemetry"]["schema_version"] == 2
        assert "telemetry.engine.walks" in report["telemetry"]["counters"]
        assert "cache" in report
        # The flight recorder rides the batch walk it describes.
        assert report["engine"] == {
            "requested": "auto",
            "path": "batch",
            "fallback": None,
        }
        cores = report["telemetry"]["cores"]
        assert cores["hard-default"]["stepped"] == report["trace_events"]
        assert cores["hard-default"]["wall_s"] > 0

    def test_run_json_reports_batch_path_without_fallback(self, capsys):
        assert main(["run", "fuzz:3", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["engine"] == {
            "requested": "auto",
            "path": "batch",
            "fallback": None,
        }

    def test_run_telemetry_prints_engine_path(self, capsys):
        assert main(["run", "fuzz:3", "--telemetry"]) == 0
        out = capsys.readouterr().out
        assert "engine path: batch\n" in out
        assert "fallback" not in out

    def test_fuzz_trace_out_validates_against_schema(self, tmp_path, capsys):
        path = tmp_path / "fuzz.jsonl"
        code = main(
            ["fuzz", "--seeds", "2", "--trace-out", str(path), "--metrics"]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "fuzz metrics" in err
        counts = validate_jsonl(path)
        assert counts["fuzz.case"] >= 2

    def test_sweep_obs_flags(self, tmp_path, capsys):
        path = tmp_path / "sweep.jsonl"
        code = main(
            [
                "sweep",
                "--apps",
                "raytrace",
                "--values",
                "8,16",
                "--runs",
                "1",
                "--no-detection",
                "--cache-dir",
                str(tmp_path / "cache"),
                "--metrics",
                "--trace-out",
                str(path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sweep metrics" in out
        assert "harness.traces_built" in out
        counts = validate_jsonl(path)
        assert counts["span"] == 2
        names = [
            json.loads(line)["name"]
            for line in path.read_text().splitlines()
            if line
        ]
        assert names == ["sweep.cell", "sweep.cell"]


class TestBenchCommand:
    def test_load_prints_phase_table(self, tmp_path, capsys):
        artifact = bench_artifact(tmp_path, "BENCH_engine.json", detect=1.5)
        assert main(["bench", "--load", str(artifact)]) == 0
        out = capsys.readouterr().out
        assert "bench engine: 1 round(s)" in out
        assert "detect" in out

    def test_load_json_round_trips(self, tmp_path, capsys):
        artifact = bench_artifact(tmp_path, "BENCH_engine.json")
        assert main(["bench", "--load", str(artifact), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["schema_version"] == 1
        assert data["name"] == "engine"

    def test_no_name_and_no_load_is_usage_error(self, capsys):
        assert main(["bench"]) == 2
        assert "name a benchmark" in capsys.readouterr().err

    def test_corrupt_load_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "BENCH_bad.json"
        path.write_text("{not json")
        assert main(["bench", "--load", str(path)]) == 2

    def test_compare_regression_exits_nonzero(self, tmp_path, capsys):
        old = bench_artifact(tmp_path, "BENCH_old.json", detect=1.0)
        new = bench_artifact(tmp_path, "BENCH_new.json", detect=2.0)
        code = main(["bench", "--load", str(new), "--compare", str(old)])
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_compare_warn_only_downgrades_to_zero(self, tmp_path, capsys):
        old = bench_artifact(tmp_path, "BENCH_old.json", detect=1.0)
        new = bench_artifact(tmp_path, "BENCH_new.json", detect=2.0)
        code = main(
            ["bench", "--load", str(new), "--compare", str(old), "--warn-only"]
        )
        assert code == 0
        assert "warn-only" in capsys.readouterr().err

    def test_compare_self_is_ok(self, tmp_path, capsys):
        artifact = bench_artifact(tmp_path, "BENCH_engine.json", detect=1.0)
        code = main(["bench", "--load", str(artifact), "--compare", str(artifact)])
        assert code == 0
        assert "verdict: OK" in capsys.readouterr().out

    def test_compare_threshold_flag(self, tmp_path):
        old = bench_artifact(tmp_path, "BENCH_old.json", detect=1.0)
        new = bench_artifact(tmp_path, "BENCH_new.json", detect=1.05)
        args = ["bench", "--load", str(new), "--compare", str(old)]
        assert main(args) == 0  # +5% under the default 10% bar
        assert main(args + ["--threshold", "0.01"]) == 1

    def test_bench_engine_runs_end_to_end(self, tmp_path, capsys):
        out_path = tmp_path / "BENCH_engine.json"
        code = main(
            [
                "bench",
                "engine",
                "--app",
                "fuzz:3",
                "--detectors",
                "hard-default,hb-ideal",
                "--rounds",
                "1",
                "--out",
                str(out_path),
                "--json",
            ]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["name"] == "engine"
        assert set(data["phases"]) == {"build", "interleave", "detect"}
        assert json.loads(out_path.read_text()) == data
