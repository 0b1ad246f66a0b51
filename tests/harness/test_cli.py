"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.obs import RUNREPORT_SCHEMA_VERSION, validate_jsonl


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

    def test_run_unknown_detector_is_usage_error(self, capsys):
        assert main(["run", "raytrace", "--detector", "nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown detector key 'nope'" in err
        assert "Traceback" not in err

    def test_sweep_unknown_knob_is_usage_error(self, tmp_path, capsys):
        argv = ["sweep", "--parameter", "bogus", "--values", "1"]
        argv += ["--apps", "raytrace", "--cache-dir", str(tmp_path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "unknown detector knob 'bogus'" in err
        assert "granularity" in err and "vector_bits" in err


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
        assert "detect throughput:" in out
        assert "top 10 detector counters" in out
        assert "overhead" in out
        # No emitter rides along: the throughput line times the walk a
        # plain run takes, and the profile says which one.
        assert "engine path: batch" in out
        assert "fallback" not in out
        assert "event types" not in out

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
        assert report["telemetry"]["schema_version"] == 3
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

