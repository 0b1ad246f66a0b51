#!/usr/bin/env python3
"""End-to-end benchmark of the build-to-verdict path.

Run from the repository root::

    python3 benchmarks/e2e/run.py --workload table2-warm --seed 0 --seconds 15 --trace 0

Without ``--workload`` every workload runs in turn.  Each workload is a
closed loop with one client in this one process: a cell starts when the
previous cell has finished, with no worker pool and no sharding.  Passes
over the workload's cells repeat until ``--seconds`` have passed and at
least ``MIN_PASSES`` passes are done.

The shared host runs this process up to about twice as slow in episodes
that can outlast a whole run (README.md has the measurements).  So every
host time is scaled to the reference host's speed, sampled while the
interval ran (``speed.py``), and a cell's time is the median of its
scaled times over the passes.  Every pass starts from the same state
(cold passes get fresh empty cache dirs), so no pass is special.  The
``--out`` record keeps the unscaled values and every scaled cell time.

``setup_s`` is the imports and the golden gate, once per process, plus
the median of ``SETUP_REPEATS`` runs of the workload's own set-up (the
warm cache fill, the observed-run reference), each in a fresh directory.
Every set-up must give the first one's reference verdicts.

Before any workload runs, a golden gate fingerprints ``workload:raytrace``
for the eight batch-capable detector keys and compares it with
``tests/engine/golden_verdicts.json``; a mismatch exits with status 3.
Every cell's verdicts are then checked (see ``Workload.check``); a cell
that raises or whose verdicts differ counts as failed, and any failure
makes the exit status 1.

``--trace 1`` adds one traced pass after the timed window, with wrappers
around each layer's public calls (``layers.py``), and reports the
per-layer metrics instead of the end-to-end ones; its spans are written
to ``.bench_e2e/`` at exit.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Metric names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit("src/repro not found: run this from the root of a checkout of the repository")
sys.path.insert(0, str(ROOT / "src"))

# Set-up is timed from here, so work moved into import time shows in setup_s.
_T0 = time.perf_counter()

from repro.engine import EngineSession  # noqa: E402
from repro.harness.detectors import PAPER_DETECTORS, DetectorConfig  # noqa: E402
from repro.harness.experiment import (  # noqa: E402
    CLEAN_RUN,
    SCHEDULE_MAX_BURST,
    SCHEDULE_MIN_BURST,
    ExperimentRunner,
    schedule_seed_for,
    score_detection,
)
from repro.harness.pipeline import run_pipeline  # noqa: E402
from repro.obs import FlightRecorder, Observability  # noqa: E402
from repro.threads import runtime  # noqa: E402
from repro.threads.scheduler import RandomScheduler  # noqa: E402
from repro.workloads import registry  # noqa: E402

import layers  # noqa: E402
from layers import KEYS  # noqa: E402
from spans import Tracer  # noqa: E402
from speed import SpeedMeter  # noqa: E402

perf = time.perf_counter

SPEC_PATH = ROOT / "BENCHMARK.json"
GOLDEN_PATH = ROOT / "tests" / "engine" / "golden_verdicts.json"
OUT_DIR = ROOT / ".bench_e2e"

#: Passes per run at the least: every cell's time is a median of this many.
MIN_PASSES = 2

#: Runs of the workload's own set-up per run; setup_s takes their median.
#: A table2-warm set-up is a whole cold pass, so more would not fit the
#: run's time budget (README.md).
SETUP_REPEATS = 2

#: One race-free cell (false alarms) and one injected cell (detection).
TABLE2_CELLS = (("raytrace", CLEAN_RUN), ("barnes", 0))
MANYCORE_KEYS = ("hard-default", "hb-default", "software")
VERDICT_COUNTS = ("verdict.bugs_detected", "verdict.false_alarm_sites")


class Verdict(NamedTuple):
    """What a cell's check compares, per detector key."""

    detected: bool
    alarm_count: int
    dynamic_reports: int
    cycles: int
    extra_cycles: int


def _outcome_verdict(outcome) -> Verdict:
    return Verdict(
        outcome.detected,
        outcome.alarm_count,
        outcome.dynamic_reports,
        outcome.cycles,
        outcome.detector_extra_cycles,
    )


def _result_verdict(result, bug) -> Verdict:
    return Verdict(
        score_detection(result, bug),
        result.reports.alarm_count,
        result.reports.dynamic_count,
        result.cycles,
        result.detector_extra_cycles,
    )


@dataclass
class CellResult:
    cell: str
    injected: bool
    #: ``perf_counter`` at the cell's start and end.
    start: float
    end: float
    events: int = 0
    verdicts: dict[str, Verdict] = field(default_factory=dict)
    error: str | None = None

    @property
    def wall_s(self) -> float:
        return self.end - self.start


@dataclass
class Pass:
    start: float
    end: float
    cells: list[CellResult]

    @property
    def wall_s(self) -> float:
        return self.end - self.start


def _run_cell(cell_id: str, injected: bool, body, tracer: Tracer | None) -> CellResult:
    """Time one cell; an exception makes it a failed cell, not a crash."""
    if tracer is not None:
        tracer.cell = cell_id
    t0 = perf()
    try:
        with tracer.span("cell") if tracer is not None else nullcontext():
            events, verdicts = body()
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        return CellResult(cell_id, injected, t0, perf(), error=repr(exc))
    return CellResult(cell_id, injected, t0, perf(), events, verdicts)


# ------------------------------------------------------------------ workloads


class Workload:
    """A named cell list, a set-up, a timed pass and a per-cell check."""

    name = ""

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch
        self.scratch.mkdir(parents=True, exist_ok=True)
        self.cells = list(self.default_cells(seed))
        #: cell id -> key -> Verdict; ``None`` until set-up or the first pass.
        self.reference: dict[str, dict[str, Verdict]] | None = None

    def default_cells(self, seed: int) -> list:
        raise NotImplementedError

    def setup(self, scratch: Path) -> dict[str, dict[str, Verdict]] | None:
        """Work before the first pass, in the fresh directory ``scratch``.

        Returns the reference verdicts the passes are checked against, or
        ``None`` to make the first pass the reference.
        """
        return None

    def cells_pass(self, tracer: Tracer | None) -> list[CellResult]:
        raise NotImplementedError

    def run_pass(self, tracer: Tracer | None = None) -> Pass:
        with tracer.span("pass") if tracer is not None else nullcontext():
            t0 = perf()
            cells = self.cells_pass(tracer)
            return Pass(t0, perf(), cells)

    def check(self, cells: list[CellResult]) -> int:
        """Failed cells of one pass: raised, or verdicts differ from the reference.

        Without a reference from set-up, the first pass becomes it.
        """
        if self.reference is None:
            self.reference = {c.cell: c.verdicts for c in cells if c.error is None}
        return sum(
            1
            for c in cells
            if c.error is not None or self.reference.get(c.cell) != c.verdicts
        )


class Table2(Workload):
    """Table 2 cells through ``ExperimentRunner``, scored by the 8 keys."""

    def default_cells(self, seed):
        return TABLE2_CELLS

    def _runner_cells(self, trace_dir: Path, tape_dir: Path, tracer) -> list[CellResult]:
        configs = [DetectorConfig(key) for key in KEYS]
        out = []
        with ExperimentRunner(
            workload_seed=self.seed, trace_cache_dir=trace_dir, tape_cache_dir=tape_dir
        ) as runner:
            for app, run in self.cells:

                def body(app=app, run=run):
                    outcomes = runner.run_detectors(app, run, configs)
                    events = len(runner.trace_for(app, run))
                    return events, {
                        key: _outcome_verdict(o) for key, o in zip(KEYS, outcomes)
                    }

                out.append(_run_cell(f"{app}/{run}", run != CLEAN_RUN, body, tracer))
        return out


class Table2Cold(Table2):
    """A fresh runner on empty trace and tape cache dirs, verdict cache off."""

    name = "table2-cold"

    def cells_pass(self, tracer):
        fresh = Path(tempfile.mkdtemp(prefix="cold-", dir=self.scratch))
        try:
            return self._runner_cells(fresh / "traces", fresh / "tapes", tracer)
        finally:
            shutil.rmtree(fresh, ignore_errors=True)


class Table2Warm(Table2):
    """Set-up fills the trace and tape caches; each pass uses a fresh runner."""

    name = "table2-warm"

    def setup(self, scratch):
        # The passes read the caches of the last set-up.
        self.caches = scratch
        fill = self._runner_cells(scratch / "traces", scratch / "tapes", None)
        return {c.cell: c.verdicts for c in fill if c.error is None}

    def cells_pass(self, tracer):
        return self._runner_cells(self.caches / "traces", self.caches / "tapes", tracer)


class ObservedRun(Workload):
    """``run_pipeline`` with a flight recorder, as ``repro run --telemetry`` does."""

    name = "observed-run"

    def default_cells(self, seed):
        return [("raytrace", 0)]

    def _pipeline(self, app: str, run: int, obs, engine_path: str):
        pipeline = run_pipeline(
            app,
            list(PAPER_DETECTORS),
            workload_seed=self.seed,
            schedule_seed=schedule_seed_for(app, self.seed, run),
            bug_seed=(self.seed, run) if run != CLEAN_RUN else None,
            obs=obs,
            engine_path=engine_path,
        )
        verdicts = {
            r.detector: _result_verdict(r, pipeline.bug) for r in pipeline.results
        }
        return len(pipeline.trace), verdicts

    def setup(self, scratch):
        # The reference is the batch path with observability off.
        return {
            f"{app}/{run}": self._pipeline(app, run, None, "batch")[1]
            for app, run in self.cells
        }

    def cells_pass(self, tracer):
        out = []
        for app, run in self.cells:

            def body(app=app, run=run):
                obs = Observability(telemetry=FlightRecorder())
                try:
                    return self._pipeline(app, run, obs, "auto")
                finally:
                    obs.close()

            out.append(_run_cell(f"{app}/{run}", run != CLEAN_RUN, body, tracer))
        return out


class ManycoreServer(Workload):
    """Many small cells, each built, interleaved and scored from scratch."""

    name = "manycore-server"

    def default_cells(self, seed):
        return [
            (app, cores, fabric, workload_seed)
            for app in registry.SERVER_WORKLOADS
            for cores in (4, 16, 64)
            for fabric in ("snoopy", "directory")
            for workload_seed in (seed, seed + 1)
        ]

    def cells_pass(self, tracer):
        out = []
        for app, cores, fabric, workload_seed in self.cells:

            def body(app=app, cores=cores, fabric=fabric, workload_seed=workload_seed):
                program = registry.build_workload(app, seed=workload_seed)
                scheduler = RandomScheduler(
                    seed=schedule_seed_for(app, workload_seed, CLEAN_RUN),
                    min_burst=SCHEDULE_MIN_BURST,
                    max_burst=SCHEDULE_MAX_BURST,
                )
                trace = runtime.interleave(program, scheduler).trace
                session = EngineSession(trace)
                for key in MANYCORE_KEYS:
                    session.add_config(
                        DetectorConfig(key, num_cores=cores, coherence=fabric)
                    )
                try:
                    results = session.run()
                finally:
                    session.close()
                return len(trace), {
                    key: _result_verdict(r, None) for key, r in zip(MANYCORE_KEYS, results)
                }

            cell_id = f"{app}/c{cores}/{fabric}/s{workload_seed}"
            out.append(_run_cell(cell_id, False, body, tracer))
        return out


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (Table2Cold, Table2Warm, ObservedRun, ManycoreServer)
}


# ------------------------------------------------------------- golden gate


class GateError(Exception):
    """The golden fingerprint of ``workload:raytrace`` does not match."""


def golden_gate() -> None:
    """Fingerprint ``workload:raytrace`` (seed 0/0) for KEYS against the goldens."""
    golden = json.loads(GOLDEN_PATH.read_text())["workload:raytrace"]
    program = registry.build_workload("raytrace", seed=0)
    trace = runtime.interleave(program, RandomScheduler(seed=0, max_burst=8)).trace
    session = EngineSession(trace)
    for key in KEYS:
        session.add_config(DetectorConfig(key))
    mismatched = []
    for key, result in zip(KEYS, session.run()):
        fingerprint = {
            "dynamic_count": result.reports.dynamic_count,
            "alarm_count": result.reports.alarm_count,
            "alarm_sites": sorted(str(site) for site in result.reports.sites()),
            "cycles": result.cycles,
            "extra_cycles": result.detector_extra_cycles,
        }
        if fingerprint != golden.get(key):
            mismatched.append(key)
    if mismatched:
        raise GateError(f"workload:raytrace differs from the goldens for {mismatched}")


# ----------------------------------------------------------------- metrics


#: ``seconds(start, end)``: how long an interval took, by some clock.
Clock = Callable[[float, float], float]


def wall(start: float, end: float) -> float:
    return end - start


def host_times(
    passes: list[Pass],
    setups: list[tuple[float, float]],
    common: tuple[float, float],
    seconds: Clock,
) -> dict[str, float]:
    """setup_s, events_per_s and cell_p50_ms, with intervals timed by ``seconds``.

    A cell's time is the median of its times over the passes; failed cells
    are left out.
    """
    cells: dict[str, tuple[int, list[float]]] = {}
    for done in passes:
        for cell in done.cells:
            if cell.error is None:
                cells.setdefault(cell.cell, (cell.events, []))[1].append(
                    seconds(cell.start, cell.end)
                )
    medians = [statistics.median(times) for _, times in cells.values()]
    events = sum(n for n, _ in cells.values())
    return {
        "setup_s": seconds(*common) + statistics.median(seconds(*s) for s in setups),
        "events_per_s": events / sum(medians) if medians else 0.0,
        "cell_p50_ms": statistics.median(medians) * 1e3 if medians else 0.0,
    }


def sim_overhead_pct(cells: list[CellResult]) -> float:
    """hard-default's extra cycles over its base cycles, summed (Figure 8)."""
    hard = [c.verdicts["hard-default"] for c in cells if c.error is None]
    extra = sum(v.extra_cycles for v in hard)
    base = sum(v.cycles - v.extra_cycles for v in hard)
    return 100 * extra / base if base > 0 else 0.0


def verdict_counts(cells: list[CellResult]) -> dict[str, int]:
    """hard-default hits on injected cells and alarm sites on clean ones."""
    hard = [(c.injected, c.verdicts["hard-default"]) for c in cells if not c.error]
    bugs = sum(v.detected for injected, v in hard if injected)
    alarms = sum(v.alarm_count for injected, v in hard if not injected)
    return dict(zip(VERDICT_COUNTS, (bugs, alarms)))


# -------------------------------------------------------------------- runs


def host_facts(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": _commit(),
        "seed": seed,
    }


def _commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return "unknown"
    ref = (git / "HEAD").read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: ") :]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, packed_name = line.partition(" ")
            if packed_name == name:
                return sha
    return "unknown"


def set_up(workload: Workload, repeats: int) -> tuple[list[tuple[float, float]], int, int]:
    """Run the workload's set-up ``repeats`` times, each in a fresh directory.

    Every set-up must give the first one's reference.  Returns the start
    and end of each set-up, and the failed and attempted counts of that
    check: one attempt per cell of each later set-up.
    """
    intervals, references = [], []
    for i in range(repeats):
        t0 = perf()
        references.append(workload.setup(workload.scratch / f"setup-{i}"))
        intervals.append((t0, perf()))
    first = workload.reference = references[0]
    if first is None:
        return intervals, 0, 0
    same = [
        later.get(cell) == verdicts
        for later in references[1:]
        for cell, verdicts in first.items()
    ]
    return intervals, same.count(False), len(same)


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    scratch: Path,
    meter: SpeedMeter,
    common: tuple[float, float],
) -> dict:
    """Set up, measure for ``seconds`` and check one workload; returns its record.

    ``meter`` must be sampling throughout; ``common`` is the start and end
    of the process's own set-up (imports and the golden gate).
    """
    workload = WORKLOADS[name](seed, scratch / name)
    setups, failed, attempted = set_up(workload, SETUP_REPEATS)

    passes: list[Pass] = []
    deadline = perf() + seconds
    while len(passes) < MIN_PASSES or perf() < deadline:
        gc.collect()
        done = workload.run_pass()
        failed += workload.check(done.cells)
        attempted += len(done.cells)
        passes.append(done)
    cell_s: dict[str, list[float]] = {}
    for done in passes:
        for cell in done.cells:
            cell_s.setdefault(cell.cell, []).append(meter.scaled(cell.start, cell.end))
    metrics = {
        **host_times(passes, setups, common, meter.scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sim_overhead_pct": sim_overhead_pct(passes[0].cells),
    }
    record = {
        "workload": name,
        "host": host_facts(seed),
        "seconds": seconds,
        "setup": {"common_s": wall(*common), "workload_s": [wall(*s) for s in setups]},
        "passes": [p.wall_s for p in passes],
        "cell_s": cell_s,
        "raw": host_times(passes, setups, common, wall),
        "speed": {
            "samples": len(meter.durations),
            "median_s": statistics.median(meter.durations),
        },
    }
    counts = verdict_counts(passes[0].cells)

    if trace:
        tracer = Tracer()
        gc.collect()
        layers.install(tracer)
        try:
            traced = workload.run_pass(tracer)
        finally:
            tracer.uninstall()
            spans_path = OUT_DIR / f"spans-{name}-s{seed}.jsonl"
            tracer.write_jsonl(spans_path)
        failed += workload.check(traced.cells)
        attempted += len(traced.cells)
        untimed = statistics.median(meter.scaled(p.start, p.end) for p in passes)
        metrics = layers.layer_metrics(tracer.spans, traced.wall_s)
        metrics["tracing_overhead_frac"] = meter.scaled(traced.start, traced.end) / untimed - 1
        metrics.update(verdict_counts(traced.cells))
        metrics["trace.missing_hooks"] = len(tracer.missing)
        record["missing_hooks"] = tracer.missing
        record["spans"] = str(spans_path.relative_to(ROOT))

    record["checks"] = {"error_rate": failed / attempted, **counts}
    record.update(correct=failed == 0, attempted=attempted, failed=failed, metrics=metrics)
    return record


def _result_line(record: dict, units: dict[str, str], names: list[str]) -> str:
    metrics = record["metrics"]
    missing = [n for n in names if n not in metrics]
    if missing:
        raise KeyError(f"metrics not computed: {missing}")
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in names},
        }
    )


def _print_report(record: dict, units: dict[str, str], names: list[str]) -> None:
    host = record["host"]
    setup = record["setup"]
    print(
        f"# {record['workload']}: seed {host['seed']}, {len(record['passes'])} passes "
        f"({', '.join(f'{w:.2f}s' for w in record['passes'])}), "
        f"set-up {setup['common_s']:.2f}s + "
        f"({', '.join(f'{w:.2f}s' for w in setup['workload_s'])}), "
        f"nproc {host['nproc']}, python {host['python']}, commit {host['commit'][:12]}"
    )
    rows = [(n, record["metrics"][n], units[n]) for n in names]
    rows += [(f"{n} (unscaled)", value, units.get(n, "")) for n, value in record["raw"].items()]
    rows.append(("speed probe median (unscaled)", record["speed"]["median_s"], "s"))
    rows += [
        (n, value, "failed/attempted" if n == "error_rate" else "count")
        for n, value in record["checks"].items()
        if n not in names
    ]
    for n, value, unit in rows:
        print(f"{n:<42} {value:>16.6g} {unit}")
    if "spans" in record:
        print(f"spans: {record['spans']}; missing hooks: {record['missing_hooks'] or 'none'}")


def _append_record(path: Path, record: dict) -> None:
    records = json.loads(path.read_text()) if path.exists() else []
    records.append(record)
    path.write_text(json.dumps(records, indent=1) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0)
    parser.add_argument("--out", type=Path, help="append each workload's record to this JSON list")
    args = parser.parse_args(argv)

    spec = json.loads(SPEC_PATH.read_text())
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = [m["name"] for m in group]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    with SpeedMeter() as meter:
        try:
            golden_gate()
        except GateError as exc:
            print(f"golden gate failed: {exc}", file=sys.stderr)
            return 3
        common = (_T0, perf())

        OUT_DIR.mkdir(exist_ok=True)
        scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
        status = 0
        try:
            for name in [args.workload] if args.workload else list(WORKLOADS):
                record = run_workload(
                    name, args.seed, seconds, bool(args.trace), scratch, meter, common
                )
                if args.out is not None:
                    _append_record(args.out, record)
                _print_report(record, units, names)
                print(_result_line(record, units, names), flush=True)
                if not record["correct"]:
                    status = 1
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
