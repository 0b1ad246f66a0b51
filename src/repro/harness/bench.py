"""Named benchmarks behind ``repro bench``: structured, comparable, cheap.

Each benchmark runs a fixed pipeline shape for N rounds, times every phase
per round, and packs the result into the observatory's
:class:`~repro.obs.perf.BenchResult` schema — per-phase min-of-rounds
timings plus a :class:`~repro.obs.telemetry.FlightRecorder` counter
snapshot — so ``BENCH_<name>.json`` artifacts diff cleanly across commits
via :func:`repro.obs.perf.compare_bench`.

Two benchmarks cover the engine's hot paths:

* ``engine`` — the Table 2 cell shape: one interleaved trace scored by
  several detector configurations in a single
  :class:`~repro.engine.EngineSession` pass.  Phases: ``build``,
  ``interleave``, ``detect``.  Detect rounds all score the *same* trace
  (the round-1 interleaving), so the columnar/tape memos amortize exactly
  as they do in a real grid cell where one trace meets many
  configurations — round 1 pays the tape recording, later rounds measure
  the steady-state walk, and min-of-rounds reports the latter.  A
  flight recorder rides the timed rounds, so the telemetry describes the
  walk the timings measure.
* ``engine_sharded`` — the same cell shape on the address-sharded
  parallel path (``path="sharded"``, ``engine_jobs`` worker processes),
  producing a ``BENCH_engine_sharded.json`` CI can compare against the
  single-process ``engine`` artifact of the same commit to gate the
  scale-out win.
* ``pipeline`` — one full observed :func:`~repro.harness.pipeline.run_pipeline`
  (build → interleave → characterize → detect), phases straight from its
  :class:`~repro.obs.profile.PhaseProfiler`.
* ``scaling`` — the many-core study: one trace re-detected at every
  (core count × coherence fabric) coordinate, one timed phase per
  coordinate, with the broadcast-vs-directory traffic estimates in
  ``extras["grid"]``.

All accept ``--app``/``--detectors`` overrides so CI can run the full
water-nsquared cell while tests use a seconds-scale workload.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.common.errors import HarnessError
from repro.engine import EngineSession
from repro.harness.detectors import DetectorConfig
from repro.obs import FlightRecorder, Observability
from repro.obs.perf import BenchResult
from repro.threads.runtime import interleave
from repro.threads.scheduler import RandomScheduler
from repro.workloads.registry import build_workload

#: The Table 2 cell the engine benchmark replays by default, enlarged
#: with the PR-8 hybrid family.  The CI pre-columnar gate pins the
#: original four keys explicitly (its frozen baseline scored exactly
#: those), so growing this default does not erode that margin.
DEFAULT_ENGINE_APP = "water-nsquared"
DEFAULT_ENGINE_DETECTORS = (
    "hard-default",
    "hb-default",
    "software",
    "hb-ideal",
    "fasttrack",
    "acculock",
    "multilock-hb",
)
DEFAULT_PIPELINE_APP = "raytrace"

#: The scaling benchmark's default workload: server-shaped, 8 threads, so
#: growing the core count actually changes thread placement.
DEFAULT_SCALING_APP = "webserver"

#: Names ``run_benchmark`` accepts.
BENCHMARKS = ("engine", "engine_sharded", "pipeline", "scaling")


def _coerce_configs(detectors) -> list[DetectorConfig]:
    if isinstance(detectors, str):
        detectors = [key.strip() for key in detectors.split(",") if key.strip()]
    configs = [DetectorConfig.coerce(key) for key in detectors]
    if not configs:
        raise HarnessError("benchmark needs at least one detector")
    return configs


def _bench_engine(
    *,
    app: str,
    detectors,
    rounds: int,
    workload_seed: int,
    schedule_seed: int,
    engine_path: str,
    engine_jobs: int = 1,
    name: str = "engine",
    log: Callable[[str], None] | None,
) -> BenchResult:
    configs = _coerce_configs(detectors)
    perf = time.perf_counter
    build_s: list[float] = []
    interleave_s: list[float] = []
    detect_s: list[float] = []
    shared_trace = None
    recorder = FlightRecorder()
    for index in range(rounds):
        t0 = perf()
        program = build_workload(app, seed=workload_seed)
        build_s.append(perf() - t0)

        t0 = perf()
        scheduler = RandomScheduler(seed=schedule_seed, max_burst=8)
        trace = interleave(program, scheduler).trace
        interleave_s.append(perf() - t0)
        if shared_trace is None:
            shared_trace = trace

        # Every detect round scores the round-1 trace: the columnar/tape
        # memos live on the trace object, so this measures the same
        # amortization a grid cell sees.
        session = EngineSession(
            shared_trace,
            obs=Observability(telemetry=recorder),
            path=engine_path,
            jobs=engine_jobs,
        )
        for config in configs:
            session.add_config(config)
        t0 = perf()
        session.run()
        detect_s.append(perf() - t0)
        if log is not None:
            log(
                f"round {index + 1}/{rounds}: build {build_s[-1]:.3f}s "
                f"interleave {interleave_s[-1]:.3f}s detect {detect_s[-1]:.3f}s"
            )

    telemetry = recorder.snapshot()
    result = BenchResult(name=name, rounds=rounds)
    result.add_phase("build", build_s)
    result.add_phase("interleave", interleave_s)
    result.add_phase("detect", detect_s)
    result.counters = telemetry["counters"]
    result.extras = {
        "app": app,
        "detectors": [config.key for config in configs],
        "trace_events": len(shared_trace),
        "workload_seed": workload_seed,
        "schedule_seed": schedule_seed,
        "engine_path": engine_path,
        "engine_jobs": engine_jobs,
        "telemetry": {
            "derived": telemetry["derived"],
            "cores": telemetry["cores"],
            "frames": telemetry["frames"],
        },
    }
    return result


def _bench_pipeline(
    *,
    app: str,
    detectors,
    rounds: int,
    workload_seed: int,
    schedule_seed: int,
    log: Callable[[str], None] | None,
) -> BenchResult:
    from repro.harness.pipeline import run_pipeline

    configs = _coerce_configs(detectors)
    detector_key = ",".join(config.key for config in configs)
    recorder = FlightRecorder()
    phase_rounds: dict[str, list[float]] = {}
    trace_events = 0
    for index in range(rounds):
        obs = Observability(telemetry=recorder)
        run = run_pipeline(
            app,
            detector_key,
            workload_seed=workload_seed,
            schedule_seed=schedule_seed,
            obs=obs,
        )
        trace_events = run.report.trace_events
        for record in run.profiler.records:
            phase_rounds.setdefault(record.name, []).append(record.wall_s)
        if log is not None:
            log(
                f"round {index + 1}/{rounds}: "
                f"{run.profiler.total_wall_s:.3f}s total"
            )

    telemetry = recorder.snapshot()
    result = BenchResult(name="pipeline", rounds=rounds)
    for name, rounds_s in phase_rounds.items():
        result.add_phase(name, rounds_s)
    result.counters = telemetry["counters"]
    result.extras = {
        "app": app,
        "detectors": [config.key for config in configs],
        "trace_events": trace_events,
        "workload_seed": workload_seed,
        "schedule_seed": schedule_seed,
        "telemetry": {
            "derived": telemetry["derived"],
            "cores": telemetry["cores"],
            "frames": telemetry["frames"],
        },
    }
    return result


def _bench_scaling(
    *,
    app: str,
    detectors,
    rounds: int,
    workload_seed: int,
    schedule_seed: int,
    engine_path: str,
    log: Callable[[str], None] | None,
) -> BenchResult:
    """Detect-phase timings across the (core count x fabric) machine grid.

    One trace, one detector configuration per (cores, fabric) coordinate;
    each coordinate is its own timed phase (``detect_<fabric>_c<cores>``),
    so ``compare_bench`` flags a regression on *any* machine shape — e.g.
    a sharer-walk that goes quadratic at 64 cores.  ``extras["grid"]``
    records each coordinate's simulated cycles and the
    broadcast-vs-directory control-traffic estimate (the
    ``BENCH_scaling.json`` numbers behind the scaling exhibit).
    """
    from repro.common.config import COHERENCE_KINDS, SCALING_CORE_COUNTS
    from repro.harness.tables import control_traffic

    configs = _coerce_configs(detectors)
    detector = configs[0].key
    coords = [
        (cores, fabric)
        for cores in SCALING_CORE_COUNTS
        for fabric in COHERENCE_KINDS
    ]
    perf = time.perf_counter

    program = build_workload(app, seed=workload_seed)
    scheduler = RandomScheduler(seed=schedule_seed, max_burst=8)
    trace = interleave(program, scheduler).trace

    phase_rounds: dict[str, list[float]] = {}
    grid: dict[str, dict] = {}
    for index in range(rounds):
        for cores, fabric in coords:
            config = DetectorConfig(
                key=detector,
                num_cores=None if cores == 4 else cores,
                coherence=None if fabric == "snoopy" else fabric,
            )
            session = EngineSession(trace, path=engine_path)
            session.add_config(config)
            t0 = perf()
            [result] = session.run()
            elapsed = perf() - t0
            phase = f"detect_{fabric}_c{cores}"
            phase_rounds.setdefault(phase, []).append(elapsed)
            if index == 0:
                stats = result.stats.snapshot()
                cell = control_traffic(stats, cores, fabric)
                cell["cycles"] = result.cycles
                cell["detector_extra_cycles"] = result.detector_extra_cycles
                grid[phase] = cell
        if log is not None:
            total = sum(times[index] for times in phase_rounds.values())
            log(f"round {index + 1}/{rounds}: {total:.3f}s over {len(coords)} cells")

    result = BenchResult(name="scaling", rounds=rounds)
    for phase, times in phase_rounds.items():
        result.add_phase(phase, times)
    result.extras = {
        "app": app,
        "detector": detector,
        "trace_events": len(trace),
        "workload_seed": workload_seed,
        "schedule_seed": schedule_seed,
        "engine_path": engine_path,
        "core_counts": list(SCALING_CORE_COUNTS),
        "fabrics": list(COHERENCE_KINDS),
        "grid": grid,
    }
    return result


def run_benchmark(
    name: str,
    *,
    app: str | None = None,
    detectors=None,
    rounds: int = 3,
    workload_seed: int = 0,
    schedule_seed: int = 0,
    engine_path: str = "auto",
    engine_jobs: int | None = None,
    log: Callable[[str], None] | None = None,
) -> BenchResult:
    """Run one named benchmark and return its structured result.

    Args:
        name: one of :data:`BENCHMARKS`.
        app: workload override (defaults per benchmark).
        detectors: detector keys (sequence or comma-separated string).
        rounds: timing rounds; every phase keeps all of them and the min.
        workload_seed / schedule_seed: the usual determinism knobs.
        engine_path: the ``engine`` benchmark's session walk (``"auto"``,
            ``"batch"``, ``"scalar"``, or ``"sharded"``); ignored by
            ``pipeline``; ``engine_sharded`` forces ``"sharded"``.
        engine_jobs: worker budget of the sharded walk (defaults to the
            CPU count for ``engine_sharded``, 1 otherwise).
        log: optional per-round progress sink (e.g. stderr printer).
    """
    if rounds < 1:
        raise HarnessError(f"rounds must be >= 1, got {rounds}")
    if name == "engine":
        return _bench_engine(
            app=app or DEFAULT_ENGINE_APP,
            detectors=detectors or DEFAULT_ENGINE_DETECTORS,
            rounds=rounds,
            workload_seed=workload_seed,
            schedule_seed=schedule_seed,
            engine_path=engine_path,
            engine_jobs=engine_jobs if engine_jobs is not None else 1,
            log=log,
        )
    if name == "engine_sharded":
        from repro.harness.parallel import default_jobs

        return _bench_engine(
            app=app or DEFAULT_ENGINE_APP,
            detectors=detectors or DEFAULT_ENGINE_DETECTORS,
            rounds=rounds,
            workload_seed=workload_seed,
            schedule_seed=schedule_seed,
            engine_path="sharded",
            engine_jobs=(
                engine_jobs if engine_jobs is not None else default_jobs()
            ),
            name="engine_sharded",
            log=log,
        )
    if name == "scaling":
        return _bench_scaling(
            app=app or DEFAULT_SCALING_APP,
            detectors=detectors or ("hard-default",),
            rounds=rounds,
            workload_seed=workload_seed,
            schedule_seed=schedule_seed,
            engine_path=engine_path,
            log=log,
        )
    if name == "pipeline":
        return _bench_pipeline(
            app=app or DEFAULT_PIPELINE_APP,
            detectors=detectors or ("hard-default",),
            rounds=rounds,
            workload_seed=workload_seed,
            schedule_seed=schedule_seed,
            log=log,
        )
    raise HarnessError(
        f"unknown benchmark {name!r}; expected one of {BENCHMARKS}"
    )
