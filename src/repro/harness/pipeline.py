"""The observed end-to-end pipeline: build → interleave → detect → report.

:func:`run_pipeline` is the single entry point behind ``repro run`` and
``repro profile``: it executes one workload through one or more detectors
with the full observability bundle threaded through every layer, times each
phase with a :class:`~repro.obs.profile.PhaseProfiler`, attributes detector
activity to the detect phase via a stats snapshot/delta, and assembles the
machine-readable :class:`~repro.obs.runreport.RunReport`.

The detect phase is one :class:`~repro.engine.EngineSession` pass: every
requested detector's incremental core consumes the identical trace
(and, on the batch walk, configurations with equal machines share one
prerecorded machine tape), so
``detector_key="hard-default,hb-default"`` costs far less than two
pipeline runs while producing the same per-detector results.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.events import Trace
from repro.engine import EngineSession
from repro.harness.detectors import DetectorConfig
from repro.harness.experiment import score_detection
from repro.harness.tracestats import characterize
from repro.obs import Observability, PhaseProfiler, RunReport, cycles_entry
from repro.reporting import DetectionResult
from repro.threads.program import InjectedBug, ParallelProgram
from repro.threads.runtime import interleave
from repro.threads.scheduler import RandomScheduler
from repro.workloads.injection import inject_bug
from repro.workloads.registry import build_workload


@dataclass
class PipelineRun:
    """Everything one :func:`run_pipeline` call produced.

    ``result`` is the primary (first-requested) detector's outcome; when
    several detectors ran in the session, ``results`` holds all of them in
    request order (``results[0] is result``).
    """

    report: RunReport
    result: DetectionResult
    trace: Trace
    program: ParallelProgram
    profiler: PhaseProfiler
    bug: InjectedBug | None = None
    results: list[DetectionResult] = field(default_factory=list)


def _coerce_detector_keys(detector_key) -> list[DetectorConfig | str]:
    """Normalise ``detector_key`` into a non-empty list of configurations.

    Accepts a single key or :class:`DetectorConfig`, a comma-separated
    string of keys, or a sequence of either.
    """
    if isinstance(detector_key, str):
        keys = [part.strip() for part in detector_key.split(",") if part.strip()]
    elif isinstance(detector_key, DetectorConfig):
        keys = [detector_key]
    else:
        keys = list(detector_key)
    if not keys:
        raise ValueError(f"no detector named in {detector_key!r}")
    return keys


def _bug_entry(bug: InjectedBug | None) -> dict | None:
    """Ground-truth summary of the injected bug for the report."""
    if bug is None:
        return None
    return {
        "thread_id": bug.thread_id,
        "lock_addr": bug.lock_addr,
        "sites": [str(site) for site in bug.sites],
    }


def run_pipeline(
    app: str,
    detector_key: str = "hard-default",
    *,
    workload_seed: int = 0,
    schedule_seed: int = 0,
    bug_seed: int | None = None,
    obs: Observability | None = None,
    jobs: int = 1,
    engine_path: str = "auto",
    **detector_overrides,
) -> PipelineRun:
    """Run one workload through one detector with full observability.

    Args:
        app: workload name from :data:`repro.workloads.registry.WORKLOAD_NAMES`.
        detector_key: detector configuration key (or a
            :class:`~repro.harness.detectors.DetectorConfig`) for
            :func:`repro.harness.detectors.make_detector`; a
            comma-separated string or a sequence of keys runs every named
            detector in one engine pass over the same trace.
        workload_seed: seed of the workload generator.
        schedule_seed: seed of the interleaving scheduler.
        bug_seed: when given, inject a dynamic race with this seed before
            interleaving (the ``repro run --bug-seed`` protocol).
        obs: observability bundle; defaults to a fresh disabled bundle so
            the report still carries phases, verdict and cycle accounting.
        jobs: accepted so callers can thread one ``--jobs`` value through
            every entry point uniformly.  A single pipeline execution is
            one grid cell, so grid fan-out doesn't apply — but the detect
            phase's engine session receives the budget, so ``jobs > 1``
            lets the address-sharded path spread one large trace across
            worker processes (``engine_path="sharded"`` forces it).
        engine_path: the engine walk strategy (``"auto"``, ``"batch"``,
            ``"scalar"``, or ``"sharded"``), threaded into the detect
            phase's :class:`~repro.engine.EngineSession`.
        **detector_overrides: configuration overrides for the detector.

    Returns:
        A :class:`PipelineRun` whose ``report`` is JSON-serialisable.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if obs is None:
        obs = Observability()
    profiler = PhaseProfiler(emitter=obs.emitter)

    with profiler.phase("build", app=app, seed=workload_seed):
        program = build_workload(app, seed=workload_seed)
        bug = None
        if bug_seed is not None:
            program = inject_bug(program, seed=bug_seed)
            bug = program.injected_bug

    with profiler.phase("interleave") as rec:
        scheduler = RandomScheduler(seed=schedule_seed, max_burst=8)
        interleaved = interleave(program, scheduler, obs=obs)
        trace = interleaved.trace
        rec.extras["events"] = len(trace)
        rec.extras["context_switches"] = interleaved.context_switches

    with profiler.phase("characterize"):
        workload = characterize(trace).to_dict()

    configs = [
        DetectorConfig.coerce(key, **detector_overrides)
        for key in _coerce_detector_keys(detector_key)
    ]
    detector_label = ",".join(cfg.key for cfg in configs)
    with profiler.phase("detect", detector=detector_label) as rec:
        before = obs.metrics.snapshot()
        session = EngineSession(trace, obs=obs, path=engine_path, jobs=jobs)
        for cfg in configs:
            session.add_config(cfg)
        results = session.run()
        result = results[0]
        rec.counters_delta = result.stats.snapshot()
        for name, value in obs.metrics.delta(before).items():
            rec.counters_delta.setdefault(name, value)

    detect_wall = profiler.records[-1].wall_s
    throughput = {
        "trace_events": len(trace),
        "detect_wall_s": detect_wall,
        "events_per_s": len(trace) / detect_wall if detect_wall > 0 else 0.0,
    }
    emitted = getattr(obs.emitter, "counts", None)
    if emitted is not None and detect_wall > 0:
        throughput["trace_events_emitted"] = sum(emitted.values())
        throughput["emitted_per_s"] = sum(emitted.values()) / detect_wall

    verdict: dict = {
        "detected": score_detection(result, bug) if bug is not None else None,
        "dynamic_reports": result.reports.dynamic_count,
        "alarms": result.reports.alarm_count,
        "alarm_sites": sorted(str(site) for site in result.reports.sites()),
    }
    if len(results) > 1:
        verdict["detectors"] = {
            r.detector: {
                "detected": score_detection(r, bug) if bug is not None else None,
                "dynamic_reports": r.reports.dynamic_count,
                "alarms": r.reports.alarm_count,
            }
            for r in results
        }

    recorder = obs.telemetry
    if recorder is not None:
        # Per-phase wall time lands in the flame frames too, so a collapsed
        # dump shows the whole pipeline, not just the engine walk.
        for record in profiler.records:
            recorder.record_frame(("pipeline", record.name), record.wall_s)
    telemetry = recorder.snapshot() if recorder is not None else {}

    metrics = obs.metrics.snapshot_all()
    cache = {
        name: value
        for name, value in metrics["counters"].items()
        if name.startswith("harness.")
    }
    report = RunReport(
        app=app,
        detector=detector_label,
        workload_seed=workload_seed,
        schedule_seed=schedule_seed,
        bug_seed=bug_seed,
        bug=_bug_entry(bug),
        trace_events=len(trace),
        verdict=verdict,
        cycles=cycles_entry(result.cycles, result.detector_extra_cycles),
        workload=workload,
        phases=profiler.to_dicts(),
        counters=result.stats.snapshot(),
        histograms=metrics["histograms"],
        timers=metrics["timers"],
        event_counts=dict(emitted) if emitted is not None else {},
        throughput=throughput,
        cache=cache,
        telemetry=telemetry,
        engine={
            "requested": engine_path,
            "path": session.path_taken,
            "fallback": session.fallback,
        },
    )
    return PipelineRun(
        report=report,
        result=result,
        trace=trace,
        program=program,
        profiler=profiler,
        bug=bug,
        results=results,
    )
