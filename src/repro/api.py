"""``repro.api`` — the stable public surface of the reproduction toolkit.

Import from here (or from :mod:`repro`, which re-exports everything below);
the harness internals behind these functions are free to move between
releases, the facade is not.

Four entry points cover the toolkit:

* :func:`run_pipeline` — one workload through one detector with full
  observability; returns a :class:`PipelineRun` whose ``report`` is the
  machine-readable :class:`~repro.obs.runreport.RunReport`.
* :func:`run_table` — regenerate one paper exhibit (``table2`` …
  ``table6``, ``figure8``); returns a :class:`TableResult` with both the
  raw data dict and the rendered text.
* :func:`sweep` — an arbitrary sensitivity study over one
  :class:`DetectorConfig` knob; returns a
  :class:`~repro.harness.sweeps.SweepResult`.
* :func:`detect` — run one detector over a trace you already have;
  returns a :class:`~repro.reporting.DetectionResult`.
* :func:`detect_many` — run several detector configurations over one
  trace in a single engine session (one machine tape per machine
  configuration on the batch walk, bit-for-bit identical results).
* :func:`run_fuzz` — differential fuzzing: generated programs through the
  whole detector suite, every divergence classified against the paper's
  approximation taxonomy; returns a
  :class:`~repro.fuzz.harness.FuzzReport`.

Every grid entry point takes ``jobs``: ``1`` (the default) evaluates the
grid serially, ``N > 1`` fans it out over worker processes via
:mod:`repro.harness.parallel` with bit-for-bit identical results.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from repro.common.coltrace import ColumnarTrace
from repro.common.errors import HarnessError
from repro.common.events import Trace
from repro.engine import EngineSession
from repro.harness import tables as _tables
from repro.harness.detectors import (
    DETECTOR_KEYS,
    DetectorConfig,
    PAPER_DETECTORS,
    config_signature,
    make_detector,
)
from repro.fuzz import (
    DEFAULT_SPEC,
    FuzzCaseResult,
    FuzzReport,
    FuzzSpec,
    OracleConfig,
)
from repro.fuzz import run_fuzz as _run_fuzz
from repro.fuzz.oracle import DEFAULT_ORACLE
from repro.harness.experiment import ExperimentRunner, RunOutcome
from repro.harness.parallel import GridCell, GridReport, default_jobs, run_grid
from repro.harness.pipeline import PipelineRun, run_pipeline
from repro.harness.sweeps import SweepCell, SweepResult
from repro.harness.sweeps import sweep as _sweep
from repro.obs import FlightRecorder, Observability, RunReport
from repro.hybrids import (
    ConformanceReport,
    ConformanceSuiteResult,
    check_conformance,
    run_conformance_suite,
)
from repro.reporting import DetectionResult, hybrid_comparison
from repro.workloads.registry import WORKLOAD_NAMES

#: Exhibit names :func:`run_table` accepts.
EXHIBITS = tuple(_tables.EXHIBITS)


@dataclass
class TableResult:
    """One regenerated paper exhibit.

    Attributes:
        name: the exhibit name (``table2`` … ``figure8``).
        data: the raw exhibit data, keyed by application.
        text: the rendered, paper-shaped table.
        jobs: how many worker processes evaluated the grid.
        metrics: the runner's merged harness metrics (trace builds, cache
            hits, per-phase timers) as a JSON-serialisable dict.
    """

    name: str
    data: dict
    text: str
    jobs: int = 1
    metrics: dict | None = None

    def to_dict(self) -> dict:
        """JSON-serialisable form."""
        return {
            "name": self.name,
            "jobs": self.jobs,
            "data": self.data,
            "text": self.text,
            "metrics": self.metrics,
        }


def detect(
    trace: Trace | ColumnarTrace,
    config: DetectorConfig | str = "hard-default",
    *,
    obs: Observability | None = None,
    engine_path: str = "auto",
    jobs: int = 1,
    **overrides,
) -> DetectionResult:
    """Run one detector configuration over an existing trace.

    ``trace`` may be a :class:`~repro.common.events.Trace` or its packed
    :class:`~repro.common.coltrace.ColumnarTrace` encoding (e.g. straight
    from an mmap-loaded cache file).  ``engine_path`` selects the walk:
    ``"auto"`` uses the vectorized batch kernel, which metrics collection
    and trace emission ride, ``"scalar"`` forces the per-event reference
    walk (which emits no trace events), ``"batch"`` asserts the vectorized
    path is taken, and ``"sharded"`` runs the configuration's batch walk
    through the parallel walk's worker protocol (one configuration is one
    task, so it runs in this process).
    """
    return detect_many(
        trace,
        [DetectorConfig.coerce(config, **overrides)],
        obs=obs,
        engine_path=engine_path,
        jobs=jobs,
    )[0]


def detect_many(
    trace: Trace | ColumnarTrace,
    configs: Sequence[DetectorConfig | str],
    *,
    obs: Observability | None = None,
    engine_path: str = "auto",
    jobs: int = 1,
) -> list[DetectionResult]:
    """Run many detector configurations over one trace in a single pass.

    The trace — either representation, as in :func:`detect` — is walked
    once by an :class:`~repro.engine.EngineSession` feeding every
    configuration's incremental core; with ``engine_path="auto"`` every
    core consumes the columnar encoding through its vectorized batch
    kernel (sharing one prerecorded machine tape), and with
    ``engine_path="scalar"`` steps event by event, each through its own
    simulated machine.  Each
    returned :class:`DetectionResult` is bit-for-bit identical to the
    corresponding standalone :func:`detect` call — the detectors still
    observe the *identical execution*, exactly as the paper's methodology
    requires.  ``engine_path="sharded"`` (or ``"auto"`` with ``jobs > 1``,
    several configurations and a large trace, when ``obs`` observes no
    events) runs each configuration's whole batch walk as one task on up
    to ``jobs`` worker processes.

    Returns one result per entry of ``configs``, in order.
    """
    session = EngineSession(trace, obs=obs, path=engine_path, jobs=jobs)
    for config in configs:
        session.add_config(DetectorConfig.coerce(config))
    return session.run()


def make_runner(
    *,
    workload_seed: object = 0,
    runs: int = 10,
    cache_dir: str | Path | None = None,
    jobs: int = 1,
) -> ExperimentRunner:
    """An :class:`ExperimentRunner` for custom protocols beyond the facade."""
    return ExperimentRunner(
        workload_seed=workload_seed, runs=runs, cache_dir=cache_dir, jobs=jobs
    )


def run_table(
    name: str,
    *,
    apps: tuple[str, ...] = WORKLOAD_NAMES,
    runs: int = 10,
    workload_seed: object = 0,
    cache_dir: str | Path | None = None,
    jobs: int = 1,
) -> TableResult:
    """Regenerate one paper exhibit (Tables 2–6 or Figure 8).

    ``jobs > 1`` evaluates the exhibit's grid across worker processes; the
    returned data and text are bit-for-bit identical to a serial run.
    """
    if name not in EXHIBITS:
        raise HarnessError(f"unknown exhibit {name!r}; expected one of {EXHIBITS}")
    runner = make_runner(
        workload_seed=workload_seed, runs=runs, cache_dir=cache_dir, jobs=jobs
    )
    compute, render = _tables.EXHIBITS[name]
    data = compute(runner, apps)
    text = render(data, runs)
    return TableResult(
        name=name,
        data=data,
        text=text,
        jobs=runner.jobs,
        metrics=runner.metrics.snapshot_all(),
    )


def sweep(
    detector: str = "hard-default",
    parameter: str = "granularity",
    values: list[object] | None = None,
    *,
    apps: tuple[str, ...] = WORKLOAD_NAMES,
    runs: int = 10,
    include_detection: bool = True,
    workload_seed: object = 0,
    cache_dir: str | Path | None = None,
    jobs: int = 1,
    obs: Observability | None = None,
) -> SweepResult:
    """Measure a detector across an arbitrary parameter grid.

    ``parameter`` is any knob of :class:`DetectorConfig`; ``values`` are
    the settings to sweep (defaults to the paper's Table 3 granularities).
    An ``obs`` bundle gets one span per assembled cell and — when its
    registry is shared with the runner, as here — the harness counters;
    the result's ``metrics`` carries the same snapshot either way.
    """
    if values is None:
        values = list(_tables.PAPER_TABLE3_GRANULARITIES)
    runner = ExperimentRunner(
        workload_seed=workload_seed,
        runs=runs,
        cache_dir=cache_dir,
        jobs=jobs,
        metrics=obs.metrics if obs is not None else None,
    )
    return _sweep(
        runner,
        detector=detector,
        parameter=parameter,
        values=values,
        apps=apps,
        include_detection=include_detection,
        obs=obs,
    )


def run_fuzz(
    seeds: int = 100,
    *,
    jobs: int = 1,
    workload_seed: object = 0,
    spec: FuzzSpec = DEFAULT_SPEC,
    config: OracleConfig = DEFAULT_ORACLE,
    corpus_dir: str | Path | None = None,
    log=None,
    obs: Observability | None = None,
) -> FuzzReport:
    """Differential-fuzz ``seeds`` generated programs (see :mod:`repro.fuzz`).

    Every seed produces a clean case and (when an injectable section
    exists) an injected-bug case; each case runs the full detector suite
    and classifies every divergence.  ``jobs > 1`` fans seeds out over
    worker processes with bit-for-bit identical reports; with
    ``corpus_dir`` set, unexplained cases are shrunk to reproducers there.
    An ``obs`` bundle gets one ``fuzz.case`` event per case plus ``fuzz.*``
    counters (emitted after the fan-in; the report is unaffected).
    """
    return _run_fuzz(
        seeds,
        jobs=jobs,
        workload_seed=workload_seed,
        spec=spec,
        config=config,
        corpus_dir=corpus_dir,
        log=log,
        obs=obs,
    )


__all__ = [
    # entry points
    "run_pipeline",
    "run_table",
    "sweep",
    "detect",
    "detect_many",
    "run_fuzz",
    "check_conformance",
    "run_conformance_suite",
    "hybrid_comparison",
    "make_runner",
    "run_grid",
    "default_jobs",
    # typed results
    "PipelineRun",
    "RunReport",
    "TableResult",
    "SweepResult",
    "SweepCell",
    "DetectionResult",
    "RunOutcome",
    "GridReport",
    "FuzzReport",
    "FuzzCaseResult",
    "ConformanceReport",
    "ConformanceSuiteResult",
    # trace representations
    "Trace",
    "ColumnarTrace",
    # configuration surface
    "FuzzSpec",
    "OracleConfig",
    "DetectorConfig",
    "EngineSession",
    "FlightRecorder",
    "GridCell",
    "ExperimentRunner",
    "config_signature",
    "make_detector",
    # vocabularies
    "EXHIBITS",
    "DETECTOR_KEYS",
    "PAPER_DETECTORS",
    "WORKLOAD_NAMES",
    # errors
    "HarnessError",
]
