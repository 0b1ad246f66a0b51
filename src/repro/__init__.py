"""repro — a full reproduction of "HARD: Hardware-Assisted Lockset-based
Race Detection" (HPCA 2007).

The package implements, from scratch:

* :mod:`repro.sim` — a functional CMP memory-hierarchy simulator (private
  L1s, inclusive shared L2, MESI snoopy bus, cycle accounting) standing in
  for the paper's SESC testbed;
* :mod:`repro.threads` — multithreaded program traces, lock/barrier
  semantics and interleaving schedulers;
* :mod:`repro.core` — HARD itself: Bloom-filter candidate sets per cache
  line, per-core Lock/Counter registers, LState pruning, coherence
  piggybacking and broadcast, barrier resets;
* :mod:`repro.lockset` / :mod:`repro.hb` — the ideal lockset and the
  default/ideal happens-before comparison detectors;
* :mod:`repro.hybrids` — the post-HARD lockset×happens-before family
  (the paper's Section 7 future work);
* :mod:`repro.workloads` — six SPLASH-2-like synthetic applications with
  the paper's random lock-omission bug injection;
* :mod:`repro.harness` — the experiment matrix and table generators for
  every evaluation exhibit (Tables 2–6, Figure 8);
* :mod:`repro.obs` — the observability layer: typed trace events, metrics
  (counters/histograms/timers), per-phase profiling, and the
  machine-readable :class:`~repro.obs.runreport.RunReport`;
* :mod:`repro.api` — the **stable public facade**: ``run_pipeline``,
  ``run_table``, ``sweep`` and ``detect`` with typed results, all
  re-exported here.  Prefer these entry points; everything deeper is an
  implementation detail that may move between releases.

Quickstart::

    from repro import (
        build_workload, detect, inject_bug, interleave, RandomScheduler,
    )

    program = build_workload("barnes", seed=1)
    buggy = inject_bug(program, seed=7)
    trace = interleave(buggy, RandomScheduler(seed=3)).trace
    result = detect(trace, "hard-default")
    for report in result.reports:
        print(report)

Or through the facade, with grid parallelism::

    from repro import run_table

    table2 = run_table("table2", cache_dir="results/cache", jobs=4)
    print(table2.text)
"""

from repro.api import (
    DETECTOR_KEYS,
    EXHIBITS,
    DetectorConfig,
    EngineSession,
    ExperimentRunner,
    FuzzReport,
    FuzzSpec,
    GridCell,
    GridReport,
    OracleConfig,
    PipelineRun,
    RunOutcome,
    SweepResult,
    TableResult,
    config_signature,
    detect,
    detect_many,
    make_detector,
    make_runner,
    run_fuzz,
    run_grid,
    run_pipeline,
    run_table,
    sweep,
)
from repro.common.config import (
    BloomConfig,
    HappensBeforeConfig,
    HardConfig,
    MachineConfig,
)
from repro.common.coltrace import ColumnarTrace, SyncRun
from repro.common.events import Site, Trace
from repro.core.bloom import BloomVector, collision_probability
from repro.core.detector import HardDetector
from repro.core.lockregister import LockRegister
from repro.core.lstate import LState
from repro.hb.detector import HappensBeforeDetector
from repro.hb.ideal import IdealHappensBeforeDetector
from repro.lockset.exact import IdealLocksetDetector
from repro.obs import (
    CountingEmitter,
    JsonlEmitter,
    MetricsRegistry,
    Observability,
    PhaseProfiler,
    RunReport,
)
from repro.reporting import DetectionResult, RaceReport, RaceReportLog
from repro.sim.machine import Machine
from repro.threads.runtime import interleave
from repro.threads.scheduler import (
    FixedOrderScheduler,
    RandomScheduler,
    RoundRobinScheduler,
)
from repro.workloads.injection import inject_bug
from repro.workloads.registry import WORKLOAD_NAMES, build_workload

__version__ = "1.1.0"

__all__ = [
    # stable facade (repro.api)
    "run_pipeline",
    "run_table",
    "sweep",
    "detect",
    "detect_many",
    "EngineSession",
    "make_runner",
    "run_fuzz",
    "run_grid",
    "FuzzReport",
    "FuzzSpec",
    "OracleConfig",
    "PipelineRun",
    "TableResult",
    "SweepResult",
    "RunOutcome",
    "GridCell",
    "GridReport",
    "DetectorConfig",
    "ExperimentRunner",
    "config_signature",
    "make_detector",
    "EXHIBITS",
    "DETECTOR_KEYS",
    # building blocks
    "BloomConfig",
    "HappensBeforeConfig",
    "HardConfig",
    "MachineConfig",
    "Site",
    "Trace",
    "ColumnarTrace",
    "SyncRun",
    "BloomVector",
    "collision_probability",
    "HardDetector",
    "LockRegister",
    "LState",
    "HappensBeforeDetector",
    "IdealHappensBeforeDetector",
    "IdealLocksetDetector",
    "Observability",
    "CountingEmitter",
    "JsonlEmitter",
    "MetricsRegistry",
    "PhaseProfiler",
    "RunReport",
    "DetectionResult",
    "RaceReport",
    "RaceReportLog",
    "Machine",
    "interleave",
    "FixedOrderScheduler",
    "RandomScheduler",
    "RoundRobinScheduler",
    "inject_bug",
    "WORKLOAD_NAMES",
    "build_workload",
    "__version__",
]
