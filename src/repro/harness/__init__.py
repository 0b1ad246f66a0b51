"""Experiment harness: the paper's evaluation protocol and exhibits."""

from repro.harness.explain import AccessRecord, Explanation, explain_report
from repro.harness.detectors import (
    DETECTOR_KEYS,
    DetectorConfig,
    PAPER_DETECTORS,
    config_signature,
    make_detector,
)
from repro.harness.experiment import CLEAN_RUN, ExperimentRunner, RunOutcome, score_detection
from repro.harness.parallel import GridCell, GridReport, run_grid
from repro.harness.sweeps import SweepCell, SweepResult, sweep
from repro.harness.tracecache import TraceCache
from repro.harness.tracestats import TraceStats, characterize
from repro.harness.tables import (
    PAPER_FIGURE8,
    PAPER_TABLE2,
    figure8,
    render_figure8,
    render_table2,
    render_table3,
    render_table4,
    render_table5,
    render_table6,
    table2,
    table3,
    table4_and_5,
    table6,
)

__all__ = [
    "AccessRecord",
    "Explanation",
    "explain_report",
    "DETECTOR_KEYS",
    "DetectorConfig",
    "PAPER_DETECTORS",
    "config_signature",
    "make_detector",
    "CLEAN_RUN",
    "ExperimentRunner",
    "RunOutcome",
    "score_detection",
    "GridCell",
    "GridReport",
    "run_grid",
    "TraceCache",
    "SweepCell",
    "SweepResult",
    "sweep",
    "TraceStats",
    "characterize",
    "PAPER_FIGURE8",
    "PAPER_TABLE2",
    "figure8",
    "render_figure8",
    "render_table2",
    "render_table3",
    "render_table4",
    "render_table5",
    "render_table6",
    "table2",
    "table3",
    "table4_and_5",
    "table6",
]
