"""Generic parameter sweeps over detector configurations.

The paper's Tables 3–6 are fixed sweeps; this module exposes the same
machinery for arbitrary grids, so users can run their own sensitivity
studies (e.g. L2 sizes the paper didn't test, 8-bit Bloom vectors, the
broadcast/counter-register ablations across every application) with the
harness's caching and scoring.

:func:`score_columns` is the one scoring shape every sweep and exhibit
column shares: bugs detected over the injected runs plus the clean run's
alarms, for each (application, configuration) column.  It declares the
whole grid once and scores it in one :meth:`ExperimentRunner.outcomes`
call, so a runner built with ``jobs > 1`` evaluates the grid across worker
processes with identical results.  The runner chunks the grid by (app,
run) execution and scores every configuration of a chunk in one
single-pass :class:`~repro.engine.EngineSession` walk of that execution's
trace — a sweep of N settings walks each trace once, not N times, while
each cell's outcome stays bit-for-bit what a standalone evaluation
produces.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Iterable

from repro.harness.detectors import DetectorConfig
from repro.harness.experiment import CLEAN_RUN, ExperimentRunner
from repro.harness.parallel import GridCell


@dataclass(frozen=True)
class SweepCell:
    """One (application, parameter-value) measurement."""

    app: str
    value: object
    detected: int
    alarms: int


@dataclass
class SweepResult:
    """A full sweep: one cell per (app, value)."""

    detector: str
    parameter: str
    cells: list[SweepCell]
    runs: int = 10
    #: The runner's harness metrics snapshot (trace memo/cache counters,
    #: per-phase timers) — ``repro sweep --metrics`` prints it.
    metrics: dict = field(default_factory=dict, compare=False)
    _index: dict[tuple[str, object], SweepCell] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        # Index once at construction: lookups are O(1) instead of a list
        # scan, which matters when format() touches every (app, value) pair
        # of a large grid.
        self._index = {(cell.app, cell.value): cell for cell in self.cells}

    def cell(self, app: str, value: object) -> SweepCell:
        """The cell for one (app, value) pair."""
        try:
            return self._index[(app, value)]
        except KeyError:
            raise KeyError((app, value)) from None

    def series(self, app: str) -> list[SweepCell]:
        """All of one application's cells, in sweep order."""
        return [cell for cell in self.cells if cell.app == app]

    def format(self) -> str:
        """Render as a compact table (rows: apps; columns: values)."""
        values = sorted({cell.value for cell in self.cells}, key=repr)
        apps = sorted({cell.app for cell in self.cells})
        header = f"{'application':<16}" + "".join(
            f"{str(v):>14}" for v in values
        )
        lines = [
            f"sweep of {self.parameter} for {self.detector} "
            f"(cells: detected/{self.runs}, alarms)",
            header,
        ]
        for app in apps:
            row = ""
            for value in values:
                cell = self.cell(app, value)
                row += f"{f'{cell.detected}/{self.runs},{cell.alarms}':>14}"
            lines.append(f"{app:<16}{row}")
        return "\n".join(lines)


def score_columns(
    runner: ExperimentRunner,
    columns: Iterable[tuple[str, DetectorConfig, bool]],
) -> dict[tuple[str, DetectorConfig], dict[str, int]]:
    """Score "detected over runs + clean-run alarms" columns as one grid.

    A column ``(app, config, detect)`` covers the clean run and, with
    ``detect``, the runner's ``runs`` injected runs.  Returns
    ``{"detected": …, "alarms": …}`` per ``(app, config)``: bugs detected
    over the injected runs (0 without ``detect``) and the clean run's
    alarm count.
    """
    columns = [
        (app, config, range(runner.runs) if detect else ())
        for app, config, detect in columns
    ]
    scored = runner.outcomes(
        GridCell(app, run, config)
        for app, config, injected in columns
        for run in (*injected, CLEAN_RUN)
    )
    return {
        (app, config): {
            "detected": sum(
                scored[GridCell(app, run, config)].detected for run in injected
            ),
            "alarms": scored[GridCell(app, CLEAN_RUN, config)].alarm_count,
        }
        for app, config, injected in columns
    }


def sweep(
    runner: ExperimentRunner,
    *,
    detector: str,
    parameter: str,
    values: list[object],
    apps: tuple[str, ...],
    include_detection: bool = True,
    obs=None,
) -> SweepResult:
    """Measure a detector across a parameter grid.

    ``parameter`` is any knob of
    :class:`~repro.harness.detectors.DetectorConfig` (``granularity``,
    ``l2_size``, ``vector_bits``, ``barrier_reset``, ``broadcast_updates``,
    ``use_counter_register``, ``num_cores``, ``coherence``); any other name
    raises :class:`~repro.common.errors.HarnessError`.

    An ``obs`` bundle gets one ``span`` event per assembled (app, value)
    cell; the returned result's ``metrics`` carries the runner's harness
    counters either way.
    """
    emitter = obs.emitter if obs is not None else None
    configs = [
        (value, DetectorConfig.coerce(detector, **{parameter: value}))
        for value in values
    ]
    scores = score_columns(
        runner,
        [(app, config, include_detection) for app in apps for _, config in configs],
    )
    cells = []
    for app in apps:
        for value, config in configs:
            with _cell_span(emitter, app, parameter, value):
                cells.append(SweepCell(app=app, value=value, **scores[app, config]))
    return SweepResult(
        detector=detector,
        parameter=parameter,
        cells=cells,
        runs=runner.runs,
        metrics=runner.metrics.snapshot_all(),
    )


def _cell_span(emitter, app: str, parameter: str, value: object):
    """A ``sweep.cell`` span over one cell assembly (no-op without emitter)."""
    if emitter is None or not emitter.enabled:
        return nullcontext()
    return emitter.span("sweep.cell", app=app, parameter=parameter, value=str(value))
