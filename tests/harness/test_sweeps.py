"""Unit tests for the generic sweep utility (stub-runner driven)."""

import pytest

from repro.harness.experiment import RunOutcome
from repro.harness.sweeps import SweepCell, SweepResult, sweep
from repro.obs.metrics import MetricsRegistry


class StubRunner:
    runs = 10

    def __init__(self):
        self.metrics = MetricsRegistry()

    def outcomes(self, cells):
        return {cell: self._outcome(cell) for cell in cells}

    @staticmethod
    def _outcome(cell):
        l2_size = cell.config.l2_size or 0
        return RunOutcome(
            detector=cell.config.key,
            app=cell.app,
            run=cell.run,
            # 8 of 10 injected runs detected, 9 on an odd L2 size.
            detected=cell.run >= 2 - l2_size % 2,
            alarm_count=len(cell.app) + l2_size // 1024,
            dynamic_reports=0,
        )


class TestSweep:
    def test_grid_covered(self):
        result = sweep(
            StubRunner(),
            detector="hard-default",
            parameter="l2_size",
            values=[1024, 2048],
            apps=("barnes", "ocean"),
        )
        assert len(result.cells) == 4
        assert result.cell("barnes", 1024).alarms == len("barnes") + 1

    def test_series(self):
        result = sweep(
            StubRunner(),
            detector="hard-default",
            parameter="l2_size",
            values=[1024, 2048],
            apps=("barnes",),
        )
        assert [c.value for c in result.series("barnes")] == [1024, 2048]

    def test_missing_cell_raises(self):
        result = SweepResult(detector="d", parameter="p", cells=[])
        with pytest.raises(KeyError):
            result.cell("x", 1)

    def test_skip_detection(self):
        result = sweep(
            StubRunner(),
            detector="hard-default",
            parameter="l2_size",
            values=[1024],
            apps=("barnes",),
            include_detection=False,
        )
        assert result.cell("barnes", 1024).detected == 0

    def test_format(self):
        result = sweep(
            StubRunner(),
            detector="hard-default",
            parameter="l2_size",
            values=[1024],
            apps=("barnes",),
        )
        text = result.format()
        assert "sweep of l2_size" in text and "barnes" in text


class TestCellDataclass:
    def test_frozen(self):
        cell = SweepCell(app="a", value=1, detected=2, alarms=3)
        with pytest.raises(AttributeError):
            cell.alarms = 9
