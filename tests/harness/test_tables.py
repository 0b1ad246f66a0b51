"""Unit tests for the exhibit generators, using a stub runner."""

from repro.common.config import KB, MB
from repro.harness import tables
from repro.harness.experiment import RunOutcome


class StubRunner:
    """Deterministic fake of ExperimentRunner for renderer tests."""

    runs = 10

    def __init__(self):
        self.calls = []

    def outcomes(self, cells):
        cells = list(cells)
        self.calls.append(cells)
        return {cell: self._outcome(cell) for cell in cells}

    @staticmethod
    def _outcome(cell):
        config = cell.config
        # A cell at its key's default carries None ("no override"), so it
        # shares the default configuration's cached verdicts.
        granularity = config.granularity or 32
        return RunOutcome(
            detector=config.key,
            app=cell.app,
            run=cell.run,
            # 9 of 10 injected runs detected for HARD, 7 for the rest.
            detected=cell.run >= (1 if config.key.startswith("hard") else 3),
            alarm_count={4: 3, 8: 5, 16: 9, 32: 20}[granularity],
            dynamic_reports=0,
            cycles=1_020_000,
            detector_extra_cycles=20_000,
        )


APPS = ("barnes", "ocean")


class TestTable2:
    def test_structure(self):
        data = tables.table2(StubRunner(), apps=APPS)
        assert set(data) == set(APPS)
        for row in data.values():
            assert set(row) == set(tables.PAPER_DETECTORS)
            for cell in row.values():
                assert {"detected", "alarms"} == set(cell)

    def test_render_includes_paper_reference(self):
        text = tables.render_table2(tables.table2(StubRunner(), apps=APPS))
        assert "barnes" in text
        assert "9/10" in text  # ours
        assert "|" in text  # paper column separator


class TestTable3:
    def test_granularity_cells(self):
        data = tables.table3(StubRunner(), apps=APPS)
        row = data["barnes"]
        assert set(row["alarms"]["hard-default"]) == {4, 8, 16, 32}
        assert row["alarms"]["hard-default"][4] == 3

    def test_render(self):
        text = tables.render_table3(tables.table3(StubRunner(), apps=APPS))
        assert "bugs@4B" in text and "FA@32B" in text


class TestTables45:
    def test_l2_cells(self):
        data = tables.table4_and_5(StubRunner(), apps=APPS)
        # Detection is measured at the endpoint capacities; alarms at all.
        assert set(data["ocean"]["detected"]["hb-default"]) == {128 * KB, 1 * MB}
        assert set(data["ocean"]["alarms"]["hb-default"]) == {
            128 * KB, 256 * KB, 512 * KB, 1 * MB,
        }

    def test_renders(self):
        data = tables.table4_and_5(StubRunner(), apps=APPS)
        assert "128KB" in tables.render_table4(data)
        assert "false alarms" in tables.render_table5(data)


class TestTable6:
    def test_vector_cells(self):
        data = tables.table6(StubRunner(), apps=APPS)
        assert set(data["barnes"]["detected"]) == {16, 32}

    def test_render(self):
        text = tables.render_table6(tables.table6(StubRunner(), apps=APPS))
        assert "bugs@16b" in text


class TestFigure8:
    def test_overhead_computation(self):
        data = tables.figure8(StubRunner(), apps=APPS)
        assert data["barnes"]["overhead_pct"] == 2.0
        assert data["barnes"]["cycles"] == 1_020_000

    def test_render_includes_paper_band(self):
        text = tables.render_figure8(tables.figure8(StubRunner(), apps=APPS))
        assert "2.00%" in text
        assert "paper" in text


class TestHybrids:
    def test_structure(self):
        data = tables.hybrids(StubRunner(), apps=APPS)
        assert set(data) == set(APPS)
        for row in data.values():
            assert set(row) == set(tables.HYBRID_TABLE_DETECTORS)
            for cell in row.values():
                assert {"detected", "alarms"} == set(cell)

    def test_cells_cover_family_and_clean_run(self):
        runner = StubRunner()
        runner.runs = 2
        tables.hybrids(runner, apps=APPS)
        (cells,) = runner.calls
        keys = {cell.config.key for cell in cells}
        assert keys == set(tables.HYBRID_TABLE_DETECTORS)
        runs = {cell.run for cell in cells}
        assert runs == {0, 1, -1}

    def test_render_names_lattice(self):
        text = tables.render_hybrids(tables.hybrids(StubRunner(), apps=APPS))
        assert "FastTrack" in text
        assert "MultiLock" in text
        assert "lattice check" in text


class TestOneScoringCall:
    def test_every_exhibit_scores_its_grid_once(self):
        for name, (compute, _) in tables.EXHIBITS.items():
            if name == "scaling":  # walks engine sessions for stat counters
                continue
            runner = StubRunner()
            compute(runner, APPS)
            assert len(runner.calls) == 1, name


class TestPaperReferences:
    def test_table2_totals(self):
        bugs = sum(v[0] for v in tables.PAPER_TABLE2.values())
        assert bugs == 54  # the abstract's 54/60
        hb = sum(v[4] for v in tables.PAPER_TABLE2.values())
        assert hb == 44

    def test_figure8_range(self):
        values = tables.PAPER_FIGURE8.values()
        assert min(values) == 0.1 and max(values) == 2.6
