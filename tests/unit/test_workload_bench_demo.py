"""Unit tests for workload generators, the bench harness and the demo."""

import io

import numpy as np
import pytest

from repro.bench.harness import (
    run_decomposition_point,
    run_mergence_point,
    run_table1,
    scaled_distinct_sweep,
    table1_operator_stream,
)
from repro.bench.report import (
    ascii_chart,
    series_table,
    speedup_summary,
    table1_report,
)
from repro.demo.cli import DemoSession, figure1_table
from repro.errors import WorkloadError
from repro.fd import holds, is_key_in_data
from repro.workload import (
    EmployeeWorkload,
    GeneralMergeWorkload,
    SalesStarWorkload,
    make_indices,
    uniform_indices,
    zipf_indices,
)


class TestDistributions:
    def test_uniform_exact_cardinality(self):
        rng = np.random.default_rng(0)
        draws = uniform_indices(1000, 50, rng)
        assert len(np.unique(draws)) == 50
        assert draws.min() == 0 and draws.max() == 49

    def test_zipf_skew(self):
        rng = np.random.default_rng(0)
        draws = zipf_indices(20_000, 100, rng, s=1.3)
        counts = np.bincount(draws, minlength=100)
        assert len(np.unique(draws)) == 100
        assert counts[0] > counts[50] > 0  # rank 1 dominates

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(WorkloadError):
            uniform_indices(5, 10, rng)
        with pytest.raises(WorkloadError):
            zipf_indices(5, 0, rng)
        with pytest.raises(WorkloadError):
            make_indices(10, 5, rng, skew="triangular")


class TestEmployeeWorkload:
    def test_fd_built_in(self):
        table = EmployeeWorkload(500, 40, seed=1).build()
        assert table.nrows == 500
        assert table.column("Employee").distinct_count == 40
        assert holds(table, ["Employee"], ["Address"])

    def test_deterministic(self):
        a = EmployeeWorkload(200, 20).build()
        b = EmployeeWorkload(200, 20).build()
        assert a.same_content(b, ordered=True)

    def test_decomposed_pair(self):
        workload = EmployeeWorkload(300, 25, seed=2)
        left, right = workload.build_decomposed()
        assert left.nrows == 300
        assert right.nrows == 25
        assert is_key_in_data(right, ["Employee"])

    def test_rejects_impossible_cardinality(self):
        with pytest.raises(WorkloadError):
            EmployeeWorkload(10, 100)


class TestGeneralMergeWorkload:
    def test_duplicates_on_both_sides(self):
        left, right = GeneralMergeWorkload(500, 400, 20).build()
        assert not is_key_in_data(left, ["J"])
        assert not is_key_in_data(right, ["J"])
        assert left.column("J").distinct_count == 20


class TestSalesStarWorkload:
    def test_star_to_snowflake_roundtrip(self):
        from repro.core import EvolutionEngine

        workload = SalesStarWorkload(1000, n_products=50, n_categories=8)
        sales, products = workload.build()
        assert sales.nrows == 1000
        assert products.nrows == 50
        engine = EvolutionEngine()
        engine.load_table(sales)
        engine.load_table(products)
        engine.apply(workload.snowflake_op())
        assert engine.table("Category").nrows == 8
        engine.apply(workload.star_op())
        assert engine.table("Product").same_content(
            products.renamed("Product")
        )


class TestHarness:
    def test_scaled_sweep_keeps_ratios(self):
        sweep = scaled_distinct_sweep(10_000_000)
        assert sweep == [100, 1_000, 10_000, 100_000, 1_000_000]
        small = scaled_distinct_sweep(100_000)
        assert small[0] == 2  # 100 * 1e5/1e7, floored at 2
        assert all(s <= 100_000 for s in small)

    def test_decomposition_point_verifies(self):
        result = run_decomposition_point("D", 2_000, 50)
        assert result.figure == "3a"
        assert result.seconds > 0
        assert result.distinct == 50

    def test_mergence_point_verifies(self):
        result = run_mergence_point("D", 2_000, 50)
        assert result.figure == "3b"
        assert result.seconds > 0

    def test_table1_stream_covers_all_operators(self):
        stream = table1_operator_stream(500)
        names = [name for name, _setup, _op in stream]
        assert len(names) == 11
        assert "DECOMPOSE TABLE" in names and "MERGE TABLES" in names

    def test_run_table1_small(self):
        rows = run_table1(nrows=500, series=("D",))
        assert len(rows) == 11
        assert all("D" in row for row in rows)


class TestReport:
    @pytest.fixture
    def results(self):
        from repro.bench.harness import BenchResult

        return [
            BenchResult("3a", "D", "CODS", 1000, 10, 0.001),
            BenchResult("3a", "D", "CODS", 1000, 100, 0.002),
            BenchResult("3a", "C", "Row", 1000, 10, 0.5),
            BenchResult("3a", "C", "Row", 1000, 100, 0.6),
        ]

    def test_series_table(self, results):
        text = series_table(results, "Title")
        assert "Title" in text
        assert "D" in text and "C" in text
        assert "10" in text and "100" in text

    def test_speedup_summary(self, results):
        text = speedup_summary(results)
        assert "D vs C" in text
        assert "500x" in text or "300x" in text

    def test_ascii_chart(self, results):
        chart = ascii_chart(results)
        assert "D=D" in chart or "C=C" in chart

    def test_table1_report(self):
        rows = [{"operator": "DROP TABLE", "rows": 10, "D": 0.001, "C+I": 0.1,
                 "M": 0.05}]
        text = table1_report(rows)
        assert "DROP TABLE" in text


class TestDemo:
    def make_session(self):
        out = io.StringIO()
        return DemoSession(out=out), out

    def test_figure1_table(self):
        table = figure1_table()
        assert table.nrows == 7
        assert table.column("Employee").distinct_count == 4

    def test_full_walkthrough(self):
        session, out = self.make_session()
        session.run_example_walkthrough()
        text = out.getvalue()
        assert "distinction" in text
        assert "filtering" in text
        assert "column reuse" in text
        assert "Jones" in text
        assert "v1: DECOMPOSE TABLE R" in text

    def test_unknown_command(self):
        session, out = self.make_session()
        assert session.handle("frobnicate") is True
        assert "unknown command" in out.getvalue()

    def test_quit(self):
        session, _out = self.make_session()
        assert session.handle("quit") is False

    def test_error_reported_not_raised(self):
        session, out = self.make_session()
        session.handle("display Nope")
        assert "error:" in out.getvalue()

    def test_queue_and_execute(self):
        session, out = self.make_session()
        session.handle("example")
        session.handle("queue")
        assert "no queued operators" in out.getvalue()
        session.handle(
            "add DECOMPOSE TABLE R INTO S (Employee, Skill), "
            "T (Employee, Address)"
        )
        session.handle("queue")
        session.handle("execute")
        session.handle("tables")
        text = out.getvalue()
        assert "S(" in text and "T(" in text

    def test_add_validates_against_the_queued_plan(self):
        session, out = self.make_session()
        session.handle("example")
        session.handle(
            "add DECOMPOSE TABLE R INTO S (Employee, Skill), "
            "T (Employee, Address)"
        )
        # S and T exist once the queued DECOMPOSE has run ...
        session.handle("add MERGE TABLES S, T INTO R2")
        assert "queued [2]: MERGE TABLES S, T INTO R2" in out.getvalue()
        # ... and R does not.
        session.handle("add COPY TABLE R TO R3")
        assert "error: plan step 3 (COPY TABLE R TO R3)" in out.getvalue()
        assert len(session.queue) == 2
        session.handle("execute")
        assert session.engine.catalog.table_names() == ["R2"]

    def test_a_failed_execute_empties_the_queue(self):
        session, out = self.make_session()
        session.handle("example")
        # Schema-valid, but the data refutes Address -> either side.
        session.handle(
            "add DECOMPOSE TABLE R INTO S (Employee, Address), "
            "T (Skill, Address)"
        )
        session.handle("add COPY TABLE S TO S2")
        session.handle("execute")
        assert "lossy" in out.getvalue()
        assert session.queue == []
        session.handle("add COPY TABLE R TO R2")
        assert "queued [1]: COPY TABLE R TO R2" in out.getvalue()

    def test_load_csv_command(self, tmp_path, fig1_table):
        from repro.storage import save_csv

        path = tmp_path / "r.csv"
        save_csv(fig1_table, path)
        session, out = self.make_session()
        session.handle(f"load {path} Imported")
        assert "loaded 7 rows into Imported" in out.getvalue()

    def test_script_mode(self, tmp_path):
        from repro.demo.cli import main

        script = tmp_path / "evolve.smo"
        script.write_text(
            "CREATE TABLE W (a INT, b STRING)\n"
            "ADD COLUMN c INT TO W DEFAULT 1\n"
        )
        assert main(["--script", str(script)]) == 0

    @pytest.mark.parametrize("bad_line", [
        "DROP TABLE Nope",
        "ADD COLUMN d INT TO V",
        "FROBNICATE TABLE W",
    ])
    def test_script_mode_runs_nothing_when_a_line_fails(
        self, tmp_path, capsys, bad_line
    ):
        from repro.demo.cli import main

        script = tmp_path / "evolve.smo"
        script.write_text(
            "CREATE TABLE W (a INT, b STRING)\n"
            f"{bad_line}\n"
            "ADD COLUMN c INT TO W DEFAULT 1\n"
        )
        assert main(["--script", str(script)]) == 1
        printed = capsys.readouterr().out
        assert f"error: {script}:2:" in printed
        assert "executing" not in printed

    def test_example_mode(self):
        from repro.demo.cli import main

        assert main(["--example"]) == 0
