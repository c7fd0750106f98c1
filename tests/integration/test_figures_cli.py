"""Integration: the figure-regeneration CLI at miniature scale.

Runs the real harness (all five systems) on tiny inputs so CI exercises
the exact code path that regenerates the figures, and asserts the
paper's qualitative claims hold even at toy scale.
"""

from collections import defaultdict

import pytest

from repro.bench.figures import figure_text, main
from repro.bench.harness import run_figure, run_table1


@pytest.fixture(scope="module")
def fig3a_results():
    return run_figure("3a", nrows=3_000, sweep=[5, 60])


@pytest.fixture(scope="module")
def fig3b_results():
    return run_figure("3b", nrows=3_000, sweep=[5, 60])


def by_series(results):
    table = defaultdict(dict)
    for result in results:
        table[result.series][result.distinct] = result.seconds
    return table


class TestShapeClaims:
    def test_fig3a_cods_wins_everywhere(self, fig3a_results):
        # S (real SQLite, implemented in C) can tie our pure-Python
        # engine at this toy scale; the D-vs-S gap is asserted at real
        # scale by the EXPERIMENTS run.  The same-substrate comparisons
        # (C, C+I, M are Python too) must hold at any scale; per-point
        # numbers get a small tolerance for CI timing noise, the sweep
        # total must win outright.
        series = by_series(fig3a_results)
        for label in ("C", "C+I", "M"):
            for distinct, seconds in series[label].items():
                assert series["D"][distinct] < seconds * 1.5, (
                    f"D not faster than {label} at distinct={distinct}"
                )
            assert sum(series["D"].values()) < sum(series[label].values())

    def test_fig3b_cods_wins_everywhere(self, fig3b_results):
        series = by_series(fig3b_results)
        for label in ("C", "C+I", "M"):
            for distinct, seconds in series[label].items():
                assert series["D"][distinct] < seconds * 1.5, (
                    f"D not faster than {label} at distinct={distinct}"
                )
            assert sum(series["D"].values()) < sum(series[label].values())

    def test_all_points_present(self, fig3a_results, fig3b_results):
        assert len(fig3a_results) == 5 * 2  # 5 series × 2 sweep points
        assert len(fig3b_results) == 4 * 2


class TestTable1Micro:
    def test_schema_level_ops_are_fast_for_cods(self):
        rows = run_table1(nrows=1_000, series=("D",))
        costs = {row["operator"]: row["D"] for row in rows}
        # Schema-level and metadata operators are orders cheaper than
        # the data-heavy ones even at toy scale.
        assert costs["RENAME TABLE"] < costs["DECOMPOSE TABLE"]
        assert costs["RENAME COLUMN"] < costs["MERGE TABLES"]
        assert costs["CREATE TABLE"] < costs["UNION TABLES"]


class TestCli:
    def test_figure_text_3a(self):
        import repro.bench.harness as harness

        original = harness.scaled_distinct_sweep
        harness.scaled_distinct_sweep = lambda nrows: [5]
        try:
            text = figure_text("3a", 2_000)
        finally:
            harness.scaled_distinct_sweep = original
        assert "Figure 3(a)" in text
        assert "D vs C" in text

    def test_main_writes_output(self, tmp_path, monkeypatch):
        import repro.bench.harness as harness

        monkeypatch.setattr(
            harness, "scaled_distinct_sweep", lambda nrows: [5]
        )
        out = tmp_path / "report.txt"
        assert main(["--figure", "3b", "--rows", "2000",
                     "--out", str(out)]) == 0
        assert "Figure 3(b)" in out.read_text()

    def test_unknown_figure_rejected(self):
        with pytest.raises(ValueError):
            figure_text("9z", 100)
