"""Unit tests for the compressed-domain aggregation subsystem
(``repro.exec.aggregate``) and its statistics-driven strategy choice.

Semantics across backends are pinned by the property suite
(``tests/property/test_aggregate_properties.py``); these tests target
the pieces directly: strategy selection and its reason strings, the
validation rules, the per-vid selected-count kernel, the numeric-type
errors of SUM/AVG on both paths, the bincount-vs-unique histogram
helper, the statistics catalog, and the ``exec.agg_*`` counters.
"""

import datetime

import numpy as np
import pytest

from repro.bitmap import WAHBitmap
from repro.errors import SqlExecutionError
from repro.exec.aggregate import (
    _nonzero_counts,
    _selected_value_counts,
    aggregate_rows,
    choose_aggregate_strategy,
    validate_aggregate_select,
)
from repro.exec.batch import TableBatch
from repro.sql import MutableColumnAdapter, RowEngineAdapter, SqlExecutor
from repro.sql.parser import parse_sql
from repro.storage.column import BitmapColumn
from repro.storage.schema import ColumnSchema, TableSchema
from repro.storage.statistics import (
    ColumnStats,
    TableStats,
    column_statistics,
    table_statistics,
)
from repro.storage.table import Table
from repro.storage.types import DataType


def stats_with(distincts: dict, main_rows=10_000, delta_rows=0):
    return TableStats(
        "t",
        main_rows,
        delta_rows,
        {
            name: ColumnStats(name, distinct)
            for name, distinct in distincts.items()
        },
    )


GROUPED = parse_sql("SELECT grp, COUNT(*) FROM t GROUP BY grp")


class TestStrategyChoice:
    def test_low_cardinality_group_is_compressed(self):
        strategy, reason = choose_aggregate_strategy(
            GROUPED, stats_with({"grp": 32}, delta_rows=100)
        )
        assert strategy == "compressed"
        assert "32" in reason and "delta share" in reason

    def test_no_pushdown_forces_hash(self):
        strategy, reason = choose_aggregate_strategy(
            GROUPED, stats_with({"grp": 32}), pushdown=False
        )
        assert strategy == "hash"
        assert "decodes to values" in reason

    def test_no_statistics_forces_hash(self):
        strategy, reason = choose_aggregate_strategy(GROUPED, None)
        assert strategy == "hash"
        assert "no table statistics" in reason

    def test_missing_column_stats_forces_hash(self):
        strategy, reason = choose_aggregate_strategy(
            GROUPED, stats_with({"other": 4})
        )
        assert strategy == "hash"
        assert "'grp'" in reason

    def test_high_cardinality_group_falls_back(self):
        strategy, reason = choose_aggregate_strategy(
            GROUPED, stats_with({"grp": 5_000}, main_rows=10_000)
        )
        assert strategy == "hash"
        assert "estimated groups 5000" in reason

    def test_multi_column_estimate_is_the_product(self):
        select = parse_sql("SELECT a, b, COUNT(*) FROM t GROUP BY a, b")
        stats = stats_with({"a": 50, "b": 40}, main_rows=10_000)
        strategy, reason = choose_aggregate_strategy(select, stats)
        assert strategy == "hash"
        assert "estimated groups 2000" in reason
        # 1250 estimated groups stays at the 10_000/8 ceiling.
        strategy, _ = choose_aggregate_strategy(
            select, stats_with({"a": 50, "b": 25}, main_rows=10_000)
        )
        assert strategy == "compressed"

    def test_small_table_keeps_the_64_group_floor(self):
        strategy, _ = choose_aggregate_strategy(
            GROUPED, stats_with({"grp": 60}, main_rows=100)
        )
        assert strategy == "compressed"


class TestValidation:
    def schema(self):
        executor = SqlExecutor(RowEngineAdapter())
        executor.execute("CREATE TABLE t (grp STRING, v INT)")
        return executor.adapter.schema("t")

    def check(self, sql, message):
        with pytest.raises(SqlExecutionError, match=message):
            validate_aggregate_select(parse_sql(sql), self.schema())

    def test_bare_column_must_be_grouped(self):
        self.check(
            "SELECT v, COUNT(*) FROM t GROUP BY grp",
            "must appear in GROUP BY",
        )

    def test_star_cannot_be_grouped(self):
        self.check("SELECT * FROM t GROUP BY grp", r"SELECT \*")

    def test_sum_star_rejected_by_the_grammar(self):
        from repro.errors import SqlSyntaxError

        with pytest.raises(SqlSyntaxError):
            parse_sql("SELECT SUM(*) FROM t")

    def test_unknown_columns_rejected(self):
        self.check("SELECT COUNT(nope) FROM t", "no column 'nope'")
        self.check(
            "SELECT nope, COUNT(*) FROM t GROUP BY nope",
            "no column 'nope'",
        )

    def test_valid_select_returns_groups_and_aggs(self):
        groups, aggs = validate_aggregate_select(
            parse_sql("SELECT grp, COUNT(*), SUM(v) FROM t GROUP BY grp"),
            self.schema(),
        )
        assert groups == ("grp",)
        assert [agg.label for agg in aggs] == ["count(*)", "sum(v)"]


class TestSelectedValueCounts:
    """The one per-vid counts kernel — a ``bincount`` over the cached
    vid array, whole or restricted to the selection — must agree with a
    brute-force histogram."""

    def table(self, nrows=400, cardinality=7, seed=3):
        rng = np.random.default_rng(seed)
        values = [f"v{vid}" for vid in rng.integers(0, cardinality, nrows)]
        schema = TableSchema("t", (ColumnSchema("c", DataType.STRING),))
        return values, Table.from_rows(schema, [(v,) for v in values])

    def brute_force(self, values, table, dense):
        order = list(table.column("c").dictionary.values())
        counts = np.zeros(len(order), dtype=np.int64)
        for position, value in enumerate(values):
            if dense is None or dense[position]:
                counts[order.index(value)] += 1
        return counts

    def test_no_selection_uses_popcounts(self):
        values, table = self.table()
        got = _selected_value_counts(table, "c", None)
        assert np.array_equal(got, self.brute_force(values, table, None))

    @pytest.mark.parametrize(
        "selected",
        [
            [3],
            list(range(398)),
            list(range(0, 400, 2)),
            [],
        ],
    )
    def test_selection_paths_agree(self, selected):
        values, table = self.table()
        selection = WAHBitmap.from_positions(selected, len(values))
        got = _selected_value_counts(table, "c", selection.positions())
        assert np.array_equal(
            got,
            self.brute_force(values, table, selection.to_dense()),
        )


class TestNumericErrorParity:
    """SUM/AVG over a non-numeric column fail with the same message on
    the compressed and the hash path, grouped or not — and only when a
    non-NULL value of that column is actually selected."""

    SCHEMA = TableSchema(
        "t",
        (
            ColumnSchema("g", DataType.INT),
            ColumnSchema("flag", DataType.BOOL),
            ColumnSchema("name", DataType.STRING),
            ColumnSchema("day", DataType.DATE),
            ColumnSchema("empty", DataType.INT),
        ),
    )
    ROWS = [
        (0, True, "x", datetime.date(2020, 1, 1), None),
        (1, None, None, None, None),
        (1, False, "y", datetime.date(2021, 6, 1), None),
    ]

    def run(self, sql, strategy, selected=None):
        table = Table.from_rows(self.SCHEMA, self.ROWS)
        selection = (
            None
            if selected is None
            else np.array(selected, dtype=np.int64)
        )
        return aggregate_rows(
            [TableBatch(table, selection)], parse_sql(sql), self.SCHEMA,
            strategy,
        )

    @pytest.mark.parametrize("func", ["SUM", "AVG"])
    @pytest.mark.parametrize(
        "column, type_name",
        [("flag", "bool"), ("name", "str"), ("day", "date")],
    )
    @pytest.mark.parametrize("grouped", [False, True])
    def test_same_message_on_both_paths(self, func, column, type_name,
                                        grouped):
        sql = (
            f"SELECT g, {func}({column}) FROM t GROUP BY g"
            if grouped
            else f"SELECT {func}({column}) FROM t"
        )
        messages = []
        for strategy in ("compressed", "hash"):
            with pytest.raises(SqlExecutionError) as info:
                self.run(sql, strategy)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert messages[0] == (
            f"{func}({column}) requires a numeric column, got {type_name}"
        )

    @pytest.mark.parametrize("strategy", ["compressed", "hash"])
    def test_only_selected_values_are_checked(self, strategy):
        # Row 1 holds NULL in every non-numeric column.
        assert self.run(
            "SELECT SUM(name), AVG(day) FROM t", strategy, selected=[1]
        ) == [(None, None)]
        assert self.run(
            "SELECT g, SUM(flag) FROM t GROUP BY g", strategy, selected=[1]
        ) == [(1, None)]

    @pytest.mark.parametrize("strategy", ["compressed", "hash"])
    def test_all_null_column_sums_to_null(self, strategy):
        assert self.run(
            "SELECT SUM(empty), AVG(empty), MIN(empty), COUNT(empty) "
            "FROM t",
            strategy,
        ) == [(None, None, None, 0)]
        assert self.run(
            "SELECT g, SUM(empty), MAX(empty) FROM t GROUP BY g", strategy
        ) == [(0, None, None), (1, None, None)]


class TestNonzeroCounts:
    @pytest.mark.parametrize("space", [8, 100_000])
    def test_matches_numpy_unique(self, space):
        rng = np.random.default_rng(9)
        codes = rng.integers(0, min(space, 8), 500)
        got_values, got_counts = _nonzero_counts(codes, space)
        want_values, want_counts = np.unique(codes, return_counts=True)
        assert np.array_equal(got_values, want_values)
        assert np.array_equal(got_counts, want_counts)


class TestStatisticsCatalog:
    def test_column_statistics_skip_nulls(self):
        column = BitmapColumn.from_values(
            "c", DataType.INT, [4, None, 9, 4, 1]
        )
        stats = column_statistics("c", column)
        assert (stats.distinct, stats.min, stats.max) == (4, 1, 9)

    def test_all_null_column_has_no_range(self):
        column = BitmapColumn.from_values("c", DataType.INT, [None, None])
        stats = column_statistics("c", column)
        assert (stats.distinct, stats.min, stats.max) == (1, None, None)

    def test_table_statistics_cached_per_table_object(self):
        adapter = MutableColumnAdapter()
        executor = SqlExecutor(adapter)
        executor.execute("CREATE TABLE t (grp STRING, v INT)")
        adapter.insert_rows("t", [("a", 1), ("b", 2), ("a", 3)])
        mutable = adapter._mutable("t")
        while not mutable.compact_step().done:
            pass
        table = mutable.main
        first = table_statistics(table)
        again = table_statistics(table)
        assert first.columns is again.columns
        assert first.main_rows == 3
        assert first.column("grp").distinct == 2

    def test_delta_share(self):
        stats = TableStats("t", 75, 25)
        assert stats.total_rows == 100
        assert stats.delta_share == 0.25
        assert TableStats("t", 0, 0).delta_share == 0.0

    def test_adapter_table_stats_counts_live_rows(self):
        from repro.delta import CompactionPolicy

        adapter = MutableColumnAdapter(policy=CompactionPolicy.never())
        executor = SqlExecutor(adapter)
        executor.execute("CREATE TABLE t (grp STRING, v INT)")
        adapter.insert_rows("t", [("a", 1), ("b", 2), ("a", 3)])
        while not adapter._mutable("t").compact_step().done:
            pass
        executor.execute("DELETE FROM t WHERE v = 2")
        executor.execute("INSERT INTO t VALUES ('c', 4)")
        stats = adapter.table_stats("t")
        assert stats.main_rows == 2
        assert stats.delta_rows == 1

    def test_row_backend_has_no_stats(self):
        adapter = RowEngineAdapter()
        SqlExecutor(adapter).execute("CREATE TABLE t (a INT)")
        assert adapter.table_stats("t") is None


class TestAggCounters:
    def test_compressed_and_hash_batches_counted(self):
        adapter = MutableColumnAdapter()
        executor = SqlExecutor(adapter)
        executor.execute("CREATE TABLE t (grp STRING, v INT)")
        adapter.insert_rows(
            "t", [("a", 1), ("b", 2), ("a", 3), ("b", 4)]
        )
        # Delta rows force a hash partial next to the compressed one.
        executor.execute("INSERT INTO t VALUES ('c', 5)")
        rows = executor.execute(
            "SELECT grp, COUNT(*) FROM t GROUP BY grp"
        )
        assert rows == [("a", 2), ("b", 2), ("c", 1)]
        registry = adapter.metrics
        assert registry.counter("exec.agg_batches_compressed").value >= 1
        assert registry.counter("exec.agg_batches_hash").value >= 1
        assert registry.counter("exec.agg_groups").value >= 3


class TestGroupingStaysOnVidArrays:
    """Once a compacted table's vid arrays are cached, a two-key GROUP
    BY and an unfiltered DISTINCT need no bitmap word pass."""

    def test_no_word_directory_after_warming(self, monkeypatch):
        import repro.bitmap.batch as batch_module

        adapter = MutableColumnAdapter()
        executor = SqlExecutor(adapter)
        executor.execute("CREATE TABLE t (a INT, b STRING)")
        adapter.insert_rows(
            "t", [(i % 40, f"s{i // 40 % 25}") for i in range(50_000)]
        )
        mutable = adapter._mutable("t")
        while not mutable.compact_step().done:
            pass
        grouped = "SELECT a, b, COUNT(*) FROM t GROUP BY a, b"
        warm = executor.execute(grouped)

        def refuse(self, bitmaps):
            raise AssertionError("word directory built")

        monkeypatch.setattr(batch_module.WordDirectory, "__init__", refuse)
        groups = adapter.metrics.counter("exec.agg_groups")
        before = groups.value
        assert executor.execute(grouped) == warm
        assert groups.value - before == 1000
        assert [row[:2] for row in warm] == sorted(
            (a, f"s{b}") for a in range(40) for b in range(25)
        )
        assert {row[2] for row in warm} == {50}
        assert executor.execute("SELECT DISTINCT b FROM t") == [
            (f"s{b}",) for b in range(25)
        ]


class TestUnselectedReadsArePopcounts:
    """With no selection (no WHERE, no deleted main row), a one-column
    GROUP BY's counts, an ungrouped aggregate and DISTINCT read the
    bitmaps' popcounts and each value's first row: on a warm
    generation no statement reads a row-order vid array or the group
    codes built from them."""

    QUERIES = (
        "SELECT g, COUNT(*) FROM t GROUP BY g",
        "SELECT COUNT(*), SUM(v), MIN(v), MAX(v) FROM t",
        "SELECT DISTINCT g FROM t",
    )

    @pytest.mark.parametrize("sql", QUERIES)
    def test_no_vid_array_read_per_statement(self, sql, monkeypatch):
        import repro.exec.aggregate as aggregate_module

        adapter = MutableColumnAdapter()
        executor = SqlExecutor(adapter)
        executor.execute("CREATE TABLE t (g STRING, v INT)")
        adapter.insert_rows(
            "t",
            [(None if i % 11 == 0 else f"g{i % 6}", i % 13)
             for i in range(2_000)],
        )
        mutable = adapter._mutable("t")
        while not mutable.compact_step().done:
            pass
        warm = executor.execute(sql)
        calls = []
        for reader in ("_decode_vids", "_group_codes"):
            original = getattr(aggregate_module, reader)

            def counted(*args, _reader=reader, _original=original):
                calls.append(_reader)
                return _original(*args)

            monkeypatch.setattr(aggregate_module, reader, counted)
        assert executor.execute(sql) == warm
        assert executor.execute(sql) == warm
        assert calls == []


class TestAggregateBench:
    def test_bench_script_runs(self, tmp_path):
        import subprocess
        import sys
        from pathlib import Path

        repo = Path(__file__).resolve().parents[2]
        out = tmp_path / "BENCH_aggregate.json"
        result = subprocess.run(
            [
                sys.executable,
                str(repo / "benchmarks" / "bench_aggregate.py"),
                # Tiny run: the result-equality checks are the point
                # here, the ≥3× gate of record needs the 1M-row run.
                "--rows", "3000", "--min-speedup", "0.01",
                "--out", str(out),
            ],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(repo / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 0, result.stderr
        from repro.bench.exporters import load_aggregate_json

        payload = load_aggregate_json(out)
        assert payload["benchmark"] == "aggregate"
        for backend in ("mutable", "column"):
            record = payload[backend]
            assert record["grouped_count"]["groups"] <= 32
            assert record["grouped_count"]["speedup"] > 0
        assert payload["mutable"]["delta_rows"] > 0
