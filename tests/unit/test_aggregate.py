"""Unit tests for the compressed-domain aggregation subsystem
(``repro.exec.aggregate``).

Semantics across backends are pinned by the property suite
(``tests/property/test_aggregate_properties.py``); these tests target
the pieces directly: strategy selection (compressed iff pushdown) and
its reason strings, the validation rules, the one histogram helper
with no group column and grouped by one, the numeric-type errors of
SUM/AVG on both paths, the type of a sum a delta alone adds to, the
bincount-vs-unique histogram helper, the group codes past int64, the
live row counts, the ``exec.agg_*`` counters, the cached joint (group,
value) codes against the hash path and a row oracle, key decode at the
groups' vids (a three-key GROUP BY pinned unselected, selected and
under deletions), and high-cardinality GROUP BYs on a compacted table
against SQLite.
"""

import datetime
import random
import sqlite3

import numpy as np
import pytest

from repro.bitmap import WAHBitmap
from repro.db import Database
from repro.delta import CompactionPolicy
from repro.errors import SqlExecutionError
from repro.exec import GroupAccumulator, accumulate_batch, execute_select
from repro.exec.aggregate import (
    _group_codes,
    _histogram,
    aggregate_rows,
    choose_aggregate_strategy,
    validate_aggregate_select,
)
from repro.exec.batch import TableBatch, ValuesBatch
from repro.sql import MutableColumnAdapter, RowEngineAdapter, SqlExecutor
from repro.sql.parser import parse_sql
from repro.storage.codes import combine, nonzero_counts, split_codes
from repro.storage.column import BitmapColumn
from repro.storage.schema import ColumnSchema, TableSchema
from repro.storage.statistics import TableStats
from repro.storage.table import Table
from repro.storage.types import DataType
from tests.property.test_aggregate_properties import _normalized

GROUPED = parse_sql("SELECT grp, COUNT(*) FROM t GROUP BY grp")


class TestStrategyChoice:
    """Compressed iff the adapter's scans hand over compressed batches;
    the statistics only shape the reason."""

    def test_low_cardinality_group_is_compressed(self):
        strategy, reason = choose_aggregate_strategy(
            GROUPED, TableStats("t", 9_900, 100)
        )
        assert strategy == "compressed"
        assert reason == "main batches group by vid codes, delta share 1.0%"

    def test_high_cardinality_group_is_compressed(self):
        select = parse_sql(
            "SELECT a, b, c, d, e, COUNT(*) FROM t GROUP BY a, b, c, d, e"
        )
        strategy, _ = choose_aggregate_strategy(
            select, TableStats("t", 10_000)
        )
        assert strategy == "compressed"

    def test_no_statistics_is_compressed(self):
        strategy, reason = choose_aggregate_strategy(
            parse_sql("SELECT COUNT(*) FROM t"), None
        )
        assert (strategy, reason) == (
            "compressed", "main batches reduce per-vid counts"
        )

    def test_no_pushdown_forces_hash(self):
        strategy, reason = choose_aggregate_strategy(
            GROUPED, TableStats("t", 10_000), pushdown=False
        )
        assert strategy == "hash"
        assert "decodes to values" in reason


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
    """The one histogram helper — one column's popcounts over the whole
    table, else a ``bincount`` or a ``np.unique`` of the codes at the
    rows — must agree with a brute-force histogram, for the column's
    group codes and for its joint codes under no group column."""

    FORMS = [(("c",), None, 0), ((), "c", 1)]

    def table(self, nrows=400, cardinality=7, seed=3):
        rng = np.random.default_rng(seed)
        values = [f"v{vid}" for vid in rng.integers(0, cardinality, nrows)]
        schema = TableSchema("t", (ColumnSchema("c", DataType.STRING),))
        return values, Table.from_rows(schema, [(v,) for v in values])

    def brute_force(self, values, table, dense):
        order = list(table.column("c").dictionary.values())
        vid = dict(zip(order, range(len(order))))
        counts = np.zeros(len(order), dtype=np.int64)
        for position, value in enumerate(values):
            if dense is None or dense[position]:
                counts[vid[value]] += 1
        return counts

    @staticmethod
    def per_vid(table, found, nsteps):
        present, counts, steps = found
        assert len(steps) == nsteps
        out = np.zeros(table.column("c").distinct_count, dtype=np.int64)
        out[present] = counts
        return out

    @pytest.mark.parametrize("group_names, value, nsteps", FORMS)
    def test_no_selection_uses_popcounts(
        self, monkeypatch, group_names, value, nsteps
    ):
        values, table = self.table()

        def refuse(self):
            raise AssertionError("vid array read")

        monkeypatch.setattr(BitmapColumn, "vids", refuse)
        got = self.per_vid(
            table, _histogram(table, group_names, value), nsteps
        )
        assert np.array_equal(got, self.brute_force(values, table, None))

    @pytest.mark.parametrize("group_names, value, nsteps", FORMS)
    @pytest.mark.parametrize(
        "selected",
        [
            [3],
            list(range(398)),
            list(range(0, 400, 2)),
            [],
        ],
    )
    # 7 values take the bincount; ~3 900 over at most 398 selected
    # rows, a code space too sparse for one, np.unique.
    @pytest.mark.parametrize("nrows, cardinality", [(400, 7), (4_000, 10**5)])
    def test_selection_paths_agree(
        self, group_names, value, nsteps, selected, nrows, cardinality
    ):
        values, table = self.table(nrows, cardinality)
        selection = WAHBitmap.from_positions(selected, len(values))
        got = self.per_vid(
            table,
            _histogram(table, group_names, value, selection.positions()),
            nsteps,
        )
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


class TestEmptyMainSumTakesTheDeltaType:
    """A main batch's group with no non-NULL value adds nothing, so a
    delta's ints sum to an int on the compressed path, as row by row."""

    SCHEMA = TableSchema(
        "t",
        (ColumnSchema("g", DataType.INT), ColumnSchema("v", DataType.FLOAT)),
    )

    def test_grouped_sum_of_a_delta_int_stays_int(self):
        table = Table.from_rows(self.SCHEMA, [(0, None), (None, 0.0)])
        # An uncoerced delta write: the int 0 in a FLOAT column.
        delta = ValuesBatch.from_rows(("g", "v"), [(0, 0)])
        select = parse_sql("SELECT g, SUM(v) FROM t GROUP BY g")
        results = [
            aggregate_rows(
                [TableBatch(table), delta], select, self.SCHEMA, strategy
            )
            for strategy in ("compressed", "hash")
        ]
        assert results[0] == results[1] == [(0, 0), (None, 0.0)]
        assert [type(row[1]) for row in results[0]] == [int, float]


class TestNonzeroCounts:
    @pytest.mark.parametrize("space", [8, 100_000])
    def test_matches_numpy_unique(self, space):
        rng = np.random.default_rng(9)
        codes = rng.integers(0, min(space, 8), 500)
        got_values, got_counts = nonzero_counts(codes, space)
        want_values, want_counts = np.unique(codes, return_counts=True)
        assert np.array_equal(got_values, want_values)
        assert np.array_equal(got_counts, want_counts)


class TestCodes:
    def test_split_inverts_combine_past_int64(self):
        """Five 20 000-value columns span 20 000**5 > 2**63 codes: the
        running code is re-densified before it would overflow, and the
        split still recovers every column's vids."""
        rng = np.random.default_rng(3)
        size = 20_000
        columns = [rng.integers(0, size, 2_000) for _ in range(5)]
        codes, space, steps = columns[0], size, []
        for vids in columns[1:]:
            codes, space = combine(codes, space, vids, size, steps)
            assert space < 2**63 and codes.min() >= 0
        assert any(dense is not None for _size, dense in steps)
        assert len(np.unique(codes)) == len(
            set(zip(*(c.tolist() for c in columns)))
        )
        for got, want in zip(split_codes(codes, steps), columns):
            assert np.array_equal(got, want)


class TestStatisticsCatalog:
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

        def refuse(words):
            raise AssertionError("bitmap words extracted")

        monkeypatch.setattr(batch_module, "_word_layout", refuse)
        monkeypatch.setattr(batch_module, "_column_positions", refuse)
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

    def test_warm_grouped_aggregates_combine_no_codes(self, monkeypatch):
        """Once warm, a grouped value aggregate reads its joint (group,
        value) codes from the generation cache and a two-key COUNT its
        group codes: neither combines codes or extracts bitmap words
        again."""
        import repro.bitmap.batch as batch_module
        import repro.storage.codes as codes_module

        adapter = MutableColumnAdapter()
        executor = SqlExecutor(adapter)
        executor.execute("CREATE TABLE t (a INT, b STRING, v INT)")
        adapter.insert_rows(
            "t",
            [(i % 40, f"s{i // 40 % 25}", None if i % 9 == 0 else i % 97)
             for i in range(50_000)],
        )
        mutable = adapter._mutable("t")
        while not mutable.compact_step().done:
            pass
        queries = (
            "SELECT a, SUM(v), MIN(v), MAX(v), AVG(v) FROM t GROUP BY a",
            "SELECT a, b, COUNT(*) FROM t GROUP BY a, b",
        )
        warm = [executor.execute(sql) for sql in queries]

        def refuse(*args):
            raise AssertionError("codes combined or bitmap words extracted")

        monkeypatch.setattr(codes_module, "combine", refuse)
        monkeypatch.setattr(batch_module, "_word_layout", refuse)
        monkeypatch.setattr(batch_module, "_column_positions", refuse)
        assert [executor.execute(sql) for sql in queries] == warm
        assert len(warm[0]) == 40 and len(warm[1]) == 1000

    def test_joint_codes_add_one_step_to_the_group_codes(self, monkeypatch):
        """A value column's first grouped aggregate on a generation
        builds its joint codes as one combine step on top of the cached
        group codes, and equal to the codes a GROUP BY on the same
        columns builds."""
        import repro.exec.aggregate as aggregate_module
        import repro.storage.codes as codes_module

        adapter = MutableColumnAdapter()
        executor = SqlExecutor(adapter)
        executor.execute("CREATE TABLE t (a INT, b STRING, v INT)")
        adapter.insert_rows(
            "t", [(i % 40, f"s{i // 40 % 25}", i % 97) for i in range(20_000)]
        )
        mutable = adapter._mutable("t")
        while not mutable.compact_step().done:
            pass
        executor.execute("SELECT a, b, COUNT(*) FROM t GROUP BY a, b")
        calls = []

        def counted(*args):
            calls.append(args[3])
            return combine(*args)

        monkeypatch.setattr(codes_module, "combine", counted)
        executor.execute(
            "SELECT a, b, SUM(v) FROM t WHERE v < 9 GROUP BY a, b"
        )
        assert calls == [97]
        table = mutable.main
        joint, space, steps = aggregate_module._group_codes(
            table, ("a", "b"), "v"
        )
        monkeypatch.setattr(codes_module, "combine", combine)
        from repro.delta.snapshot import _GENERATION_CACHE

        del _GENERATION_CACHE[table][("codes", "a", "b", "v")]
        fresh = aggregate_module._group_codes(table, ("a", "b", "v"))
        assert np.array_equal(joint, fresh[0])
        assert (space, len(steps)) == (fresh[1], len(fresh[2]))


class TestColdKeyDecode:
    """Group keys decode at the groups' vids: a column that is only a
    GROUP BY key never gets the O(dictionary) typed-values arrays, even
    as the first query on a fresh generation of a 200 000-distinct
    key."""

    NKEYS = 200_000

    def test_key_column_builds_no_typed_values(self, monkeypatch):
        import repro.exec.aggregate as aggregate_module

        n = self.NKEYS
        keys = [f"k{i:06d}" for i in range(n)]
        random.Random(4).shuffle(keys)
        schema = TableSchema(
            "t",
            (ColumnSchema("k", DataType.STRING),
             ColumnSchema("v", DataType.INT)),
        )
        db = Database(policy=CompactionPolicy.never())
        db.load_table(Table.from_columns(
            schema, {"k": keys, "v": [i % 1_000 for i in range(n)]}
        ))
        original = aggregate_module._TypedValues

        class Refusing(original):
            __slots__ = ()

            def __init__(self, values, nrows):
                if len(values) == n:
                    raise AssertionError("typed values built for the key")
                super().__init__(values, nrows)

        monkeypatch.setattr(aggregate_module, "_TypedValues", Refusing)
        sql = "SELECT k, COUNT(*) FROM t WHERE v = 3 GROUP BY k"
        got = db.execute(sql)
        select = parse_sql(sql)
        hashed = aggregate_rows(
            [batch.filter(select.where)
             for batch in db.adapter.scan_batches("t")],
            select, schema, "hash",
        )
        assert got == hashed
        assert got == sorted((keys[i], 1) for i in range(3, n, 1_000))
        db.close()


class TestThreeKeyGroupBy:
    """A three-key GROUP BY decodes its keys from the split group codes
    to the same rows unselected, through a selection of the live rows
    and through the deleted positions (compressed and hash paths)."""

    SCHEMA = TableSchema(
        "t",
        (
            ColumnSchema("a", DataType.INT),
            ColumnSchema("b", DataType.STRING),
            ColumnSchema("c", DataType.INT),
            ColumnSchema("v", DataType.INT),
        ),
    )
    ROWS = [
        (i % 2, f"s{(i * 7) % 3}", None if i % 11 == 5 else (i // 2) % 3, i)
        for i in range(48)
    ]
    SQL = "SELECT c, a, b, COUNT(*), SUM(v), MAX(v) FROM t GROUP BY c, a, b"
    DEAD = [0, 4, 11, 29, 30, 47]
    ALL = [
        (0, 0, "s0", 8, 168, 42), (0, 1, "s1", 8, 176, 43),
        (1, 0, "s2", 7, 146, 44), (1, 1, "s0", 7, 165, 45),
        (2, 0, "s1", 7, 184, 46), (2, 1, "s2", 7, 203, 47),
        (None, 0, "s1", 1, 16, 16), (None, 0, "s2", 1, 38, 38),
        (None, 1, "s0", 1, 27, 27), (None, 1, "s2", 1, 5, 5),
    ]
    LIVE = [
        (0, 0, "s0", 6, 138, 42), (0, 1, "s1", 8, 176, 43),
        (1, 0, "s2", 7, 146, 44), (1, 1, "s0", 7, 165, 45),
        (2, 0, "s1", 6, 180, 46), (2, 1, "s2", 4, 116, 41),
        (None, 0, "s1", 1, 16, 16), (None, 0, "s2", 1, 38, 38),
        (None, 1, "s0", 1, 27, 27), (None, 1, "s2", 1, 5, 5),
    ]

    def run(self, batch, strategy="compressed"):
        return aggregate_rows(
            [batch], parse_sql(self.SQL), self.SCHEMA, strategy
        )

    def test_rows_match_the_pinned_decode(self):
        table = Table.from_rows(self.SCHEMA, self.ROWS)
        dead = np.array(self.DEAD, dtype=np.int64)
        live = np.delete(np.arange(len(self.ROWS)), dead)
        assert self.run(TableBatch(table)) == self.ALL
        assert self.run(TableBatch(table, live)) == self.LIVE
        assert self.run(TableBatch(table, deleted=dead)) == self.LIVE
        assert self.run(TableBatch(table, deleted=dead), "hash") == self.LIVE


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
        for owner, reader in (
            (BitmapColumn, "vids"), (aggregate_module, "_group_codes"),
        ):
            original = getattr(owner, reader)

            def counted(*args, _reader=reader, _original=original):
                calls.append(_reader)
                return _original(*args)

            monkeypatch.setattr(owner, reader, counted)
        assert executor.execute(sql) == warm
        assert executor.execute(sql) == warm
        assert calls == []


def _oracle_rows(rows, names, select) -> list[tuple]:
    """The row oracle: group ``rows`` (tuples over ``names``) in a
    Python dict and finish each aggregate by its SQL definition, groups
    ordered by key with NULLs last."""
    group_at = [names.index(name) for name in select.group_by]
    groups: dict = {}
    for row in rows:
        groups.setdefault(tuple(row[i] for i in group_at), []).append(row)

    def finish(item, members):
        if item.column is None:
            return len(members)
        values = [
            row[names.index(item.column)] for row in members
            if row[names.index(item.column)] is not None
        ]
        if item.func == "count":
            return len(values)
        if not values:
            return None
        if item.func in ("sum", "avg"):
            total = sum(values)
            return total if item.func == "sum" else total / len(values)
        return (min if item.func == "min" else max)(values)

    out = []
    for key in sorted(
        groups, key=lambda key: [(value is None, value) for value in key]
    ):
        out.append(tuple(
            key[select.group_by.index(item)] if isinstance(item, str)
            else finish(item, groups[key])
            for item in select.columns
        ))
    return out


class TestJointCodesMatchHashAndOracle:
    """Grouped value aggregates read the cached joint (group…, value)
    codes: with the value column also a group column, one to three
    group columns, NULLs in key and value columns, and selections from
    a WHERE clause, from deleted main rows, or empty, they return the
    hash path's rows and the row oracle's, value and type.  Float
    values are multiples of 0.25, so every sum is exact."""

    NAMES = ("a", "b", "c", "v", "f")
    CREATE = "CREATE TABLE t (a INT, b STRING, c INT, v INT, f FLOAT)"
    ROWS = [
        (
            None if i % 11 == 0 else i % 7,
            None if i % 13 == 0 else f"s{i % 5}",
            i % 10,
            None if i % 9 == 0 else i * 7 % 23,
            None if i % 8 == 0 else (i % 17) * 0.25,
        )
        for i in range(600)
    ]
    QUERIES = (
        "SELECT a, SUM(a), MIN(a), MAX(a), AVG(a), COUNT(a) FROM t{} "
        "GROUP BY a",
        "SELECT a, COUNT(*), COUNT(v), SUM(v), MIN(v), MAX(v), AVG(v) "
        "FROM t{} GROUP BY a",
        "SELECT a, b, SUM(f), MIN(b), MAX(v), AVG(f), COUNT(f) FROM t{} "
        "GROUP BY a, b",
        "SELECT b, a, c, COUNT(*), SUM(v), MAX(f), MIN(f), SUM(c) FROM t{} "
        "GROUP BY b, a, c",
    )
    #: name -> (WHERE clause, DELETE condition, kept row test)
    SELECTIONS = {
        "none": ("", None, lambda row: True),
        "where": (" WHERE c < 4", None, lambda row: row[2] < 4),
        "deleted": ("", "c = 0", lambda row: row[2] != 0),
        "empty": (" WHERE c = 99", None, lambda row: False),
    }

    @pytest.mark.parametrize("selection", sorted(SELECTIONS))
    @pytest.mark.parametrize("query", range(len(QUERIES)))
    def test_matches(self, query, selection):
        where, deleted, kept = self.SELECTIONS[selection]
        db, lite = _compacted_db(self.ROWS, self.CREATE, deleted)
        lite.close()
        sql = self.QUERIES[query].format(where)
        select = parse_sql(sql)
        schema = db.adapter.schema("t")
        batches = list(db.adapter.scan_batches("t"))
        assert [type(batch) for batch in batches] == [TableBatch]
        if select.where is not None:
            batches = [batch.filter(select.where) for batch in batches]
        compressed = aggregate_rows(batches, select, schema, "compressed")
        hashed = aggregate_rows(batches, select, schema, "hash")
        oracle = _oracle_rows(
            [row for row in self.ROWS if kept(row)], self.NAMES, select
        )
        assert compressed == hashed == oracle
        assert [list(map(type, row)) for row in compressed] == [
            list(map(type, row)) for row in oracle
        ]
        assert db.execute(sql) == oracle
        assert (selection == "empty") == (oracle == [])
        db.close()


def _compacted_db(rows, create, deleted_where=None):
    """A ``Database`` whose table ``t`` holds ``rows`` in the compressed
    main store (no delta rows), minus the rows ``deleted_where`` marks
    deleted in place; and a SQLite twin with the same rows."""
    db = Database(policy=CompactionPolicy.never())
    db.execute(create)
    db.adapter.insert_rows("t", rows)
    db.compact("t")
    lite = sqlite3.connect(":memory:")
    lite.execute(create)
    lite.executemany(
        f"INSERT INTO t VALUES ({', '.join('?' * len(rows[0]))})", rows
    )
    if deleted_where is not None:
        for engine in (db, lite):
            engine.execute(f"DELETE FROM t WHERE {deleted_where}")
    return db, lite


class TestMainStoreGroupByMatchesSqlite:
    """Every GROUP BY over a compacted table folds in the dictionary
    domain — however many groups — and returns SQLite's rows, including
    the unique-key shapes whose mixed-radix codes pass int64."""

    NROWS = 20_000
    CREATE = (
        "CREATE TABLE t (k INT, a INT, b INT, c INT, d INT, h INT, "
        "x INT, y INT, v INT)"
    )
    QUERIES = (
        "SELECT k, COUNT(*) FROM t GROUP BY k",
        "SELECT k, SUM(v), MIN(v) FROM t GROUP BY k",
        "SELECT h, COUNT(*), SUM(v), MAX(v), AVG(v) FROM t GROUP BY h",
        "SELECT x, y, COUNT(*) FROM t GROUP BY x, y",
        "SELECT x, y, SUM(v), MAX(v) FROM t GROUP BY x, y",
        "SELECT k, AVG(v) FROM t WHERE v < 5 GROUP BY k",
        "SELECT k, a, b, c, d, COUNT(*) FROM t GROUP BY k, a, b, c, d",
        "SELECT k, a, b, c, SUM(v) FROM t GROUP BY k, a, b, c",
        "SELECT k, a, b, c, SUM(d), MIN(d), MAX(d), AVG(d) FROM t "
        "GROUP BY k, a, b, c",
        "SELECT k, a, b, c, d, SUM(v), COUNT(v) FROM t GROUP BY k, a, b, c, d",
    )

    @pytest.fixture(scope="class", params=[None, "x < 300"],
                    ids=["compacted", "deleted-main-rows"])
    def engines(self, request):
        n = self.NROWS
        keys = list(range(n))
        random.Random(5).shuffle(keys)
        rows = [
            (
                k, k * 7 % n, k * 13 % n, k * 17 % n, k * 19 % n,
                k % 5_000, k % 997, k // 7 % 1_009,
                None if k % 23 == 0 else k * 31 % 1_000,
            )
            for k in keys
        ]
        db, lite = _compacted_db(rows, self.CREATE, request.param)
        yield db, lite
        db.close()
        lite.close()

    @pytest.mark.parametrize("sql", QUERIES)
    def test_folds_compressed_and_matches(self, engines, sql):
        db, lite = engines
        hashed = db.adapter.metrics.counter("exec.agg_batches_hash")
        compressed = db.adapter.metrics.counter(
            "exec.agg_batches_compressed"
        )
        before = compressed.value
        got = db.execute(sql)
        assert hashed.value == 0
        assert compressed.value == before + 1
        assert _normalized(got) == _normalized(lite.execute(sql).fetchall())

    def test_joint_codes_re_densify_at_the_value_step(self, engines):
        """Four 20 000-value group columns span 1.6e17 codes; the value
        column ``d`` multiplies that past 2**62, so the cached joint
        codes re-densify at their last step, the one the value
        aggregate splits off."""
        db, _lite = engines
        db.execute("SELECT k, a, b, c, SUM(d) FROM t GROUP BY k, a, b, c")
        main = db.adapter._mutable("t").main
        codes, space, steps = _group_codes(main, ("k", "a", "b", "c", "d"))
        assert [dense is not None for _size, dense in steps] == [
            False, False, False, True,
        ]
        assert space < 2**63 and codes.min() >= 0


class TestLayersCallShape:
    """``benchmarks/e2e/layers.py`` re-composes an aggregate from the
    public pieces: ``choose_aggregate_strategy(select,
    adapter.table_stats(t), pushdown=...)`` then ``accumulate_batch``
    per scanned batch.  That shape must keep returning what
    ``execute_select`` returns."""

    @pytest.mark.parametrize("sql", (
        "SELECT g, COUNT(*), SUM(v) FROM t GROUP BY g",
        "SELECT g, k, MIN(v) FROM t WHERE v > 3 GROUP BY g, k",
        "SELECT COUNT(*), AVG(v) FROM t",
    ))
    def test_matches_execute_select(self, sql):
        db = Database(policy=CompactionPolicy.never())
        db.execute("CREATE TABLE t (g STRING, k INT, v INT)")
        db.adapter.insert_rows(
            "t", [(f"g{i % 9}", i, i % 11) for i in range(3_000)]
        )
        db.compact("t")
        db.execute("DELETE FROM t WHERE k < 100")
        db.execute("INSERT INTO t VALUES ('g1', -1, 7)")
        adapter = db.adapter
        select = parse_sql(sql)
        group_names, aggs = validate_aggregate_select(
            select, adapter.schema(select.table)
        )
        strategy, _ = choose_aggregate_strategy(
            select, adapter.table_stats(select.table),
            pushdown=adapter.capabilities.pushdown,
        )
        accumulator = GroupAccumulator(aggs)
        for batch in adapter.scan_batches(select.table):
            if select.where is not None:
                batch = batch.filter(select.where)
                if not batch.selected_count:
                    continue
            accumulate_batch(batch, group_names, accumulator, strategy)
        rows = accumulator.finalized_rows(select, group_names)
        assert strategy == "compressed"
        assert accumulator.batches_compressed == 1
        assert accumulator.batches_hash == 1
        assert rows == list(execute_select(adapter, select))


class TestGenerationCache:
    def test_one_entry_per_generation_dies_with_it(self):
        """Decoded rows and the aggregates of one main-store generation
        share one cache entry, gone once the generation is, like the
        vid arrays its columns hold."""
        import gc
        import weakref

        from repro.delta.snapshot import _GENERATION_CACHE

        db = Database(policy=CompactionPolicy.never())
        db.execute("CREATE TABLE t (g STRING, v INT)")
        db.adapter.insert_rows("t", [(f"g{i % 5}", i) for i in range(500)])
        db.compact("t")
        db.execute("SELECT g, SUM(v) FROM t WHERE v > 10 GROUP BY g")
        db.execute("SELECT * FROM t WHERE v < 3")
        main = db.adapter._mutable("t").main
        entry = _GENERATION_CACHE[main]
        assert "rows" in entry and ("codes", "g") in entry
        generation = weakref.ref(main)
        vids = weakref.ref(main.column("g").vids())
        db.execute("INSERT INTO t VALUES ('g9', 1)")
        db.compact("t")
        del main, entry
        gc.collect()
        assert generation() is None and vids() is None


class TestCachedPartials:
    """A whole-table aggregate reads its generation's cached groups and
    partials: a repeat builds nothing and counts one reused batch, a
    WHERE keeps the per-statement path, and a deletion re-reduces at
    most the group it touched."""

    SQL = "SELECT g, COUNT(*), SUM(v), MIN(v), MAX(v), AVG(v) FROM t GROUP BY g"

    def db(self, value_type="INT", value=lambda i: i % 13):
        db = Database(policy=CompactionPolicy.never())
        db.execute(f"CREATE TABLE t (g STRING, v {value_type})")
        db.adapter.insert_rows(
            "t", [(f"g{i % 6}", value(i)) for i in range(600)]
        )
        db.compact("t")
        return db

    @staticmethod
    def spy(monkeypatch, name):
        import repro.exec.aggregate as aggregate_module

        calls = []
        original = getattr(aggregate_module, name)

        def spied(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(aggregate_module, name, spied)
        return calls

    def test_repeat_builds_no_entry_and_counts_one_reuse(self, monkeypatch):
        from repro.delta.snapshot import _GENERATION_CACHE

        db = self.db()
        reused = db.adapter.metrics.counter("exec.agg_partials_reused")
        first = db.execute(self.SQL)
        assert reused.value == 0
        entries = len(_GENERATION_CACHE[db.adapter._mutable("t").main])
        builds = [
            self.spy(monkeypatch, name)
            for name in ("_keys_for_codes", "_histogram", "_reduced")
        ]
        assert db.execute(self.SQL) == first
        assert reused.value == 1
        assert builds == [[], [], []]
        assert len(
            _GENERATION_CACHE[db.adapter._mutable("t").main]
        ) == entries

    def test_a_where_clause_is_not_served_from_partials(self):
        db = self.db()
        reused = db.adapter.metrics.counter("exec.agg_partials_reused")
        sql = self.SQL.replace(" GROUP BY", " WHERE v < 9 GROUP BY")
        assert db.execute(sql) == db.execute(sql)
        assert reused.value == 0

    @pytest.mark.parametrize(
        "value_type, value, victim, redone",
        [
            # An integer sum subtracts: a group re-reduces only where
            # its MIN or MAX value lost its last row.
            ("INT", lambda i: i % 13, "v = 5 AND g = 'g1'", 0),
            ("INT", lambda i: i % 13, "v = 0 AND g = 'g0'", 1),
            ("INT", lambda i: i, "v = 0", 1),
            # A float sum re-adds the touched group in pair order.
            ("FLOAT", lambda i: i / 4, "v = 37.5", 1),
        ],
    )
    def test_one_deletion_redoes_at_most_its_group(
        self, monkeypatch, value_type, value, victim, redone
    ):
        db = self.db(value_type, value)
        db.execute(self.SQL)
        slices = self.spy(monkeypatch, "_slice_pairs")
        db.execute(f"DELETE FROM t WHERE {victim}")
        reused = db.adapter.metrics.counter("exec.agg_partials_reused")
        before = reused.value
        got = db.execute(self.SQL)
        assert reused.value == before + 1
        assert [len(call[1]) for call in slices] == [1] * redone
        select = parse_sql(self.SQL)
        assert got == aggregate_rows(
            db.adapter.scan_batches("t"), select, db.adapter.schema("t"),
            "hash",
        )


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
