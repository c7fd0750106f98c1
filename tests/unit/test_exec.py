"""The vectorized read path: batches, operators, and the planner.

Covers the two predicate strategies (compressed-domain bitmaps for the
main store, compiled columnar evaluators for plain vectors), selection
algebra, the main batch's exclusion list of deleted positions, LIMIT's
batch-level early exit, and SELECT execution through
the pipeline on all three registered backends.
"""

import numpy as np
import pytest

from repro.db import Database
from repro.delta import CompactionPolicy, DeltaStore, MutableTable
from repro.exec import (
    DeltaBatch,
    TableBatch,
    ValuesBatch,
    batches_from_rows,
    compile_predicate,
    filter_batches,
    iter_rows,
    limit_chunks,
    row_chunks,
)
from repro.smo.predicate import And, Comparison, Not, Or
from repro.sql import (
    ColumnStoreAdapter,
    MutableColumnAdapter,
    RowEngineAdapter,
    SqlExecutor,
)
from repro.storage.table import table_from_python
from repro.storage.types import DataType


def small_table(name="r"):
    return table_from_python(
        name,
        {
            "k": (DataType.INT, [1, 2, 3, 4, 5]),
            "s": (DataType.STRING, ["a", "b", "a", "c", "b"]),
        },
    )


def reference_filter(rows, names, predicate):
    """Seed row-at-a-time semantics, the oracle for every strategy."""
    positions = {n: i for i, n in enumerate(names)}
    return [
        row
        for row in rows
        if predicate.matches(lambda a, r=row: r[positions[a]])
    ]


class TestValuesBatch:
    def test_filter_matches_row_wise(self):
        rows = [(1, "a"), (2, "b"), (3, "a"), (4, "c")]
        batch = ValuesBatch.from_rows(("k", "s"), rows)
        predicate = Or(
            And(Comparison("k", ">", 1), Comparison("s", "=", "a")),
            Not(Comparison("s", "!=", "c")),
        )
        got = batch.filter(predicate).rows()
        assert got == reference_filter(rows, ("k", "s"), predicate)

    def test_identity_full_selection_returns_source(self):
        rows = [(1, "a"), (2, "b")]
        batch = ValuesBatch.from_rows(("k", "s"), rows)
        assert batch.rows() is rows

    def test_projection_and_selection(self):
        rows = [(1, "a"), (2, "b"), (3, "c")]
        batch = ValuesBatch.from_rows(("k", "s"), rows).filter(
            Comparison("k", ">=", 2)
        )
        assert batch.rows([1]) == [("b",), ("c",)]
        assert batch.rows([1, 0]) == [("b", 2), ("c", 3)]

    def test_empty_positions(self):
        batch = ValuesBatch.from_rows(("k", "s"), []).filter(
            Comparison("k", "=", 1)
        )
        assert batch.selected_count == 0
        assert batch.rows() == []


class TestCompiledPredicates:
    @pytest.mark.parametrize("op,literal", [
        ("=", 2), ("!=", 2), ("<", 3), ("<=", 3), (">", 2), (">=", 2),
        ("IN", (1, 4)),
    ])
    def test_each_operator_matches_row_semantics(self, op, literal):
        rows = [(1,), (2,), (3,), (4,), (None,)]
        predicate = Comparison("k", op, literal)
        evaluate = compile_predicate(predicate)
        got = evaluate({"k": [r[0] for r in rows]}, np.arange(5))
        expected = [
            predicate.matches(lambda a, r=row: r[0]) for row in rows
        ]
        assert list(got) == expected

    def test_and_short_circuits_but_agrees(self):
        rows = [(1, "a"), (2, "b"), (3, "a")]
        predicate = And(Comparison("k", ">", 1), Comparison("s", "=", "a"))
        evaluate = compile_predicate(predicate)
        columns = {"k": [1, 2, 3], "s": ["a", "b", "a"]}
        assert list(evaluate(columns, np.arange(3))) == [
            False, False, True,
        ]
        assert reference_filter(rows, ("k", "s"), predicate) == [(3, "a")]


class TestTableBatch:
    def test_compressed_domain_filter(self):
        table = small_table()
        batch = TableBatch(table)
        predicate = Or(Comparison("s", "=", "a"), Comparison("k", ">", 4))
        got = batch.filter(predicate).rows()
        assert got == reference_filter(
            table.to_rows(), ("k", "s"), predicate
        )

    def test_validity_selection_masks_rows(self):
        table = small_table()
        validity = np.array([0, 2, 4], dtype=np.int64)
        assert TableBatch(table, validity).rows() == [
            (1, "a"), (3, "a"), (5, "b"),
        ]

    def test_filter_composes_with_validity(self):
        table = small_table()
        validity = np.array([0, 2, 4], dtype=np.int64)
        batch = TableBatch(table, validity).filter(
            Comparison("s", "=", "b")
        )
        assert batch.rows() == [(5, "b")]


class TestTableBatchPositions:
    """A main-store selection is the predicate bitmap's set positions,
    sorted ``int64``, and composes by sorted intersection and
    difference — no dense row mask in between."""

    def table(self, nrows=500):
        return table_from_python(
            "r",
            {
                "k": (DataType.INT, [i % 7 for i in range(nrows)]),
                "s": (DataType.STRING, [f"s{i % 5}" for i in range(nrows)]),
            },
        )

    PREDICATES = (
        Comparison("k", "=", 3),
        Comparison("s", "IN", ("s1", "s4")),
        And(Comparison("k", "=", 2), Comparison("s", "=", "s2")),
        Comparison("k", "=", 99),
    )

    @pytest.mark.parametrize("predicate", PREDICATES, ids=str)
    def test_filter_selects_the_predicate_bitmaps_positions(self, predicate):
        table = self.table()
        selection = TableBatch(table).filter(predicate).selection
        assert isinstance(selection, np.ndarray)
        assert selection.dtype == np.int64
        assert np.array_equal(
            selection, predicate.bitmap(table).positions()
        )
        assert np.all(np.diff(selection) > 0)

    @pytest.mark.parametrize("predicate", PREDICATES, ids=str)
    def test_filter_and_without_compose_with_validity(self, predicate):
        table = self.table()
        validity = np.arange(0, table.nrows, 3, dtype=np.int64)
        batch = TableBatch(table, validity)
        hit = batch.filter(predicate)
        matches = predicate.bitmap(table).positions()
        assert hit.selection.dtype == np.int64
        assert hit.selection.tolist() == sorted(
            set(validity.tolist()) & set(matches.tolist())
        )
        rest = batch.without(hit)
        assert rest.selection.dtype == np.int64
        assert rest.selection.tolist() == sorted(
            set(validity.tolist()) - set(matches.tolist())
        )
        # Unselected, the rest is an exclusion list: the matches are
        # its deleted positions, and no array of every row is built.
        everything = TableBatch(table)
        rest = everything.without(everything.filter(predicate))
        assert rest.selection is None
        deleted = [] if rest.deleted is None else rest.deleted.tolist()
        assert deleted == matches.tolist()
        assert rest.selected_count == table.nrows - len(matches)
        assert rest.selected_positions().tolist() == sorted(
            set(range(table.nrows)) - set(matches.tolist())
        )


class TestExclusionList:
    """A main batch's validity is the positions it deletes: with D of
    an n-row main deleted, the scan holds D positions, counts n - D,
    and no read class builds an array of every surviving row."""

    N = 3_000
    READS = (
        "SELECT * FROM r",
        "SELECT * FROM r WHERE k = 7",
        "SELECT * FROM r WHERE s = 's1' AND v = 4",
        "SELECT s, COUNT(*) FROM r GROUP BY s",
        "SELECT s, SUM(v), MIN(v), MAX(v), AVG(v) FROM r GROUP BY s",
        "SELECT s, v, COUNT(*) FROM r GROUP BY s, v",
        "SELECT COUNT(*), SUM(v), MIN(v), MAX(v) FROM r",
        "SELECT DISTINCT s FROM r",
        "SELECT k, v FROM r ORDER BY v LIMIT 10",
    )

    def table(self):
        n = self.N
        return table_from_python(
            "r",
            {
                "k": (DataType.INT, [i % 50 for i in range(n)]),
                "s": (DataType.STRING, [f"s{i % 7}" for i in range(n)]),
                "v": (DataType.INT, [i % 13 for i in range(n)]),
            },
        )

    def mutable(self):
        mutable = MutableTable(self.table(), CompactionPolicy.never())
        assert mutable.delete(Comparison("k", "IN", (0, 17))) == 120
        assert mutable.update({"v": 99}, Comparison("k", "=", 5)) == 60
        return mutable

    def test_the_scan_holds_the_deleted_positions_only(self):
        mutable = self.mutable()
        dead = sorted(mutable.delta.deleted_main)
        batch = mutable.scan_batches()[0]
        assert len(dead) == 180
        assert batch.selection is None
        assert batch.deleted.dtype == np.int64
        assert batch.deleted.tolist() == dead
        assert not any(
            isinstance(value, np.ndarray) and len(value) == self.N
            for value in (batch.selection, batch.deleted)
        )
        assert batch.selected_count == self.N - len(dead)

    def test_a_full_scan_is_a_fresh_list(self):
        from repro.db import Database
        from repro.delta.snapshot import decoded_main_rows

        mutable = self.mutable()
        dead = set(mutable.delta.deleted_main)
        rows = mutable.scan_batches()[0].rows()
        cache = decoded_main_rows(mutable.main)
        assert rows is not cache
        assert rows == [
            row for position, row in enumerate(cache) if position not in dead
        ]
        assert len(cache) == self.N

        db = Database(policy=CompactionPolicy.never())
        db.load_table(self.table())
        db.execute("DELETE FROM r WHERE k = 3")
        scanned = db.execute("SELECT * FROM r")
        main = db.engine.delta_handle("r").main
        assert scanned is not decoded_main_rows(main)
        assert len(scanned) == self.N - 60
        db.close()

    def test_no_read_class_enumerates_the_survivors(self, monkeypatch):
        from repro.db import Database

        db = Database(policy=CompactionPolicy.never())
        db.load_table(self.table())
        db.execute("DELETE FROM r WHERE k IN (0, 17)")
        db.execute("UPDATE r SET v = 99 WHERE k = 5")
        # Warm: the generation's caches are built once, O(rows) each.
        expected = [db.execute(sql) for sql in self.READS]
        reference = db.engine.delta_handle("r").to_rows()
        assert expected[0] == reference

        def table_sized(*args, **kwargs):
            raise AssertionError("a read enumerated every surviving row")

        monkeypatch.setattr(TableBatch, "selected_positions", table_sized)
        monkeypatch.setattr(
            DeltaStore, "surviving_main_positions", table_sized
        )
        assert [db.execute(sql) for sql in self.READS] == expected
        db.close()


class TestDeltaBatch:
    def delta(self):
        schema = small_table().schema
        store = DeltaStore(schema)
        store.append_rows([(10, "x"), (11, "y"), (12, "x"), (13, "z")])
        store.apply_update([], [1], [])
        return store

    @pytest.mark.parametrize("deleted_index", [1, None])
    def test_filter_matches_row_wise_with_and_without_index(
        self, deleted_index
    ):
        # ``deleted_index`` is the delta position deleted before the
        # filter runs; None filters a buffer with no deletes.
        store = DeltaStore(small_table().schema)
        store.append_rows([(10, "x"), (11, "y"), (12, "x"), (13, "z")])
        if deleted_index is not None:
            store.apply_update([], [deleted_index], [])
        predicate = Or(Comparison("s", "=", "x"), Comparison("k", ">", 12))
        batch = DeltaBatch(store)
        got = batch.filter(predicate).rows()
        live = store.live_rows()
        assert got == reference_filter(live, ("k", "s"), predicate)

    def test_filter_ignores_rows_appended_after_the_pin(self):
        # The buffer's vectors outgrow a pinned batch; its filter reads
        # only the batch's own physical rows.
        store = DeltaStore(small_table().schema)
        store.append_rows([(10, "x"), (11, "x")])
        batch = DeltaBatch(store)
        store.append_rows([(12, "x"), (13, "x")])
        matched = batch.filter(Comparison("s", "=", "x"))
        assert matched.physical_rows == 2
        assert matched.selection.tolist() == [0, 1]
        assert matched.rows() == [(10, "x"), (11, "x")]

    def test_epoch_pinned_visibility(self):
        store = self.delta()
        pinned = store.epoch
        store.append_rows([(14, "w")])
        store.apply_update([], [0], [])
        batch = DeltaBatch(store, pinned)
        assert batch.rows() == [(10, "x"), (12, "x"), (13, "z")]

    def test_projection(self):
        store = self.delta()
        assert DeltaBatch(store).rows([1]) == [("x",), ("x",), ("z",)]


class TestOperatorsAndLimit:
    def test_limit_early_exits_the_scan(self):
        pulled = []

        def source():
            for i in range(100):
                pulled.append(i)
                yield (i, "x")

        batches = batches_from_rows(("k", "s"), source(), batch_rows=10)
        got = [
            row for chunk in limit_chunks(row_chunks(batches), 3)
            for row in chunk
        ]
        assert got == [(0, "x"), (1, "x"), (2, "x")]
        # Only the first chunk was pulled; the remaining 90 rows were
        # never materialized.
        assert len(pulled) == 10

    def test_filter_drops_emptied_batches(self):
        batches = batches_from_rows(
            ("k",), [(i,) for i in range(20)], batch_rows=5
        )
        survivors = list(
            filter_batches(batches, Comparison("k", ">=", 15))
        )
        assert len(survivors) == 1
        assert survivors[0].rows() == [(15,), (16,), (17,), (18,), (19,)]


def seeded_executor(adapter):
    executor = SqlExecutor(adapter)
    executor.execute("CREATE TABLE t (k INT, s STRING)")
    executor.execute(
        "INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'a'), (4, 'c')"
    )
    return executor


class TestSelectThroughPipeline:
    @pytest.mark.parametrize("adapter_factory", [
        MutableColumnAdapter, ColumnStoreAdapter, RowEngineAdapter,
    ])
    def test_same_answers_on_every_backend(self, adapter_factory):
        executor = seeded_executor(adapter_factory())
        assert executor.execute("SELECT * FROM t WHERE s = 'a'") == [
            (1, "a"), (3, "a"),
        ]
        assert executor.execute(
            "SELECT s FROM t WHERE k > 1 ORDER BY s DESC LIMIT 2"
        ) == [("c",), ("b",)]
        assert executor.execute("SELECT DISTINCT s FROM t") == [
            ("a",), ("b",), ("c",),
        ]

    def test_mutable_backend_merges_main_and_delta_in_order(self):
        adapter = MutableColumnAdapter(policy=CompactionPolicy.never())
        executor = seeded_executor(adapter)
        adapter.compact("t")  # push the seed rows into the main store
        executor.execute("INSERT INTO t VALUES (5, 'a')")
        executor.execute("DELETE FROM t WHERE k = 2")
        # Main survivors in row order, then live delta appends.
        assert executor.execute("SELECT * FROM t") == [
            (1, "a"), (3, "a"), (4, "c"), (5, "a"),
        ]
        assert executor.execute("SELECT k FROM t WHERE s = 'a'") == [
            (1,), (3,), (5,),
        ]
        assert executor.execute("SELECT * FROM t LIMIT 3") == [
            (1, "a"), (3, "a"), (4, "c"),
        ]

    def test_limit_matches_row_path_semantics(self):
        executor = seeded_executor(RowEngineAdapter())
        assert executor.execute("SELECT * FROM t LIMIT 0") == []
        assert executor.execute("SELECT * FROM t LIMIT 99") == [
            (1, "a"), (2, "b"), (3, "a"), (4, "c"),
        ]
        assert executor.execute(
            "SELECT DISTINCT s FROM t WHERE k >= 2 LIMIT 1"
        ) == [("b",)]

    def test_join_through_batches_without_native_hash_join(self):
        adapter = ColumnStoreAdapter()
        executor = SqlExecutor(adapter)
        executor.execute("CREATE TABLE l (a INT, b INT)")
        executor.execute("CREATE TABLE r2 (a INT, c STRING)")
        executor.execute("INSERT INTO l VALUES (1, 10), (2, 20)")
        executor.execute(
            "INSERT INTO r2 VALUES (1, 'x'), (1, 'y'), (3, 'z')"
        )
        assert executor.execute("SELECT * FROM l JOIN r2 ON (a)") == [
            (1, 10, "x"), (1, 10, "y"),
        ]
        assert executor.execute(
            "SELECT b, c FROM l JOIN r2 ON (a) WHERE c != 'x'"
        ) == [(10, "y")]

    def test_snapshot_scope_reads_through_batches(self):
        db = Database(policy=CompactionPolicy.never())
        executor = seeded_executor(db.adapter)
        with db.transaction(read_only=True) as tx:
            before = tx.execute("SELECT * FROM t WHERE s = 'a'")
            executor.execute("INSERT INTO t VALUES (9, 'a')")
            assert tx.execute("SELECT * FROM t WHERE s = 'a'") == before
        assert (9, "a") in executor.execute("SELECT * FROM t WHERE s = 'a'")


class TestScanBatchesSurface:
    def test_mutable_table_batches_match_reference_merge(self):
        mutable = MutableTable(small_table(), CompactionPolicy.never())
        mutable.insert((6, "d"))
        mutable.delete(Comparison("k", "=", 2))
        assert list(iter_rows(mutable.scan_batches())) == mutable.to_rows()

    def test_batches_keep_their_captured_selection_under_later_dml(self):
        """A batch handed out by scan_batches describes one instant;
        deletes (or compaction) landing before it is consumed must not
        leak into its materialization."""
        mutable = MutableTable(small_table(), CompactionPolicy.never())
        mutable.delete(Comparison("k", "=", 2))  # validity is non-None
        batches = mutable.scan_batches()
        captured = [b.selected_count for b in batches]
        mutable.delete(Comparison("k", "=", 4))
        assert [b.selected_count for b in batches] == captured
        assert list(iter_rows(batches)) == [
            (1, "a"), (3, "a"), (4, "c"), (5, "b"),
        ]
        batches = mutable.scan_batches()
        mutable.compact("test")
        assert list(iter_rows(batches)) == [(1, "a"), (3, "a"), (5, "b")]

    def test_failed_validation_charges_no_materialization(self):
        from repro.errors import SchemaError

        adapter = ColumnStoreAdapter()
        executor = seeded_executor(adapter)
        before = adapter.rows_materialized
        with pytest.raises(SchemaError):
            executor.execute("SELECT * FROM t WHERE nosuch = 1")
        with pytest.raises(SchemaError):
            executor.execute("SELECT nosuch FROM t WHERE k = 1")
        assert adapter.rows_materialized == before

    def test_snapshot_batches_stay_pinned(self):
        mutable = MutableTable(small_table(), CompactionPolicy.never())
        with mutable.snapshot() as snapshot:
            frozen = list(iter_rows(snapshot.scan_batches()))
            mutable.insert((7, "e"))
            mutable.delete(Comparison("k", "=", 1))
            assert list(iter_rows(snapshot.scan_batches())) == frozen
            assert frozen == snapshot.to_rows()

    def test_row_adapter_chunks_its_heap(self):
        adapter = RowEngineAdapter()
        seeded_executor(adapter)
        batches = list(adapter.scan_batches("t"))
        assert [b.column_names for b in batches] == [("k", "s")]
        assert list(iter_rows(batches)) == adapter.engine.table("t").rows

    def test_column_adapter_still_charges_materialization(self):
        adapter = ColumnStoreAdapter()
        executor = seeded_executor(adapter)
        before = adapter.rows_materialized
        executor.execute("SELECT * FROM t WHERE k = 1")
        assert adapter.rows_materialized == before + 4


class TestPlanCosts:
    """What a plan pulls and what timing it costs, pinned exactly."""

    @staticmethod
    def database(main_rows, delta_rows=0):
        db = Database(policy=CompactionPolicy.never())
        db.execute("CREATE TABLE t (k INT, s STRING)")
        db.executemany(
            "INSERT INTO t VALUES (?, ?)",
            [(i, f"s{i % 50:02d}") for i in range(main_rows)],
        )
        db.compact("t")
        db.executemany(
            "INSERT INTO t VALUES (?, ?)",
            [(-i, f"s{i % 50:02d}") for i in range(delta_rows)],
        )
        return db

    @pytest.mark.parametrize("limit", [999, 1000])
    def test_limit_decodes_no_batch_past_its_last_row(self, limit):
        # The main store is one 1 000-row batch, the delta a second
        # one: a LIMIT the first batch completes never decodes the
        # second, even when it ends exactly at the batch boundary.
        db = self.database(1000, 300)
        decoded = db.adapter.metrics.counter("exec.rows_decoded")
        before = decoded.value
        assert len(db.execute(f"SELECT * FROM t LIMIT {limit}")) == limit
        assert decoded.value - before == 1000
        assert len(db.execute("SELECT * FROM t LIMIT 1001")) == 1001
        assert decoded.value - before == 1000 + 1300

    @pytest.mark.parametrize("sql, batches, decoded", [
        ("SELECT * FROM t", 1, 5000),
        ("SELECT k, s FROM t ORDER BY s", 1, 5000),
        # Value runs decode one at a time: LIMIT 150 reads two runs of
        # 100 rows.
        ("SELECT k, s FROM t ORDER BY s LIMIT 150", 1, 200),
        ("SELECT DISTINCT s FROM t", 1, 50),
    ])
    def test_every_projection_charges_its_batches(self, sql, batches, decoded):
        db = self.database(5000)
        metrics = db.adapter.metrics
        before = [metrics.counter(name).value
                  for name in ("exec.batches", "exec.rows_decoded")]
        db.execute(sql)
        after = [metrics.counter(name).value
                 for name in ("exec.batches", "exec.rows_decoded")]
        assert [a - b for a, b in zip(after, before)] == [batches, decoded]

    def test_projections_over_the_delta_charge_each_batch(self):
        db = self.database(5000, 30)
        metrics = db.adapter.metrics
        for sql, decoded in [
            ("SELECT k, s FROM t ORDER BY s", 5030),
            ("SELECT DISTINCT s FROM t", 50 + 30),
        ]:
            before = [metrics.counter(name).value
                      for name in ("exec.batches", "exec.rows_decoded")]
            db.execute(sql)
            after = [metrics.counter(name).value
                     for name in ("exec.batches", "exec.rows_decoded")]
            assert [a - b for a, b in zip(after, before)] == [2, decoded]

    @pytest.mark.parametrize("sql", [
        "SELECT * FROM t",
        "SELECT k, s FROM t ORDER BY s LIMIT 10",
    ])
    def test_traced_timing_ticks_per_batch_not_per_row(
        self, monkeypatch, sql
    ):
        from repro.exec import planner

        def clock_reads(rows):
            db = self.database(rows, 20)
            calls = []

            def counting():
                calls.append(None)
                return 0.0

            monkeypatch.setattr(planner, "perf_counter", counting)
            try:
                analyzed = db.execute("EXPLAIN ANALYZE " + sql)
            finally:
                monkeypatch.undo()
            returned = len(db.execute(sql))
            assert analyzed[0][4] == returned
            return len(calls)

        small = clock_reads(2000)
        assert small > 0
        assert clock_reads(20000) == small


class TestLoadedTablesAreNeverDecoded:
    """A table bulk-loaded from vid arrays keeps them on its columns:
    the benchmark's analytic read stream (every read class, warm-up and
    timed passes) decodes no column."""

    def test_the_analytic_read_stream_decodes_no_column(self, monkeypatch):
        from pathlib import Path

        from repro.storage.column import BitmapColumn

        monkeypatch.syspath_prepend(
            str(Path(__file__).resolve().parents[2] / "benchmarks" / "e2e")
        )
        import datagen

        decodes = []
        decode_vids = BitmapColumn.decode_vids

        def counted(column):
            decodes.append(column.name)
            return decode_vids(column)

        monkeypatch.setattr(BitmapColumn, "decode_vids", counted)
        generated = datagen.generate_f(2010, 2_000)
        db = Database()
        db.load_table(generated.table())
        session = db.session()
        ops = datagen.analytic_stream(2010, generated, 2)
        assert {op.cls for op in ops} == set(datagen.READ_CLASSES)
        for op in ops:
            session.execute(op.sql, op.params)
        assert decodes == []
        assert session.execute("SELECT * FROM F") == generated.rows()
        db.close()
