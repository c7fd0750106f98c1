"""Unit tests for the write path: delta store, mutable tables,
compaction policies, SQL DML, engine flush-before-evolve, persistence,
demo commands and the mixed workload."""

import io

import pytest

from repro.bitmap import WAHBitmap
from repro.core.engine import EvolutionEngine
from repro.delta import CompactionPolicy, DeltaStore, MutableTable
from repro.demo.cli import DemoSession
from repro.errors import (
    SchemaError,
    SerializationError,
    SqlExecutionError,
    SqlSyntaxError,
    StorageError,
)
from repro.exec import iter_rows
from repro.smo.predicate import And, Comparison
from repro.sql import (
    ColumnStoreAdapter,
    MutableColumnAdapter,
    RowEngineAdapter,
    SqlExecutor,
    parse_sql,
)
from repro.sql.ast import Delete, Update
from repro.storage import (
    DataType,
    Table,
    delta_sidecar_path,
    load_delta,
    load_engine,
    save_delta,
    save_engine,
    table_from_python,
)
from repro.workload import MixedReadWriteWorkload


def small_table(name="R"):
    return table_from_python(
        name,
        {
            "K": (DataType.INT, [1, 2, 3, 4]),
            "S": (DataType.STRING, ["a", "b", "a", "c"]),
        },
    )


def frozen(table=None, **kwargs):
    """A MutableTable that never auto-compacts."""
    return MutableTable(
        table if table is not None else small_table(),
        CompactionPolicy.never(),
        **kwargs,
    )


class TestDeltaStore:
    def test_append_and_live_rows(self):
        store = DeltaStore(small_table().schema)
        store.append_rows([(5, "d")])
        store.append_rows([(6, "e")])
        assert store.n_appended == 2
        assert store.live_rows() == [(5, "d"), (6, "e")]

    def test_append_coerces(self):
        store = DeltaStore(small_table().schema)
        store.append_rows([("7", 8)])
        assert store.live_rows() == [(7, "8")]

    def test_append_arity_checked(self):
        store = DeltaStore(small_table().schema)
        with pytest.raises(StorageError):
            store.append_rows([(1,)])

    def test_delete_delta_and_main(self):
        store = DeltaStore(small_table().schema)
        store.append_rows([(5, "d")])
        assert store.apply_update([], [0], []) == 0  # appends nothing
        assert store.deleted_delta == {0: 2}
        assert store.n_live == 0
        store.apply_update([2], [], [])
        assert store.deleted_main == {2: 3}
        with pytest.raises(StorageError):
            store.apply_update([], [99], [])
        assert store.epoch == 3

    def test_replay_update_rejects_a_bad_index_before_any_change(self):
        store = DeltaStore(small_table().schema)
        store.append_rows([(5, "d")])
        with pytest.raises(StorageError):
            store.replay_update([1], [0, 3], [(6, "e")], 2)
        assert store.deleted_main == {}
        assert store.deleted_delta == {}
        assert store.live_rows() == [(5, "d")]
        assert store.epoch == 1

    def test_surviving_positions(self):
        store = DeltaStore(small_table().schema)
        store.apply_update([0, 3], [], [])
        assert store.surviving_main_positions(4).tolist() == [1, 2]


class TestMutableTable:
    def test_merged_read_order(self):
        mutable = frozen()
        mutable.insert((5, "d"))
        assert mutable.to_rows() == [
            (1, "a"), (2, "b"), (3, "a"), (4, "c"), (5, "d"),
        ]
        assert mutable.nrows == 5

    def test_compaction_encodes_buffered_values_exactly(self):
        """The fold dictionary-encodes the buffer in bulk: first-seen
        vid order, NULLs, and strings NumPy would truncate all survive."""
        rows = [(5, "z"), (6, None), (7, "z\0"), (8, "z"), (9, None)]
        table = table_from_python(
            "R",
            {
                "K": (DataType.INT, [1, 2]),
                "S": (DataType.STRING, ["a", "b"]),
            },
        )
        mutable = frozen(table)
        mutable.insert_rows(rows)
        main = mutable.compact()
        assert main.to_rows() == [(1, "a"), (2, "b")] + rows
        assert main.column("S").dictionary.values() == [
            "a", "b", "z", None, "z\0",
        ]
        assert all(isinstance(bm, WAHBitmap) for bm in main.column("S").bitmaps)

    def test_insert_rows_is_atomic(self):
        mutable = frozen()
        with pytest.raises(StorageError):
            mutable.insert_rows([(5, "d"), (6,)])  # second row malformed
        assert mutable.nrows == 4  # nothing from the batch was admitted
        assert not mutable.has_pending_changes

    def test_scan_is_snapshot(self):
        mutable = frozen()
        batches = mutable.scan_batches()
        mutable.insert((5, "d"))
        assert len(list(iter_rows(batches))) == 4

    def test_delete_spans_main_and_delta(self):
        mutable = frozen()
        mutable.insert((5, "a"))
        assert mutable.delete(Comparison("S", "=", "a")) == 3
        assert mutable.to_rows() == [(2, "b"), (4, "c")]

    def test_delete_all(self):
        mutable = frozen()
        assert mutable.delete() == 4
        assert mutable.to_rows() == []
        assert mutable.compact().nrows == 0

    def test_delete_is_idempotent_per_row(self):
        mutable = frozen()
        assert mutable.delete(Comparison("K", "=", 1)) == 1
        assert mutable.delete(Comparison("K", "=", 1)) == 0

    def test_update_moves_rows_to_delta(self):
        mutable = frozen()
        count = mutable.update({"S": "z"}, Comparison("K", ">=", 3))
        assert count == 2
        assert sorted(mutable.to_rows()) == [
            (1, "a"), (2, "b"), (3, "z"), (4, "z"),
        ]

    def test_update_compound_predicate_and_delta_rows(self):
        mutable = frozen()
        mutable.insert((10, "a"))
        predicate = And(
            Comparison("S", "=", "a"), Comparison("K", ">", 2)
        )
        assert mutable.update({"S": "y"}, predicate) == 2
        assert sorted(mutable.to_rows()) == [
            (1, "a"), (2, "b"), (3, "y"), (4, "c"), (10, "y"),
        ]

    def test_update_validates_column(self):
        with pytest.raises(SchemaError):
            frozen().update({"Nope": 1})

    def test_update_empty_assignments(self):
        assert frozen().update({}) == 0

    def test_compact_preserves_content_and_codec(self):
        mutable = frozen()
        mutable.insert((5, "d"))
        mutable.delete(Comparison("K", "=", 2))
        expected = mutable.to_rows()
        table = mutable.compact()
        assert table.to_rows() == expected
        assert not mutable.has_pending_changes
        assert all(
            isinstance(bitmap, WAHBitmap)
            for name in table.column_names
            for bitmap in table.column(name).bitmaps
        )
        oracle = Table.from_rows(table.schema, expected)
        assert table.same_content(oracle)

    def test_compact_empty_delta_is_noop(self):
        mutable = frozen()
        assert mutable.compact() is mutable.main

    def test_compact_callback(self):
        seen = []
        mutable = frozen(
            on_compact=lambda table, reason: seen.append((table.nrows, reason))
        )
        mutable.insert((5, "d"))
        mutable.compact("test")
        assert seen == [(5, "test")]

    def test_autocompact_on_row_threshold(self):
        mutable = MutableTable(
            small_table(), CompactionPolicy(2, None, None)
        )
        mutable.insert((5, "d"))
        assert mutable.compactions == 0
        mutable.insert((6, "e"))
        assert mutable.compactions == 1
        assert mutable.main.nrows == 6

    def test_autocompact_on_deleted_ratio(self):
        mutable = MutableTable(
            small_table(), CompactionPolicy(None, None, 0.5)
        )
        mutable.delete(Comparison("S", "=", "a"))
        assert mutable.compactions == 1
        assert mutable.main.nrows == 2

    def test_restore_delta_guards(self):
        mutable = frozen()
        mutable.insert((5, "d"))
        with pytest.raises(SchemaError):
            mutable.restore_delta(DeltaStore(small_table().schema))
        other = DeltaStore(small_table("Other").schema)
        frozen().restore_delta(other)  # same columns is fine

    def test_same_content_against_mutable(self):
        left, right = frozen(), frozen()
        left.insert((5, "d"))
        right.insert((5, "d"))
        assert left.same_content(right)
        right.insert((6, "e"))
        assert not left.same_content(right)


def count_decodes(monkeypatch) -> list[str]:
    """Record the name of every column whose vids are decoded from
    here on."""
    from repro.storage import BitmapColumn

    decodes = []
    decode_vids = BitmapColumn.decode_vids

    def counted(column):
        decodes.append(column.name)
        return decode_vids(column)

    monkeypatch.setattr(BitmapColumn, "decode_vids", counted)
    return decodes


class TestDmlTouchesOnlyItsVictims:
    """UPDATE and DELETE cost O(victims): no bitmap filtering, no
    position expansion of whole columns, no survivors array."""

    @staticmethod
    def wide(rows):
        return frozen(
            table_from_python(
                "R",
                {
                    "K": (DataType.INT, list(range(rows))),
                    "S": (DataType.STRING, [f"s{i % 997}" for i in range(rows)]),
                },
            )
        )

    def test_update_and_delete_never_scan_the_table(self, monkeypatch):
        import repro.bitmap.batch as batch
        from repro.storage import BitmapColumn

        mutable = self.wide(50_000)
        mutable.insert_rows([(-1, "d1"), (-2, "d2")])
        assert len(list(iter_rows(mutable.scan_batches()))) == 50_002

        def table_sized(*args, **kwargs):
            raise AssertionError("a one-row statement did O(table) work")

        monkeypatch.setattr(BitmapColumn, "select", table_sized)
        monkeypatch.setattr(batch, "batch_select", table_sized)
        monkeypatch.setattr(batch, "batch_positions", table_sized)
        monkeypatch.setattr(
            DeltaStore, "surviving_main_positions", table_sized
        )
        assert mutable.update({"S": "u"}, Comparison("K", "IN", (7, -1))) == 2
        assert mutable.delete(Comparison("K", "IN", (11, -2))) == 2
        monkeypatch.undo()

        rows = mutable.to_rows()
        assert len(rows) == 50_000
        assert rows[7] == (8, "s8") and rows[10] == (12, "s12")
        assert rows[-2:] == [(7, "u"), (-1, "u")]

    def test_updates_on_a_cold_generation_decode_the_main_once(
        self, monkeypatch
    ):
        mutable = self.wide(1_000)
        decodes = count_decodes(monkeypatch)
        assert mutable.update({"S": "u"}, Comparison("K", "=", 3)) == 1
        assert mutable.update({"S": "v"}, Comparison("S", "=", "s5")) == 1
        assert len(list(iter_rows(mutable.scan_batches()))) == 1_000
        assert sorted(decodes) == ["K", "S"]

    def test_a_fold_with_deletions_reuses_the_warm_vid_arrays(
        self, monkeypatch
    ):
        import repro.bitmap.batch as batch
        import repro.storage.column as column_module
        from repro.storage import BitmapColumn

        mutable = self.wide(5_000)
        mutable.insert_rows([(-1, "s1"), (-2, "new")])
        assert mutable.delete(Comparison("K", "IN", (0, 7, 4_999))) == 3
        assert mutable.delete(Comparison("S", "=", "s5")) == 6
        expected = mutable.to_rows()
        assert list(iter_rows(mutable.scan_batches())) == expected

        def refiltered(*args, **kwargs):
            raise AssertionError("the fold filtered or decoded a column")

        monkeypatch.setattr(batch, "batch_select", refiltered)
        monkeypatch.setattr(column_module, "batch_select", refiltered)
        monkeypatch.setattr(batch, "batch_positions", refiltered)
        monkeypatch.setattr(BitmapColumn, "decode_vids", refiltered)
        mutable.compact()
        monkeypatch.undo()
        assert mutable.main.to_rows() == expected
        assert "s5" not in mutable.main.column("S").dictionary

    def test_a_cold_generation_is_decoded_once_per_column(
        self, monkeypatch
    ):
        adapter = MutableColumnAdapter(policy=CompactionPolicy.never())
        executor = SqlExecutor(adapter)
        executor.execute("CREATE TABLE t (k INT, g STRING, v INT)")
        adapter.insert_rows(
            "t", [(i, f"g{i % 7}", i % 13) for i in range(3_000)]
        )
        adapter.compact("t")
        executor.execute("INSERT INTO t VALUES (-1, 'g3', 5)")
        assert executor.execute("DELETE FROM t WHERE g = 'g3'") == 430
        decodes = count_decodes(monkeypatch)
        rows = executor.execute("SELECT * FROM t")
        groups = executor.execute(
            "SELECT g, v, COUNT(*) FROM t GROUP BY g, v"
        )
        adapter.compact("t")
        assert sorted(decodes) == ["g", "k", "v"]
        assert len(rows) == sum(count for *_, count in groups) == 2_571
        assert executor.execute("SELECT * FROM t") == rows


class TestSqlDml:
    def test_parse_update(self):
        statement = parse_sql(
            "UPDATE r SET s = 'z', k = 3 WHERE k > 1"
        )
        assert isinstance(statement, Update)
        assert statement.assignments == (("s", "z"), ("k", 3))
        assert statement.where is not None

    def test_parse_update_without_where(self):
        statement = parse_sql("UPDATE r SET s = 'z'")
        assert statement.where is None

    def test_parse_delete(self):
        statement = parse_sql("DELETE FROM r WHERE s = 'a'")
        assert isinstance(statement, Delete)
        assert statement.where is not None

    def test_parse_delete_all(self):
        assert parse_sql("DELETE FROM r").where is None

    def test_parse_update_requires_equals(self):
        with pytest.raises(SqlSyntaxError):
            parse_sql("UPDATE r SET s > 'z'")

    def test_parse_delete_requires_from(self):
        with pytest.raises(SqlSyntaxError):
            parse_sql("DELETE r WHERE s = 'a'")

    @pytest.mark.parametrize(
        "make_adapter",
        [MutableColumnAdapter, RowEngineAdapter, ColumnStoreAdapter],
        ids=["delta", "rowstore", "query-level"],
    )
    def test_dml_end_to_end(self, make_adapter):
        executor = SqlExecutor(make_adapter())
        executor.execute("CREATE TABLE r (k INT, s STRING)")
        assert executor.execute(
            "INSERT INTO r VALUES (1, 'a'), (2, 'b'), (3, 'a')"
        ) == 3
        assert executor.execute("UPDATE r SET s = 'z' WHERE k >= 2") == 2
        assert executor.execute("DELETE FROM r WHERE s = 'a'") == 1
        assert sorted(executor.execute("SELECT * FROM r")) == [
            (2, "z"), (3, "z"),
        ]
        assert executor.execute("DELETE FROM r") == 2
        assert executor.execute("SELECT * FROM r") == []

    def test_update_unknown_column_rejected(self):
        executor = SqlExecutor(MutableColumnAdapter())
        executor.execute("CREATE TABLE r (k INT)")
        with pytest.raises(SqlExecutionError):
            executor.execute("UPDATE r SET nope = 1")

    def test_update_coerces_literals_everywhere(self):
        for make_adapter in (
            MutableColumnAdapter, RowEngineAdapter, ColumnStoreAdapter,
        ):
            executor = SqlExecutor(make_adapter())
            executor.execute("CREATE TABLE r (k INT, f FLOAT)")
            executor.execute("INSERT INTO r VALUES (1, 0.5)")
            executor.execute("UPDATE r SET f = 2")
            (row,) = executor.execute("SELECT * FROM r")
            assert row == (1, 2.0) and isinstance(row[1], float)

    def test_rowstore_update_rebuilds_indexes(self):
        adapter = RowEngineAdapter()
        executor = SqlExecutor(adapter)
        executor.execute("CREATE TABLE r (k INT, s STRING)")
        executor.execute("INSERT INTO r VALUES (1, 'a'), (2, 'b')")
        executor.execute("CREATE INDEX idx ON r (s)")
        executor.execute("UPDATE r SET s = 'z' WHERE k = 1")
        assert adapter.engine.table("r").lookup("s", "z") == [(1, "z")]
        executor.execute("DELETE FROM r WHERE k = 2")
        assert adapter.engine.table("r").lookup("s", "b") == []

    def test_delta_adapter_scan_merges_pending(self):
        adapter = MutableColumnAdapter(policy=CompactionPolicy.never())
        executor = SqlExecutor(adapter)
        executor.execute("CREATE TABLE r (k INT, s STRING)")
        executor.execute("INSERT INTO r VALUES (1, 'a')")
        assert adapter.catalog.table("r").nrows == 0  # still buffered
        assert executor.execute("SELECT * FROM r") == [(1, "a")]
        adapter.compact("r")
        assert adapter.catalog.table("r").nrows == 1

    def test_delta_adapter_rename_preserves_delta(self):
        # RENAME is metadata-only: the buffered row survives under the
        # new name without a compaction (the ROADMAP's O(1) rename).
        adapter = MutableColumnAdapter(policy=CompactionPolicy.never())
        executor = SqlExecutor(adapter)
        executor.execute("CREATE TABLE r (k INT)")
        executor.execute("INSERT INTO r VALUES (1)")
        executor.execute("ALTER TABLE r RENAME TO r2")
        assert adapter.catalog.table("r2").nrows == 0  # still buffered
        pending = adapter.evolution_engine.pending_delta("r2")
        assert pending is not None and pending.compactions == 0
        assert executor.execute("SELECT * FROM r2") == [(1,)]
        adapter.compact("r2")
        assert adapter.catalog.table("r2").nrows == 1


class TestEngineFlushBeforeEvolve:
    def employee_engine(self):
        engine = EvolutionEngine()
        engine.load_table(table_from_python(
            "R",
            {
                "Employee": (DataType.STRING, ["Jones", "Ellis", "Jones"]),
                "Skill": (DataType.STRING, ["Typing", "Alchemy", "Filing"]),
                "Address": (DataType.STRING, ["425 G", "747 I", "425 G"]),
            },
        ))
        return engine

    def test_smo_on_pending_delta_flushes(self):
        engine = self.employee_engine()
        mutable = engine.mutable("R", CompactionPolicy.never())
        mutable.insert(("Harrison", "Cleaning", "425 G"))
        mutable.delete(Comparison("Skill", "=", "Filing"))
        status = engine.apply_sql_like(
            "DECOMPOSE TABLE R INTO S (Employee, Skill), "
            "T (Employee, Address)"
        )
        assert status.delta_rows_flushed == 2  # 1 buffered + 1 deleted
        assert any(e.step == "delta flush" for e in status.events)
        assert sorted(engine.table("S").to_rows()) == [
            ("Ellis", "Alchemy"), ("Harrison", "Cleaning"),
            ("Jones", "Typing"),
        ]
        # the handle was invalidated
        assert engine.pending_delta("R") is None

    def test_smo_without_delta_has_no_flush_event(self):
        engine = self.employee_engine()
        status = engine.apply_sql_like("RENAME TABLE R TO R2")
        assert status.delta_rows_flushed == 0
        assert not any(e.step == "delta flush" for e in status.events)

    def test_flush_applies_to_both_merge_inputs(self):
        engine = self.employee_engine()
        engine.apply_sql_like(
            "DECOMPOSE TABLE R INTO S (Employee, Skill), "
            "T (Employee, Address)"
        )
        engine.mutable("S", CompactionPolicy.never()).insert(
            ("Nguyen", "Poetry")
        )
        engine.mutable("T", CompactionPolicy.never()).insert(
            ("Nguyen", "1 Verse Blvd")
        )
        status = engine.apply_sql_like("MERGE TABLES S, T INTO R")
        assert status.delta_rows_flushed == 2
        assert ("Nguyen", "Poetry", "1 Verse Blvd") in set(
            engine.table("R").to_rows()
        )

    def test_compaction_republishes_into_catalog(self):
        engine = self.employee_engine()
        mutable = engine.mutable("R", CompactionPolicy.never())
        mutable.insert(("Harrison", "Cleaning", "425 G"))
        mutable.compact()
        assert engine.table("R").nrows == 4
        assert any(
            "COMPACT R" in entry.operation
            for entry in engine.catalog.history
        )

    def test_mutable_handle_is_cached(self):
        engine = self.employee_engine()
        assert engine.mutable("R") is engine.mutable("R")

    def test_stale_handle_cannot_revert_an_smo(self):
        engine = self.employee_engine()
        mutable = engine.mutable("R", CompactionPolicy.never())
        engine.apply_sql_like("DROP COLUMN Address FROM R")
        assert not mutable.is_valid
        with pytest.raises(StorageError):
            mutable.insert(("Ghost", "Haunting", "13 Elm"))
        with pytest.raises(StorageError):
            mutable.compact()
        # The evolved schema stands and a fresh handle sees it.
        assert engine.mutable("R").schema.column_names == (
            "Employee", "Skill",
        )

    def test_invalid_smo_never_loses_writes(self):
        engine = self.employee_engine()
        mutable = engine.mutable("R", CompactionPolicy.never())
        mutable.insert(("Smith", "Welding", "12 Elm"))
        with pytest.raises(SchemaError):
            engine.apply_sql_like("DROP COLUMN Nope FROM R")
        # The flush may have run, but the merged content survives and a
        # fresh handle picks it up.
        assert ("Smith", "Welding", "12 Elm") in set(
            engine.mutable("R").to_rows()
        )

    def test_add_column_values_sized_to_flushed_table(self):
        engine = self.employee_engine()
        engine.mutable("R", CompactionPolicy.never()).insert(
            ("Smith", "Welding", "12 Elm")
        )
        from repro.smo.ops import AddColumn
        from repro.storage import ColumnSchema

        # 3 main rows + 1 buffered: the values list must match the
        # post-flush count of 4.
        status = engine.apply(AddColumn(
            "R", ColumnSchema("Grade", DataType.INT), values=(1, 2, 3, 4),
        ))
        assert status.delta_rows_flushed == 1
        assert engine.table("R").column("Grade").to_values() == [1, 2, 3, 4]

    def test_drop_table_discards_delta_without_compacting(self):
        engine = self.employee_engine()
        mutable = engine.mutable("R", CompactionPolicy.never())
        mutable.insert(("Smith", "Welding", "12 Elm"))
        engine.apply_sql_like("DROP TABLE R")
        assert not mutable.is_valid
        assert mutable.compactions == 0
        assert "R" not in engine.catalog

    def test_delta_stats_listing(self):
        engine = self.employee_engine()
        engine.mutable("R", CompactionPolicy.never()).insert(
            ("Smith", "Welding", "12 Elm")
        )
        (stats,) = engine.delta_stats()
        assert stats.table == "R" and stats.delta_live == 1


class TestDeltaPersistence:
    def test_delta_roundtrip(self, tmp_path):
        store = DeltaStore(small_table().schema)
        store.append_rows([(5, "d")])
        store.append_rows([(6, "e")])
        store.apply_update([], [0], [])
        store.apply_update([1], [], [])
        path = tmp_path / "r.delta"
        save_delta(store, path)
        loaded = load_delta(path, small_table().schema)
        assert loaded.live_rows() == [(6, "e")]
        assert loaded.deleted_main == store.deleted_main
        assert loaded.deleted_delta == store.deleted_delta
        assert loaded.insert_epochs == store.insert_epochs
        assert loaded.epoch == store.epoch

    def test_mutable_roundtrip(self, tmp_path):
        engine = EvolutionEngine()
        engine.load_table(small_table())
        mutable = engine.mutable("R", CompactionPolicy.never())
        mutable.insert((5, "d"))
        mutable.delete(Comparison("K", "=", 1))
        save_engine(engine, tmp_path)
        assert delta_sidecar_path(tmp_path / "R.cods").exists()
        restored = load_engine(tmp_path, CompactionPolicy.never())
        assert restored.mutable("R").to_rows() == mutable.to_rows()

    def test_clean_table_removes_stale_sidecar(self, tmp_path):
        # Every saved table has a sidecar; after a fold, the next save
        # replaces the one holding the old buffer with an empty one.
        engine = EvolutionEngine()
        engine.load_table(small_table())
        mutable = engine.mutable("R", CompactionPolicy.never())
        mutable.insert((5, "d"))
        save_engine(engine, tmp_path)
        mutable.compact()
        save_engine(engine, tmp_path)
        assert delta_sidecar_path(tmp_path / "R.cods").exists()
        restored = load_engine(tmp_path).mutable("R")
        assert not restored.has_pending_changes
        assert restored.main.nrows == 5

    def test_delta_schema_mismatch_rejected(self, tmp_path):
        store = DeltaStore(small_table().schema)
        path = tmp_path / "r.delta"
        save_delta(store, path)
        other = table_from_python(
            "R", {"X": (DataType.INT, [1])}
        ).schema
        with pytest.raises(SerializationError):
            load_delta(path, other)

    def test_corrupt_magic_rejected(self, tmp_path):
        path = tmp_path / "r.delta"
        path.write_bytes(b"NOPE....")
        with pytest.raises(SerializationError):
            load_delta(path, small_table().schema)

    def test_engine_roundtrip(self, tmp_path):
        engine = EvolutionEngine()
        engine.load_table(small_table())
        engine.mutable("R", CompactionPolicy.never()).insert((9, "z"))
        save_engine(engine, tmp_path)
        restored = load_engine(tmp_path, CompactionPolicy.never())
        pending = restored.pending_delta("R")
        assert pending is not None
        assert pending.to_rows()[-1] == (9, "z")

    def test_out_of_range_sidecar_rejected_on_both_load_paths(self, tmp_path):
        # Both main-file layouts load_engine reads: the canonical
        # R.cods, and a versioned main the sidecar names.
        from repro.storage import save_table

        (tmp_path / "catalog.json").write_text(
            '{"tables": ["R"], "version": 1}'
        )
        store = DeltaStore(small_table().schema)
        store.apply_update([999], [], [])  # beyond the 4-row main store
        sidecar = delta_sidecar_path(tmp_path / "R.cods")
        for main_file in ("R.cods", "R.g3.cods"):
            save_table(small_table(), tmp_path / main_file)
            save_delta(
                store,
                sidecar,
                main_file=None if main_file == "R.cods" else main_file,
            )
            with pytest.raises(SerializationError, match="beyond"):
                load_engine(tmp_path)


class TestDemoDeltaCommands:
    def session(self):
        out = io.StringIO()
        return DemoSession(out=out), out

    def test_insert_delete_compact_deltastat(self):
        session, out = self.session()
        session.handle("example")
        session.handle(
            "sql INSERT INTO R VALUES ('Smith', 'Welding', '12 Elm St')"
        )
        session.handle("deltastat")
        session.handle("sql DELETE FROM R WHERE Employee = 'Jones'")
        session.handle("display R")
        session.handle("compact R")
        session.handle("deltastat R")
        text = out.getvalue()
        assert "R: main=7 delta=+1 -0" in text
        assert "3 row(s) affected" in text
        assert "merged view: 7 main rows, +1 buffered, -3 deleted" in text
        assert "compacted R" in text
        assert "compactions=1" in text

    def test_insert_multiple_rows(self):
        session, out = self.session()
        session.handle("create CREATE TABLE Z (A INT, B STRING)")
        session.handle("execute")
        session.handle("sql INSERT INTO Z VALUES (1, 'x'), (2, 'y')")
        session.handle("display Z")
        text = out.getvalue()
        assert "2 row(s) affected" in text
        assert "+2 buffered" in text

    def test_compact_with_empty_delta(self):
        session, out = self.session()
        session.handle("example")
        session.handle("compact R")
        assert "nothing to compact" in out.getvalue()

    def test_deltastat_empty(self):
        session, out = self.session()
        session.handle("deltastat")
        assert "no tables with delta state" in out.getvalue()

    def test_bad_insert_reports_error(self):
        session, out = self.session()
        session.handle("example")
        session.handle("sql INSERT INTO R VALUES (1")
        assert "error: unexpected end of statement" in out.getvalue()

    def test_removed_write_commands_point_at_sql(self):
        session, out = self.session()
        session.handle("example")
        session.handle("insert R ('a', 'b', 'c')")
        session.handle("help")
        text = out.getvalue()
        assert "unknown command 'insert'" in text
        assert "sql INSERT INTO" in text and "sql DELETE FROM" in text


class TestMixedWorkload:
    def test_deterministic(self):
        workload = MixedReadWriteWorkload(100, 50, n_employees=10)
        first = workload.operations()
        second = workload.operations()
        assert first == second

    def test_fraction_counts(self):
        workload = MixedReadWriteWorkload(
            100, 40, insert_fraction=0.5, update_fraction=0.25,
            delete_fraction=0.25,
        )
        kinds = [op.kind for op in workload.operations()]
        assert kinds.count("insert") == 20
        assert kinds.count("update") == 10
        assert kinds.count("delete") == 10

    def test_fractions_validated(self):
        from repro.errors import WorkloadError

        with pytest.raises(WorkloadError):
            MixedReadWriteWorkload(
                100, 10, insert_fraction=0.9, update_fraction=0.9,
            )

    def test_apply_matches_manual_replay(self):
        workload = MixedReadWriteWorkload(200, 60, n_employees=10, seed=7)
        mutable = MutableTable(workload.build(), CompactionPolicy.never())
        counters = workload.apply_to(mutable)
        assert counters["insert"] + counters["update"] + \
            counters["delete"] + counters["scan"] == 60

        # Replaying the same stream on a fresh copy gives the same rows.
        replay = MutableTable(workload.build(), CompactionPolicy(256))
        workload.apply_to(replay)
        assert sorted(mutable.to_rows()) == sorted(replay.to_rows())

    def test_aggregate_scan_mix_cycles_the_group_by_queries(self):
        from repro.workload import AGGREGATE_SCAN_QUERIES

        workload = MixedReadWriteWorkload(
            100, 40, n_employees=10, scan_mix="aggregate"
        )
        scans = [
            op for op in workload.operations() if op.kind == "scan"
        ]
        assert scans, "stream produced no reads"
        rendered = [op.sql("R") for op in scans]
        assert rendered[: len(AGGREGATE_SCAN_QUERIES)] == [
            query.format(table="R") for query in AGGREGATE_SCAN_QUERIES
        ][: len(rendered)]
        assert all("GROUP BY" in sql or "COUNT" in sql for sql in rendered)

    def test_mixed_scan_mix_interleaves_full_and_aggregate(self):
        workload = MixedReadWriteWorkload(
            100, 60, n_employees=10, scan_mix="mixed"
        )
        scans = [
            op for op in workload.operations() if op.kind == "scan"
        ]
        kinds = {op.query is None for op in scans}
        assert kinds == {True, False}

    def test_scan_mix_validated(self):
        from repro.errors import WorkloadError

        with pytest.raises(WorkloadError, match="scan mix"):
            MixedReadWriteWorkload(100, 10, scan_mix="sideways")


class TestWritePathExport:
    def test_json_roundtrip(self, tmp_path):
        from repro.bench.exporters import (
            load_write_path_json,
            write_path_json,
        )

        payload = {"benchmark": "write_path", "rows": 10}
        path = tmp_path / "BENCH_write_path.json"
        write_path_json(payload, path)
        assert load_write_path_json(path) == payload

    def test_bench_script_runs(self, tmp_path):
        import subprocess
        import sys
        from pathlib import Path

        repo = Path(__file__).resolve().parents[2]
        out = tmp_path / "BENCH_write_path.json"
        result = subprocess.run(
            [
                sys.executable,
                str(repo / "benchmarks" / "bench_write_path.py"),
                "--rows", "500", "--ops", "60", "--out", str(out),
            ],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(repo / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 0, result.stderr
        from repro.bench.exporters import load_write_path_json

        payload = load_write_path_json(out)
        assert payload["benchmark"] == "write_path"
        assert payload["compaction"]["final_rows"] >= 0
