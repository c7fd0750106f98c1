"""Unit tests for MVCC snapshots, incremental compaction, predicates
over the delta, O(1) metadata renames, snapshot-scoped SQL and the
versioned ``.delta`` sidecar."""

import struct

import pytest

from repro.core.engine import EvolutionEngine
from repro.db import Database
from repro.delta import (
    CompactionPolicy,
    DeltaStore,
    MutableTable,
    Snapshot,
)
from repro.errors import SchemaError, SerializationError, StorageError
from repro.exec import filter_batches, iter_rows
from repro.smo import parse_smo
from repro.smo.predicate import And, Comparison, Not, Or
from repro.sql import MutableColumnAdapter, SqlExecutor
from repro.storage import (
    DataType,
    delta_sidecar_path,
    load_delta,
    load_engine,
    save_delta,
    save_engine,
    table_from_python,
)
from tests.conftest import rows_where


def small_table(name="R"):
    return table_from_python(
        name,
        {
            "K": (DataType.INT, [1, 2, 3, 4]),
            "S": (DataType.STRING, ["a", "b", "a", "c"]),
        },
    )


def frozen(table=None, **kwargs):
    return MutableTable(
        table if table is not None else small_table(),
        CompactionPolicy.never(),
        **kwargs,
    )


def engine_handle():
    """An engine holding ``small_table()`` and its never-compacting
    DML handle, for save/load round trips."""
    engine = EvolutionEngine()
    engine.load_table(small_table())
    return engine, engine.mutable("R", CompactionPolicy.never())


class TestSnapshotPinning:
    def test_snapshot_is_frozen_under_dml(self):
        mutable = frozen()
        snapshot = mutable.snapshot()
        pinned = snapshot.to_rows()
        mutable.insert((5, "d"))
        mutable.delete(Comparison("K", "=", 1))
        mutable.update({"S": "z"}, Comparison("K", "=", 2))
        assert snapshot.to_rows() == pinned
        assert snapshot.nrows == 4
        assert rows_where(snapshot) == pinned
        assert mutable.nrows == 4  # -1 main, +1 insert (update is in-place)

    def test_snapshot_sees_delta_state_at_pin(self):
        mutable = frozen()
        mutable.insert((5, "d"))
        mutable.delete(Comparison("K", "=", 2))
        snapshot = mutable.snapshot()
        assert snapshot.to_rows() == [(1, "a"), (3, "a"), (4, "c"), (5, "d")]
        mutable.delete()  # delete everything afterwards
        assert snapshot.to_rows() == [(1, "a"), (3, "a"), (4, "c"), (5, "d")]
        assert mutable.nrows == 0

    def test_snapshot_survives_full_compaction(self):
        mutable = frozen()
        snapshot = mutable.snapshot()
        pinned = snapshot.to_rows()
        mutable.insert((5, "d"))
        mutable.delete(Comparison("S", "=", "a"))
        mutable.compact()
        assert snapshot.to_rows() == pinned
        assert snapshot.generation == 0 and mutable.generation == 1

    def test_scan_is_pinned_without_explicit_snapshot(self):
        mutable = frozen()
        batches = mutable.scan_batches()
        mutable.insert((5, "d"))
        mutable.compact()
        assert len(list(iter_rows(batches))) == 4

    def test_context_manager_closes(self):
        mutable = frozen()
        with mutable.snapshot() as snapshot:
            assert mutable.open_snapshots == 1
            assert snapshot.nrows == 4
        assert mutable.open_snapshots == 0
        assert snapshot.closed
        with pytest.raises(StorageError):
            snapshot.to_rows()
        snapshot.close()  # idempotent

    def test_filtered_read_on_snapshot(self):
        mutable = frozen()
        mutable.insert((5, "a"))
        snapshot = mutable.snapshot()
        mutable.delete()  # later deletes must not leak into the pin
        assert sorted(rows_where(snapshot, Comparison("S", "=", "a"))) == [
            (1, "a"), (3, "a"), (5, "a"),
        ]
        assert rows_where(snapshot) == snapshot.to_rows()

    def test_snapshot_readable_after_handle_invalidation(self):
        engine = EvolutionEngine()
        engine.load_table(small_table())
        mutable = engine.mutable("R", CompactionPolicy.never())
        mutable.insert((5, "d"))
        snapshot = mutable.snapshot()
        pinned = snapshot.to_rows()
        engine.apply(parse_smo("DROP COLUMN S FROM R"))  # flush + invalidate
        assert not mutable.is_valid
        assert snapshot.to_rows() == pinned
        snapshot.close()


class TestVersionRetention:
    def test_old_generation_retained_until_last_close(self):
        mutable = frozen()
        first = mutable.snapshot()
        second = mutable.snapshot()
        mutable.insert((5, "d"))
        mutable.compact()
        assert mutable.retained_versions == (0,)
        first.close()
        assert mutable.retained_versions == (0,)  # second still pins it
        second.close()
        assert mutable.retained_versions == ()

    def test_unpinned_compaction_retains_nothing(self):
        mutable = frozen()
        mutable.insert((5, "d"))
        mutable.compact()
        assert mutable.retained_versions == ()

    def test_snapshots_across_generations(self):
        mutable = frozen()
        old = mutable.snapshot()
        mutable.insert((5, "d"))
        mutable.compact()
        new = mutable.snapshot()
        mutable.insert((6, "e"))
        mutable.compact()
        assert mutable.retained_versions == (0, 1)
        assert old.to_rows() == [(1, "a"), (2, "b"), (3, "a"), (4, "c")]
        assert new.to_rows()[-1] == (5, "d")
        old.close()
        assert mutable.retained_versions == (1,)
        new.close()
        assert mutable.retained_versions == ()


class TestIncrementalCompaction:
    def test_steps_cover_all_columns(self):
        mutable = frozen()
        mutable.insert((5, "d"))
        progress = mutable.compact_step()
        assert (progress.columns_done, progress.columns_total) == (1, 2)
        assert not progress.done and progress.remaining == 1
        assert mutable.has_pending_changes  # run in flight
        progress = mutable.compact_step()
        assert progress.done
        assert mutable.compactions == 1
        assert mutable.main.to_rows()[-1] == (5, "d")

    def test_step_budget_from_policy(self):
        mutable = MutableTable(
            small_table(), CompactionPolicy(None, None, None, step_columns=2)
        )
        mutable.insert((5, "d"))
        assert mutable.compact_step().done  # both columns in one step

    def test_empty_delta_step_is_noop(self):
        mutable = frozen()
        progress = mutable.compact_step()
        assert progress.done and progress.columns_total == 0
        assert mutable.compactions == 0

    def test_dml_between_steps_is_carried_over(self):
        mutable = frozen()
        mutable.insert((5, "d"))
        mutable.compact_step()                       # cutoff pinned
        mutable.insert((6, "e"))                     # post-cutoff insert
        mutable.delete(Comparison("K", "=", 1))      # post-cutoff, main row
        mutable.delete(Comparison("K", "=", 5))      # post-cutoff, folded row
        assert mutable.compact_step().done
        # The new main holds the cutoff state; the carried delta masks it.
        assert sorted(mutable.main.to_rows()) == [
            (1, "a"), (2, "b"), (3, "a"), (4, "c"), (5, "d"),
        ]
        assert sorted(mutable.to_rows()) == [(2, "b"), (3, "a"), (4, "c"),
                                             (6, "e")]
        mutable.compact()
        assert sorted(mutable.main.to_rows()) == [(2, "b"), (3, "a"),
                                                  (4, "c"), (6, "e")]

    def test_post_cutoff_deletes_land_on_shifted_positions(self):
        """With rows dropped by the fold, a deletion that raced it must
        mask the victim's *new* position: its rank among the kept main
        rows, or behind them among the cutoff-live buffered rows."""
        mutable = frozen()
        mutable.insert((5, "d"))
        mutable.insert((6, "e"))
        mutable.delete(Comparison("K", "=", 2))      # folded away: main
        mutable.delete(Comparison("K", "=", 5))      # folded away: delta
        mutable.compact_step()                       # cutoff pinned
        mutable.delete(Comparison("K", "=", 4))      # main position 3 -> 2
        mutable.delete(Comparison("K", "=", 6))      # delta index 1 -> 3
        assert mutable.compact_step().done
        assert mutable.main.to_rows() == [
            (1, "a"), (3, "a"), (4, "c"), (6, "e"),
        ]
        assert sorted(mutable.delta.deleted_main) == [2, 3]
        assert mutable.to_rows() == [(1, "a"), (3, "a")]

    def test_update_between_steps(self):
        mutable = frozen()
        mutable.insert((5, "d"))
        mutable.compact_step()
        mutable.update({"S": "z"}, Comparison("K", ">=", 4))
        while not mutable.compact_step().done:
            pass
        assert sorted(mutable.to_rows()) == [
            (1, "a"), (2, "b"), (3, "a"), (4, "z"), (5, "z"),
        ]

    def test_compact_finishes_inflight_run(self):
        mutable = frozen()
        mutable.insert((5, "d"))
        mutable.compact_step()
        table = mutable.compact("wrap up")
        assert table is mutable.main
        assert not mutable.has_pending_changes
        assert mutable.compactions == 1

    def test_snapshot_pinned_mid_run_is_stable(self):
        mutable = frozen()
        mutable.insert((5, "d"))
        mutable.compact_step()
        snapshot = mutable.snapshot()  # pinned while the run is in flight
        pinned = snapshot.to_rows()
        mutable.insert((6, "e"))
        assert mutable.compact_step().done
        mutable.compact()
        assert snapshot.to_rows() == pinned

    def test_on_compact_fires_once_per_cycle(self):
        seen = []
        mutable = frozen(
            on_compact=lambda table, reason: seen.append(reason)
        )
        mutable.insert((5, "d"))
        mutable.compact_step(reason="bg")
        assert seen == []
        mutable.compact_step(reason="bg")
        assert seen == ["bg"]


class TestDeltaPredicates:
    """Buffered rows are filtered by the read path's compiled
    evaluator at every size, under pinned epochs and across renames."""

    def test_filter_matches_row_wise_for_all_operators(self):
        rows = [(k, s) for k in range(6) for s in "abc"]
        mutable = frozen()
        mutable.insert_rows(rows)
        predicates = [
            Comparison("K", "=", 3),
            Comparison("K", "!=", 2),
            Comparison("K", "<", 2),
            Comparison("K", ">=", 4),
            Comparison("S", "IN", ("a", "c")),
            And(Comparison("K", ">", 1), Comparison("S", "=", "b")),
            Or(Comparison("K", "=", 0), Comparison("S", "=", "c")),
            Not(Comparison("S", "=", "a")),
        ]
        for predicate in predicates:
            expected = [
                row
                for row in mutable.to_rows()
                if predicate.matches(lambda a, r=row: r["KS".index(a)])
            ]
            assert rows_where(mutable, predicate) == expected, str(predicate)

    def test_deletes_under_a_pinned_epoch(self):
        mutable = frozen()
        mutable.insert_rows([(5, "d"), (6, "d")])
        snapshot = mutable.snapshot()
        mutable.delete(Comparison("K", "=", 5))
        assert rows_where(mutable, Comparison("S", "=", "d")) == [(6, "d")]
        assert rows_where(snapshot, Comparison("S", "=", "d")) == [
            (5, "d"), (6, "d"),
        ]

    def test_filter_after_column_rename(self):
        mutable = frozen()
        mutable.insert((5, "d"))
        mutable.rewire_metadata(
            mutable.main.with_renamed_column("S", "Skill"), {"S": "Skill"}
        )
        assert rows_where(mutable, Comparison("Skill", "=", "d")) == [
            (5, "d")
        ]
        assert mutable.delete(Comparison("Skill", "=", "d")) == 1


class TestMetadataRenames:
    def engine_with_delta(self):
        engine = EvolutionEngine()
        engine.load_table(small_table())
        mutable = engine.mutable("R", CompactionPolicy.never())
        mutable.insert((5, "d"))
        return engine, mutable

    def test_rename_table_smo_preserves_delta(self):
        engine, mutable = self.engine_with_delta()
        status = engine.apply(parse_smo("RENAME TABLE R TO R2"))
        assert status.delta_rows_flushed == 0
        assert not any(e.step == "delta flush" for e in status.events)
        assert mutable.is_valid and mutable.compactions == 0
        assert engine.pending_delta("R2") is mutable
        assert mutable.name == "R2"
        assert mutable.to_rows()[-1] == (5, "d")
        assert engine.table("R2").nrows == 4  # still buffered

    def test_rename_column_smo_preserves_delta(self):
        engine, mutable = self.engine_with_delta()
        status = engine.apply(parse_smo("RENAME COLUMN S TO Skill IN R"))
        assert status.delta_rows_flushed == 0
        assert mutable.compactions == 0
        assert mutable.schema.column_names == ("K", "Skill")
        assert mutable.delta.schema.column_names == ("K", "Skill")
        assert mutable.delete(Comparison("Skill", "=", "d")) == 1

    def test_rename_mid_incremental_run(self):
        engine, mutable = self.engine_with_delta()
        mutable.compact_step()
        engine.apply(parse_smo("RENAME COLUMN S TO Skill IN R"))
        assert mutable.compact_step(columns=2).done
        assert mutable.schema.column_names == ("K", "Skill")
        assert sorted(engine.table("R").to_rows()) == [
            (1, "a"), (2, "b"), (3, "a"), (4, "c"), (5, "d"),
        ]

    def test_rewire_rejects_row_count_changes(self):
        mutable = frozen()
        other = table_from_python(
            "R",
            {"K": (DataType.INT, [1]), "S": (DataType.STRING, ["a"])},
        )
        with pytest.raises(StorageError):
            mutable.rewire_metadata(other)

    def test_adopt_schema_rejects_mismatched_columns(self):
        store = DeltaStore(small_table().schema)
        with pytest.raises(StorageError):
            store.adopt_schema(
                table_from_python("R", {"X": (DataType.INT, [])}).schema
            )

    def test_epoch_and_snapshots_survive_rename(self):
        engine, mutable = self.engine_with_delta()
        snapshot = mutable.snapshot()
        epoch = mutable.epoch
        engine.apply(parse_smo("RENAME TABLE R TO R2"))
        assert mutable.epoch == epoch
        assert snapshot.to_rows()[-1] == (5, "d")

    def test_pinned_snapshot_follows_column_rename(self):
        # Names are metadata, not data: a pinned view answers predicates
        # under the new names while its rows never change.
        engine, mutable = self.engine_with_delta()
        snapshot = mutable.snapshot()
        pinned = snapshot.to_rows()
        engine.apply(parse_smo("RENAME COLUMN S TO Skill IN R"))
        mutable.delete()  # later deletes stay invisible to the pin
        assert snapshot.to_rows() == pinned
        assert sorted(
            rows_where(snapshot, Comparison("Skill", "=", "a"))
        ) == [(1, "a"), (3, "a")]

    def test_retained_generation_follows_rename(self):
        engine, mutable = self.engine_with_delta()
        snapshot = mutable.snapshot()  # pins generation 0
        mutable.compact()              # generation 0 becomes retained
        engine.apply(parse_smo("RENAME COLUMN S TO Skill IN R"))
        assert rows_where(snapshot, Comparison("Skill", "=", "d")) == [
            (5, "d")
        ]
        snapshot.close()


class TestSnapshotScopedSql:
    def executor(self):
        adapter = MutableColumnAdapter(policy=CompactionPolicy.never())
        executor = SqlExecutor(adapter)
        executor.execute("CREATE TABLE r (k INT, s STRING)")
        executor.execute("INSERT INTO r VALUES (1, 'a'), (2, 'b')")
        return adapter, executor

    def database(self):
        db = Database(policy=CompactionPolicy.never())
        db.execute("CREATE TABLE r (k INT, s STRING)")
        db.execute("INSERT INTO r VALUES (1, 'a'), (2, 'b')")
        return db

    def test_scope_freezes_selects(self):
        db = self.database()
        with db.transaction(read_only=True) as tx:
            before = tx.execute("SELECT * FROM r")
            db.execute("INSERT INTO r VALUES (3, 'c')")
            db.execute("DELETE FROM r WHERE k = 1")
            assert tx.execute("SELECT * FROM r") == before
            assert tx.execute("SELECT * FROM r WHERE s = 'a'") == [(1, "a")]
        assert sorted(db.execute("SELECT * FROM r")) == [
            (2, "b"), (3, "c"),
        ]

    def test_scope_survives_rename(self):
        db = self.database()
        tx = db.transaction(read_only=True).begin()
        db.execute("ALTER TABLE r RENAME TO r2")
        db.execute("INSERT INTO r2 VALUES (9, 'z')")
        assert len(tx.execute("SELECT * FROM r2")) == 2  # pinned
        tx.rollback()
        assert db.engine.mutable("r2").open_snapshots == 0  # released
        assert len(db.execute("SELECT * FROM r2")) == 3

    def test_drop_table_clears_the_scope(self):
        db = self.database()
        with db.transaction(read_only=True) as tx:
            db.execute("DROP TABLE r")
            db.execute("CREATE TABLE r (k INT, s STRING)")
            db.execute("INSERT INTO r VALUES (99, 'z')")
            # The re-created table must not be shadowed by the dropped
            # table's pinned rows.
            assert tx.execute("SELECT * FROM r") == [(99, "z")]

    def test_predicate_pushdown_matches_scan(self):
        adapter, executor = self.executor()
        executor.execute("INSERT INTO r VALUES (3, 'a'), (4, 'c')")
        adapter.compact("r")  # rows into the compressed main
        executor.execute("INSERT INTO r VALUES (5, 'a')")  # and the delta
        assert sorted(
            executor.execute("SELECT k FROM r WHERE s = 'a'")
        ) == [(1,), (3,), (5,)]
        # Pushdown also serves tables without a mutable handle.
        fresh = MutableColumnAdapter()
        fresh.catalog.create(small_table())
        rows = iter_rows(
            filter_batches(fresh.scan_batches("R"), Comparison("S", "=", "a"))
        )
        assert sorted(rows) == [(1, "a"), (3, "a")]

    def test_create_index_only_validates(self):
        adapter, executor = self.executor()
        executor.execute("CREATE INDEX idx ON r (s)")
        assert executor.execute("SELECT k FROM r WHERE s = 'a'") == [(1,)]
        with pytest.raises(SchemaError, match="no column"):
            executor.execute("CREATE INDEX idx ON r (missing)")


class TestSidecarV2:
    def test_roundtrip_preserves_mvcc_state(self, tmp_path):
        engine, mutable = engine_handle()
        mutable.insert((5, "d"))
        mutable.delete(Comparison("K", "=", 2))
        mutable.insert((6, "e"))
        mutable.delete(Comparison("K", "=", 6))
        save_engine(engine, tmp_path)
        restored = load_engine(tmp_path, CompactionPolicy.never()).mutable("R")
        assert restored.to_rows() == mutable.to_rows()
        assert restored.delta.epoch == mutable.delta.epoch
        assert restored.delta.insert_epochs == mutable.delta.insert_epochs
        assert restored.delta.deleted_main == mutable.delta.deleted_main
        assert restored.delta.deleted_delta == mutable.delta.deleted_delta

    def test_legacy_index_block_is_ignored(self, tmp_path):
        # Older writers stored hash-index metadata in an `index` object;
        # such a sidecar loads to the same rows, and saves drop it.
        import json

        payload = {
            "table": "R",
            "epoch": 3,
            "columns": {"K": [5, 6, 7], "S": ["d", "e", "d"]},
            "insert_epochs": [1, 1, 2],
            "deleted_main": [[0, 3]],
            "deleted_delta": [],
            "index": {"threshold": 256, "columns": ["S"]},
        }
        path = tmp_path / "r.delta"
        blob = json.dumps(payload).encode()
        path.write_bytes(
            b"CODD" + struct.pack("<H", 3)
            + struct.pack("<I", len(blob)) + blob
        )
        loaded = load_delta(path, small_table().schema)
        assert loaded.live_rows() == [(5, "d"), (6, "e"), (7, "d")]
        assert loaded.deleted_main == {0: 3}
        mutable = frozen()
        mutable.restore_delta(loaded)
        assert rows_where(mutable, Comparison("S", "=", "d")) == [
            (5, "d"), (7, "d"),
        ]
        save_delta(loaded, path)
        assert b'"index"' not in path.read_bytes()

    def test_v1_sidecar_still_loads(self, tmp_path):
        import json

        payload = {
            "table": "R",
            "columns": {"K": [5, 6], "S": ["d", "e"]},
            "deleted_main": [1],
            "deleted_delta": [0],
        }
        path = tmp_path / "r.delta"
        blob = json.dumps(payload).encode()
        path.write_bytes(
            b"CODD" + struct.pack("<H", 1)
            + struct.pack("<I", len(blob)) + blob
        )
        loaded = load_delta(path, small_table().schema)
        assert loaded.live_rows() == [(6, "e")]
        assert loaded.deleted_main == {1: 2}
        assert loaded.epoch == 2

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "r.delta"
        path.write_bytes(b"CODD" + struct.pack("<H", 99) + b"\x00" * 4)
        with pytest.raises(SerializationError):
            load_delta(path, small_table().schema)

    def test_out_of_range_delta_index_rejected(self, tmp_path):
        schema = small_table().schema
        store = DeltaStore(schema)
        store.append_rows([(5, "d")])
        store.apply_update([], [0], [])
        path = tmp_path / "r.delta"
        save_delta(store, path)
        blob = path.read_bytes().replace(b'[[0, ', b'[[7, ')
        path.write_bytes(blob)
        with pytest.raises(SerializationError):
            load_delta(path, schema)

    def test_sidecar_removed_after_incremental_cycle(self, tmp_path):
        # Every saved table keeps a sidecar: after a finished
        # incremental cycle the saved one holds no buffered state.
        engine, mutable = engine_handle()
        mutable.insert((5, "d"))
        save_engine(engine, tmp_path)
        sidecar = delta_sidecar_path(tmp_path / "R.cods")
        assert load_delta(sidecar, mutable.schema).n_appended == 1
        while not mutable.compact_step().done:
            pass
        save_engine(engine, tmp_path)
        assert load_delta(sidecar, mutable.schema).is_empty
        restored = load_engine(tmp_path).mutable("R")
        assert not restored.has_pending_changes
        assert restored.to_rows() == mutable.to_rows()


def write_sidecar(path, payload, version=3):
    import json

    blob = json.dumps(payload).encode()
    path.write_bytes(
        b"CODD" + struct.pack("<H", version)
        + struct.pack("<I", len(blob)) + blob
    )


def sidecar_payload(**changes):
    payload = {
        "table": "R",
        "epoch": 2,
        "columns": {"K": [5, 6], "S": ["d", "e"]},
        "insert_epochs": [1, 2],
        "deleted_main": [],
        "deleted_delta": [],
    }
    payload.update(changes)
    return payload


class TestMalformedSidecars:
    """Each payload once leaked a raw Python exception from
    ``load_delta``; every one is a ``SerializationError`` naming the
    file."""

    def assert_rejected(self, tmp_path, payload):
        path = tmp_path / "R.cods.delta"
        write_sidecar(path, payload)
        with pytest.raises(SerializationError) as raised:
            load_delta(path, small_table().schema)
        assert str(path) in str(raised.value)
        return path

    def test_missing_insert_epochs(self, tmp_path):
        payload = sidecar_payload()
        del payload["insert_epochs"]
        self.assert_rejected(tmp_path, payload)

    def test_non_integer_epoch(self, tmp_path):
        self.assert_rejected(tmp_path, sidecar_payload(epoch="x"))

    def test_index_that_is_not_an_object(self, tmp_path):
        self.assert_rejected(tmp_path, sidecar_payload(index=[1]))

    def test_one_element_deletion_pair(self, tmp_path):
        self.assert_rejected(tmp_path, sidecar_payload(deleted_main=[[0]]))

    def test_list_payload(self, tmp_path):
        path = self.assert_rejected(tmp_path, [sidecar_payload()])
        # The schema-free peek behind the catalog-open, checkpoint and
        # recovery paths rejects it too.
        from repro.storage.filefmt import _read_delta_payload

        with pytest.raises(SerializationError, match="not a JSON object"):
            _read_delta_payload(path)
        from repro.storage import save_table

        save_table(small_table(), tmp_path / "R.cods")
        (tmp_path / "catalog.json").write_text(
            '{"tables": ["R"], "version": 1}'
        )
        with pytest.raises(SerializationError):
            load_engine(tmp_path)

    def test_decreasing_insert_epochs(self, tmp_path):
        self.assert_rejected(
            tmp_path, sidecar_payload(insert_epochs=[2, 1])
        )


class TestInsertEpochOrder:
    """``insert_epochs`` never decreases, so the rows appended by an
    epoch are a prefix of the buffer — what visibility reads."""

    @staticmethod
    def assert_ordered(store):
        epochs = store.insert_epochs
        assert all(a <= b for a, b in zip(epochs, epochs[1:])), epochs

    def test_every_writer_keeps_the_order(self):
        schema = small_table().schema
        store = DeltaStore(schema)
        store.append_rows([(5, "d")])
        self.assert_ordered(store)
        store.append_rows([(6, "e"), (7, "f")])
        self.assert_ordered(store)
        store.apply_update([0], [1], [(1, "z"), (6, "y")])
        self.assert_ordered(store)
        store.replay_insert([(8, "g")], store.epoch + 1)
        self.assert_ordered(store)
        store.replay_update([2], [0], [(2, "q")], store.epoch + 1)
        self.assert_ordered(store)
        restored = DeltaStore.restore(
            schema, store.columns, store.insert_epochs,
            store.deleted_main, store.deleted_delta, store.epoch,
        )
        self.assert_ordered(restored)
        assert restored.live_rows() == store.live_rows()

    def test_compaction_carry_over_keeps_the_order(self):
        mutable = frozen()
        mutable.insert_rows([(5, "d"), (6, "e")])
        assert not mutable.compact_step(columns=1).done
        mutable.insert((7, "f"))   # lands after the cutoff
        mutable.insert((8, "g"))
        assert mutable.compact_step(columns=1).done
        self.assert_ordered(mutable.delta)
        assert mutable.delta.live_rows() == [(7, "f"), (8, "g")]

    def test_restore_rejects_decreasing_epochs(self):
        with pytest.raises(SerializationError):
            DeltaStore.restore(
                small_table().schema,
                {"K": [5, 6], "S": ["d", "e"]},
                [2, 1], {}, {}, 2,
            )

    def test_visibility_is_the_prefix_less_deletions(self):
        store = DeltaStore(small_table().schema)
        store.append_rows([(5, "d"), (6, "e")])   # epoch 1
        store.apply_update([], [0], [])           # epoch 2
        store.append_rows([(7, "f")])             # epoch 3
        assert store.live_indices(0) == []
        assert store.live_indices(1) == [0, 1]
        assert store.live_indices(2) == [1]
        assert store.live_indices() == [1, 2]
        assert store.live_counts(4, 2) == (4, 1)
        assert store.delta_validity(3, 3).tolist() == [1, 2]
        assert store.delta_validity(2, 1) is None


class TestDeltaStatsSurface:
    def test_stats_carry_mvcc_fields(self):
        mutable = frozen()
        mutable.insert((5, "d"))
        with mutable.snapshot():
            stats = mutable.delta_stats()
            assert stats.epoch == mutable.epoch > 0
            assert stats.open_snapshots == 1
            assert stats.as_dict()["open_snapshots"] == 1

    def test_epoch_is_monotonic_across_compactions(self):
        mutable = frozen()
        mutable.insert((5, "d"))
        epoch = mutable.epoch
        mutable.compact()
        assert mutable.epoch == epoch  # counter survives the fold
        mutable.insert((6, "e"))
        assert mutable.epoch == epoch + 1

    def test_snapshot_repr(self):
        mutable = frozen()
        snapshot = mutable.snapshot()
        assert "epoch" in repr(snapshot)
        snapshot.close()
        assert repr(snapshot) == "Snapshot(closed)"
        assert isinstance(snapshot, Snapshot)


class TestDecodedRows:
    """The decoded-rows build runs its ``zip`` with the cyclic
    collector paused and hands the caller's collector state back."""

    @pytest.fixture
    def collector(self):
        import gc

        enabled = gc.isenabled()
        yield gc
        (gc.enable if enabled else gc.disable)()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_the_collector_state_is_put_back(self, collector, enabled):
        from repro.delta.snapshot import decoded_main_rows

        (collector.enable if enabled else collector.disable)()
        assert decoded_main_rows(small_table()) == small_table().to_rows()
        assert collector.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_a_failed_build_puts_it_back_too(
        self, collector, enabled, monkeypatch
    ):
        import repro.delta.snapshot as snapshot

        seen = []

        def failing_zip(*columns):
            seen.append(collector.isenabled())
            raise MemoryError("no room for the rows")

        monkeypatch.setattr(snapshot, "zip", failing_zip, raising=False)
        (collector.enable if enabled else collector.disable)()
        with pytest.raises(MemoryError):
            snapshot.decoded_main_rows(small_table())
        assert seen == [False]
        assert collector.isenabled() is enabled
