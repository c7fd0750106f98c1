"""Whole-catalog transactions through the `repro.db` façade.

The acceptance bar for the API layer: a ``db.transaction()`` read scope
must return *identical multi-table results* before and after concurrent
DML and incremental compaction, and read-write scopes must buffer until
commit and vanish on rollback.
"""

import pytest

from repro.db import Database
from repro.delta import CompactionPolicy
from repro.errors import (
    CodsError,
    StorageError,
    TransactionConflict,
    TransactionError,
)
from repro.exec import iter_rows
from repro.workload.readwrite import MixedReadWriteWorkload


def seeded_db() -> Database:
    db = Database(policy=CompactionPolicy.never())
    db.execute_script(
        """
        CREATE TABLE emp (name STRING, skill STRING);
        INSERT INTO emp VALUES ('Jones', 'Typing'), ('Ellis', 'Alchemy');
        CREATE TABLE addr (name STRING, street STRING);
        INSERT INTO addr VALUES ('Jones', 'Grant Ave'),
            ('Ellis', 'Industrial Way');
        CREATE TABLE audit (name STRING, note STRING);
        INSERT INTO audit VALUES ('Jones', 'hired')
        """
    )
    return db


QUERIES = (
    "SELECT * FROM emp",
    "SELECT * FROM addr",
    "SELECT * FROM audit",
    "SELECT name, street FROM emp JOIN addr ON (name)",
)


class TestCrossTableSnapshot:
    def test_read_scope_frozen_under_dml_and_compaction(self):
        """The acceptance criterion: every table (and a cross-table
        join) answers identically before and after concurrent inserts,
        updates, deletes and compact_step() on multiple tables."""
        db = seeded_db()
        with db.transaction(read_only=True) as tx:
            before = [tx.execute(q) for q in QUERIES]

            # Concurrent traffic on every table, outside the scope.
            db.execute("INSERT INTO emp VALUES ('Smith', 'Welding')")
            db.execute("UPDATE emp SET skill = 'Filing' "
                       "WHERE name = 'Ellis'")
            db.execute("DELETE FROM addr WHERE name = 'Jones'")
            db.execute("INSERT INTO audit VALUES ('Smith', 'hired')")
            # Incremental compaction on two tables, driven to completion.
            while not db.compact_step("emp").done:
                pass
            while not db.compact_step("addr").done:
                pass
            db.execute("INSERT INTO emp VALUES ('Nguyen', 'Poetry')")

            after = [tx.execute(q) for q in QUERIES]
            assert before == after

            # The pins are scope-local: a plain read on the database,
            # issued while the scope is still open, sees live state.
            outside = db.execute("SELECT * FROM emp")
            assert ("Smith", "Welding") in outside
            assert ("Nguyen", "Poetry") in outside

        # After the scope the live state remains visible — and differs.
        live = [db.execute(q) for q in QUERIES]
        assert live != before
        assert ("Smith", "Welding") in live[0]
        assert all(name != "Jones" for name, _street in live[1])

    def test_epoch_vector_names_every_table(self):
        db = seeded_db()
        with db.transaction(read_only=True) as tx:
            vector = tx.epoch_vector
        assert set(vector) == {"emp", "addr", "audit"}
        assert all(
            isinstance(generation, int) and isinstance(epoch, int)
            for generation, epoch in vector.values()
        )

    def test_scopes_nest(self):
        db = seeded_db()
        with db.transaction(read_only=True) as outer:
            base = outer.execute("SELECT * FROM emp")
            db.execute("INSERT INTO emp VALUES ('Smith', 'Welding')")
            with db.transaction(read_only=True) as inner:
                newer = inner.execute("SELECT * FROM emp")
                assert ("Smith", "Welding") in newer
            # Ending the inner scope re-exposes the outer pin.
            assert outer.execute("SELECT * FROM emp") == base


class TestReadWriteScopes:
    def test_writes_buffer_until_commit(self):
        db = seeded_db()
        with db.transaction() as tx:
            frozen = tx.execute("SELECT * FROM emp")
            # DML applies to the scope's overlay immediately (returning
            # its affected count) while the statement text buffers for
            # commit replay.
            assert tx.execute(
                "INSERT INTO emp VALUES (?, ?)", ("Smith", "Welding")
            ) == 1
            assert tx.execute(
                "UPDATE emp SET skill = 'Sonnets' WHERE name = 'Smith'"
            ) == 1
            assert tx.pending_writes == 2
            # Read-your-writes: the scope sees its own buffered DML on
            # top of the pinned view ...
            assert tx.execute("SELECT * FROM emp") == (
                frozen + [("Smith", "Sonnets")]
            )
            # ... while other sessions keep reading live state, where
            # nothing has landed yet.
            assert db.execute("SELECT * FROM emp") == frozen
        assert tx.state == "committed"
        assert ("Smith", "Sonnets") in db.execute("SELECT * FROM emp")

    def test_exception_rolls_back(self):
        db = seeded_db()
        with pytest.raises(RuntimeError):
            with db.transaction() as tx:
                tx.execute("DELETE FROM emp")
                raise RuntimeError("abort")
        assert tx.state == "rolled-back"
        assert len(db.execute("SELECT * FROM emp")) == 2

    def test_explicit_commit_returns_affected_rows(self):
        db = seeded_db()
        tx = db.transaction().begin()
        tx.execute("INSERT INTO emp VALUES ('A', 'x')")
        tx.execute("DELETE FROM emp WHERE name = 'A'")
        assert tx.commit() == 2
        with pytest.raises(TransactionError, match="committed"):
            tx.execute("SELECT * FROM emp")

    def test_conflicting_commit_names_the_table(self):
        db = seeded_db()
        tx = db.transaction().begin()
        tx.execute("INSERT INTO emp VALUES ('A', 'x')")
        tx.execute("DELETE FROM audit WHERE name = ?", ("Jones",))
        db.execute("DROP TABLE audit")  # a race: the target vanishes
        with pytest.raises(TransactionConflict, match="'audit'.*dropped"):
            tx.commit()
        # Nothing applied, and the scope is over: it cannot be reused.
        assert tx.state == "rolled-back"
        assert tx.pending_writes == 0
        with pytest.raises(TransactionError, match="rolled-back"):
            tx.execute("SELECT * FROM emp")
        assert ("A", "x") not in db.execute("SELECT * FROM emp")

    def test_buffered_writes_fail_fast_on_unknown_tables(self):
        db = seeded_db()
        with db.transaction() as tx:
            with pytest.raises(Exception, match="vanished"):
                tx.execute("INSERT INTO vanished VALUES ('A', 'x')")
            assert tx.pending_writes == 0

    def test_read_only_rejects_writes(self):
        db = seeded_db()
        with db.transaction(read_only=True) as tx:
            with pytest.raises(TransactionError, match="read-only"):
                tx.execute("DELETE FROM emp")

    def test_schema_changes_rejected_inside_any_scope(self):
        db = seeded_db()
        with db.transaction() as tx:
            with pytest.raises(TransactionError, match="not transactional"):
                tx.execute("ADD COLUMN age INT TO emp")
            with pytest.raises(TransactionError, match="not transactional"):
                tx.execute("DROP TABLE emp")


class TestTransactionsUnderWorkload:
    def test_pinned_scope_survives_the_mixed_stream(self):
        """A long-lived read scope stays frozen while the whole mixed
        DML stream lands through the façade."""
        workload = MixedReadWriteWorkload(500, 60, n_employees=20)
        db = Database(policy=CompactionPolicy(max_delta_rows=64))
        db.load_table(workload.build())
        session = db.session()
        with db.transaction(read_only=True) as tx:
            frozen = tx.execute("SELECT * FROM R")
            counters = workload.apply_to_session(session)
            assert counters["rows_affected"] > 0
            assert tx.execute("SELECT * FROM R") == frozen
        assert len(db.execute("SELECT * FROM R")) != len(frozen)


class TestDroppedTableScopes:
    """A pinned scope must be invalidated when its table is dropped —
    by SQL DROP TABLE *or* by an SMO that consumes the table — so a
    name reused after the drop serves the replacement table, never
    dropped rows, to the stale scope (the PR-3 ROADMAP hazard).  The
    scope's first read of the reused name pins it on touch, so repeat
    reads stay consistent from there on."""

    def test_smo_drop_invalidates_the_pinned_scope(self):
        db = seeded_db()
        tx = db.transaction(read_only=True).begin()
        assert len(tx.execute("SELECT * FROM audit")) == 1
        # An SMO consumes the pinned table outside the scope ...
        db.execute("DECOMPOSE TABLE audit INTO audit (name), "
                   "note_log (name, note)")
        # ... and reuses the name.  The stale scope must see the new
        # table (one column now), not the dropped two-column rows; the
        # read pins the replacement on touch.
        rows = tx.execute("SELECT * FROM audit")
        assert rows == [("Jones",)]
        db.execute("INSERT INTO audit VALUES ('Reused')")
        # Pinned on first touch: the later outside insert stays
        # invisible to this scope.
        assert tx.execute("SELECT * FROM audit") == [("Jones",)]
        tx.rollback()
        assert ("Reused",) in db.execute("SELECT * FROM audit")

    def test_sql_drop_invalidates_other_scopes_too(self):
        db = seeded_db()
        tx = db.transaction(read_only=True).begin()
        db.execute("DROP TABLE audit")
        db.execute("CREATE TABLE audit (n INT)")
        db.execute("INSERT INTO audit VALUES (7)")
        # The scope's pin died with the dropped table: reads of the
        # reused name go to the replacement table (pinned on touch).
        assert tx.execute("SELECT * FROM audit") == [(7,)]
        tx.rollback()

    def test_drop_forgets_the_written_tables_overlay(self):
        """A table the scope wrote loses its overlay with the drop: the
        reused name reads the replacement table, not the dropped rows
        plus the scope's writes."""
        db = seeded_db()
        tx = db.transaction().begin()
        tx.execute("INSERT INTO audit VALUES ('Smith', 'hired')")
        db.execute("DROP TABLE audit")
        db.execute("CREATE TABLE audit (n INT)")
        db.execute("INSERT INTO audit VALUES (7)")
        assert tx.execute("SELECT * FROM audit") == [(7,)]
        tx.rollback()

    def test_unconsumed_tables_stay_pinned(self):
        """Dropping one table must not disturb the other pins."""
        db = seeded_db()
        with db.transaction(read_only=True) as tx:
            before = tx.execute("SELECT * FROM emp")
            db.execute("DROP TABLE audit")
            db.execute("INSERT INTO emp VALUES ('Smith', 'Welding')")
            assert tx.execute("SELECT * FROM emp") == before

    def test_merge_consuming_pinned_inputs_clears_both(self):
        db = seeded_db()
        with db.transaction(read_only=True) as tx:
            tx.execute("SELECT * FROM emp")
            db.execute("MERGE TABLES emp, addr INTO emp ON (name)")
            rows = tx.execute("SELECT * FROM emp")
            # Live post-merge shape: name, skill, street.
            assert all(len(row) == 3 for row in rows)

    def test_snapshot_scope_on_adapter_follows_smo_drop(self):
        """The same without transaction machinery: a table snapshot
        pinned before the SMO keeps reading the consumed table, and
        never shadows the reused name on the shared adapter."""
        db = seeded_db()
        adapter = db.adapter
        with db.engine.mutable("audit").snapshot() as snapshot:
            db.execute("DECOMPOSE TABLE audit INTO audit (name), "
                       "note_log (name, note)")
            rows = list(iter_rows(adapter.scan_batches("audit")))
            assert rows == [("Jones",)]
            assert snapshot.to_rows() == [("Jones", "hired")]


class TestPinOnFirstTouch:
    """A table created by another session after ``begin()`` is missing
    from the epoch vector; the scope pins it on first touch so repeat
    reads stay stable (regression for the pin-on-create hole, where
    such a table silently served live state forever)."""

    def test_mid_scope_created_table_pins_on_first_touch(self):
        db = seeded_db()
        with db.transaction(read_only=True) as tx:
            assert "late" not in tx.epoch_vector
            db.execute("CREATE TABLE late (n INT)")
            db.execute("INSERT INTO late VALUES (1)")
            first = tx.execute("SELECT * FROM late")
            assert first == [(1,)]
            assert "late" in tx.epoch_vector
            # The touch pinned it: later outside traffic is invisible.
            db.execute("INSERT INTO late VALUES (2)")
            db.execute("DELETE FROM late WHERE n = 1")
            assert tx.execute("SELECT * FROM late") == first
        assert db.execute("SELECT * FROM late") == [(2,)]

    def test_writes_pin_the_created_table_too(self):
        db = seeded_db()
        with db.transaction() as tx:
            db.execute("CREATE TABLE late (n INT)")
            assert tx.execute("INSERT INTO late VALUES (7)") == 1
            db.execute("INSERT INTO late VALUES (8)")  # outside, post-pin
            assert tx.execute("SELECT * FROM late") == [(7,)]
        # Commit replays against live state: both rows land.
        assert sorted(db.execute("SELECT * FROM late")) == [(7,), (8,)]


class TestReadYourWrites:
    def test_scope_sees_its_own_updates_and_deletes_only(self):
        db = seeded_db()
        with db.transaction() as tx:
            assert tx.execute("DELETE FROM emp WHERE name = 'Jones'") == 1
            assert tx.execute(
                "UPDATE emp SET skill = 'Brewing' WHERE name = 'Ellis'"
            ) == 1
            assert tx.execute("SELECT * FROM emp") == [("Ellis", "Brewing")]
            # Other sessions keep reading live, untouched state.
            assert sorted(db.execute("SELECT * FROM emp")) == [
                ("Ellis", "Alchemy"), ("Jones", "Typing"),
            ]
        assert db.execute("SELECT * FROM emp") == [("Ellis", "Brewing")]

    def test_first_touch_copies_the_pinned_view_not_live_state(self):
        """The overlay starts from the pinned snapshot's batches: main
        rows deleted before the pin stay out, delta rows live at the pin
        come in, and DML (and a compaction) landing between the pin and
        the first write never leaks in.  An in-scope UPDATE moves the
        row to the end of the scan, where commit's replay puts it."""
        db = seeded_db()
        db.execute("INSERT INTO emp VALUES ('Smith', 'Welding')")
        db.compact("emp")  # three rows in the compressed main
        db.execute("DELETE FROM emp WHERE name = 'Ellis'")  # dead main row
        db.execute("INSERT INTO emp VALUES ('Brown', 'Brewing'), "
                   "('Gray', 'Glazing')")
        db.execute("DELETE FROM emp WHERE name = 'Gray'")  # dead delta row
        pinned = [
            ("Jones", "Typing"), ("Smith", "Welding"), ("Brown", "Brewing"),
        ]
        with db.transaction() as tx:
            assert tx.execute("SELECT * FROM emp") == pinned
            # Later DML on both sides of the split, outside the scope.
            db.execute("DELETE FROM emp WHERE name = 'Jones'")
            db.execute("UPDATE emp SET skill = 'Filing' "
                       "WHERE name = 'Brown'")
            db.execute("INSERT INTO emp VALUES ('Late', 'Arrival')")
            db.compact("emp")
            # First write: the overlay starts now.
            assert tx.execute(
                "UPDATE emp SET skill = 'Forging' WHERE name = 'Smith'"
            ) == 1
            assert tx.execute("SELECT * FROM emp") == [
                ("Jones", "Typing"), ("Brown", "Brewing"),
                ("Smith", "Forging"),
            ]
            assert tx.execute(
                "SELECT name FROM emp WHERE skill = 'Brewing'"
            ) == [("Brown",)]
        # Commit replays the UPDATE against live state.
        assert sorted(db.execute("SELECT * FROM emp")) == [
            ("Brown", "Filing"), ("Late", "Arrival"), ("Smith", "Forging"),
        ]

    def test_written_table_survives_a_column_rename_outside(self):
        """The overlay holds the pinned delta's batches across
        statements; a metadata-only column rename by another session
        re-keys the live buffer but not the scope's view."""
        db = seeded_db()  # emp's rows are all in the delta
        with db.transaction() as tx:
            tx.execute("INSERT INTO emp VALUES ('Smith', 'Welding')")
            db.execute("RENAME COLUMN skill TO trade IN emp")
            assert tx.execute(
                "UPDATE emp SET skill = 'Filing' WHERE skill = 'Typing'"
            ) == 1
            assert tx.execute("SELECT * FROM emp WHERE name != 'x'") == [
                ("Ellis", "Alchemy"), ("Smith", "Welding"),
                ("Jones", "Filing"),
            ]
            tx.rollback()

    def test_insert_select_reads_the_scopes_own_writes(self):
        db = seeded_db()
        with db.transaction() as tx:
            tx.execute("INSERT INTO emp VALUES ('Smith', 'Welding')")
            copied = tx.execute("INSERT INTO audit SELECT * FROM emp")
            assert copied == 3  # the two pinned rows plus the overlay's
            assert len(tx.execute("SELECT * FROM audit")) == 4
        assert len(db.execute("SELECT * FROM audit")) == 4

    def test_rollback_discards_the_overlay(self):
        db = seeded_db()
        tx = db.transaction().begin()
        tx.execute("DELETE FROM emp")
        assert tx.execute("SELECT * FROM emp") == []
        tx.rollback()
        assert len(db.execute("SELECT * FROM emp")) == 2


class TestPinnedSchema:
    """A scope reads the schema of its pins, not of the live catalog: an
    ADD COLUMN or DROP COLUMN by another session changes neither the
    shape of the scope's rows nor the columns it can name, so one result
    never mixes rows of two widths.  Commit replays against the live
    shape, as it always has."""

    def database(self) -> Database:
        db = Database(policy=CompactionPolicy.never())
        db.execute("CREATE TABLE r (k INT, s STRING)")
        db.execute("INSERT INTO r VALUES (1, 'a'), (2, 'b')")
        return db

    def test_read_only_scope_keeps_the_pinned_columns(self):
        db = self.database()
        with db.transaction(read_only=True) as tx:
            db.execute("ADD COLUMN z INT TO r DEFAULT 0")
            node, rows = tx.run("SELECT * FROM r")
            assert rows == [(1, "a"), (2, "b")]
            assert tx.result_columns(node) == ("k", "s")
            with pytest.raises(CodsError, match="'z'"):
                tx.execute("SELECT z FROM r")
        assert db.execute("SELECT * FROM r") == [(1, "a", 0), (2, "b", 0)]

    def test_read_only_scope_reads_a_column_dropped_outside(self):
        db = self.database()
        with db.transaction(read_only=True) as tx:
            db.execute("DROP COLUMN s FROM r")
            assert tx.execute("SELECT s FROM r") == [("a",), ("b",)]
        assert db.execute("SELECT * FROM r") == [(1,), (2,)]

    def test_read_write_scope_writes_the_pinned_shape(self):
        db = self.database()
        tx = db.transaction().begin()
        db.execute("ADD COLUMN z INT TO r DEFAULT 0")
        with pytest.raises(StorageError, match="arity 3 != 2"):
            tx.execute("INSERT INTO r VALUES (3, 'c', 9)")
        assert tx.pending_writes == 0
        assert tx.execute("INSERT INTO r VALUES (3, 'c')") == 1
        rows = tx.execute("SELECT * FROM r")
        assert rows == [(1, "a"), (2, "b"), (3, "c")]
        assert all(len(row) == 2 for row in rows)
        # The ADD COLUMN consumed the table the scope wrote: its
        # two-column rows cannot commit into the three-column table.
        with pytest.raises(TransactionConflict, match="'r'.*schema change"):
            tx.commit()
        assert tx.state == "rolled-back"
        assert db.execute("SELECT * FROM r") == [(1, "a", 0), (2, "b", 0)]


class TestCommitPublishesEffects:
    """Commit publishes what the scope's statements did to its pinned
    view — it never runs a statement again — all or nothing, first
    committer wins."""

    def test_a_conflicting_commit_applies_nothing(self):
        db = Database(policy=CompactionPolicy.never())
        db.execute("CREATE TABLE a (k INT)")
        db.execute("CREATE TABLE b (k INT)")
        tx = db.transaction().begin()
        tx.execute("INSERT INTO a VALUES (1)")
        tx.execute("INSERT INTO b VALUES (2)")
        db.execute("DROP TABLE b")
        with pytest.raises(TransactionConflict, match="'b'"):
            tx.commit()
        assert tx.state == "rolled-back"
        assert db.execute("SELECT * FROM a") == []

    def test_a_delete_leaves_rows_inserted_after_the_pin(self):
        """Snapshot isolation's phantom rule: the DELETE removes the
        rows it matched in the scope's view, not rows another session
        inserted since."""
        db = Database(policy=CompactionPolicy.never())
        db.execute("CREATE TABLE t (k INT, v INT)")
        db.execute("INSERT INTO t VALUES (1, 1), (2, 3)")
        with db.transaction() as tx:
            assert tx.execute(
                "SELECT COUNT(*) FROM t WHERE v > 5"
            ) == [(0,)]
            db.execute("INSERT INTO t VALUES (3, 10)")
            assert tx.execute("DELETE FROM t WHERE v > 5") == 0
        assert sorted(db.execute("SELECT * FROM t")) == [
            (1, 1), (2, 3), (3, 10),
        ]

    def test_the_second_of_two_increments_conflicts(self):
        db = Database(policy=CompactionPolicy.never())
        db.execute("CREATE TABLE c (n INT)")
        db.execute("INSERT INTO c VALUES (0)")
        first = db.transaction().begin()
        second = db.transaction().begin()
        for tx in (first, second):
            ((n,),) = tx.execute("SELECT n FROM c")
            assert n == 0
            assert tx.execute("UPDATE c SET n = ?", (n + 1,)) == 1
        assert first.commit() == 1
        with pytest.raises(TransactionConflict, match="'c'.*deleted"):
            second.commit()
        assert db.execute("SELECT n FROM c") == [(1,)]

    def test_victims_are_carried_through_folds_since_the_pin(self):
        db = Database(policy=CompactionPolicy.never())
        db.execute("CREATE TABLE t (k INT, v INT)")
        db.execute("INSERT INTO t VALUES (1, 0), (2, 0)")
        db.compact("t")
        db.execute("INSERT INTO t VALUES (3, 0), (4, 0)")
        with db.transaction() as tx:
            # One main victim and one buffered victim of the pin.
            assert tx.execute("UPDATE t SET v = 9 WHERE k = 2 OR k = 4") == 2
            db.execute("DELETE FROM t WHERE k = 1")
            db.compact("t")
            db.execute("INSERT INTO t VALUES (5, 0)")
            db.compact("t")
        assert sorted(db.execute("SELECT * FROM t")) == [
            (2, 9), (3, 0), (4, 9), (5, 0),
        ]

    def test_a_victim_folded_away_since_the_pin_conflicts(self):
        db = Database(policy=CompactionPolicy.never())
        db.execute("CREATE TABLE t (k INT, v INT)")
        db.execute("INSERT INTO t VALUES (1, 0), (2, 0)")
        tx = db.transaction().begin()
        assert tx.execute("DELETE FROM t WHERE k = 2") == 1
        db.execute("DELETE FROM t WHERE k = 2")
        db.compact("t")  # the fold drops the row the scope deleted
        with pytest.raises(TransactionConflict, match="'t'"):
            tx.commit()
        assert db.execute("SELECT * FROM t") == [(1, 0)]

    def test_a_metadata_rename_is_not_a_conflict(self):
        db = seeded_db()
        with db.transaction() as tx:
            tx.execute("DELETE FROM emp WHERE name = 'Jones'")
            db.execute("RENAME TABLE emp TO staff")
            db.execute("RENAME COLUMN skill TO trade IN staff")
        assert db.execute("SELECT * FROM staff") == [("Ellis", "Alchemy")]
