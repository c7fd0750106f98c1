"""Unit tests for the `repro.db` façade: statement parsing and routing,
sessions/cursors, parameter binding, scripts and persistence; plus the
planner flags each engine adapter declares."""

import datetime
import json
import struct

import pytest

from repro.db import (
    Database,
    bind_parameters,
    connect,
    iter_script_statements,
)
from repro.errors import (
    CapabilityError,
    SqlExecutionError,
    SqlSyntaxError,
    StorageError,
)
from repro.smo.ops import SchemaModificationOperator
from repro.sql import (
    ColumnStoreAdapter,
    MutableColumnAdapter,
    RowEngineAdapter,
    SqlExecutor,
)
from repro.sql.parser import parse_statement
from repro.storage import DataType, table_from_python


def small_table(name="R"):
    return table_from_python(
        name,
        {
            "K": (DataType.INT, [1, 2, 3, 4]),
            "S": (DataType.STRING, ["a", "b", "a", "c"]),
        },
    )


def seeded_db(**kwargs) -> Database:
    db = Database(**kwargs)
    db.execute("CREATE TABLE r (k INT, s STRING)")
    db.executemany(
        "INSERT INTO r VALUES (?, ?)", [(1, "a"), (2, "b"), (3, "a")]
    )
    return db


class TestRouter:
    @pytest.mark.parametrize("text,expected", [
        ("SELECT * FROM r", "sql"),
        ("insert into r values (1)", "sql"),
        ("UPDATE r SET a = 1", "sql"),
        ("DELETE FROM r", "sql"),
        ("CREATE TABLE r (a INT)", "sql"),
        ("CREATE INDEX i ON r (a)", "sql"),
        ("DROP TABLE r", "sql"),
        ("ALTER TABLE r RENAME TO s", "sql"),
        ("  decompose TABLE r INTO s (a), t (a, b)", "smo"),
        ("MERGE TABLES s, t INTO r", "smo"),
        ("COPY TABLE r TO s", "smo"),
        ("UNION TABLES r, s INTO t", "smo"),
        ("PARTITION TABLE r INTO s, t WHERE a = 1", "smo"),
        ("ADD COLUMN c INT TO r", "smo"),
        ("DROP COLUMN c FROM r", "smo"),
        ("RENAME TABLE r TO s", "smo"),
        ("RENAME COLUMN a TO b IN r", "smo"),
    ])
    def test_classification(self, text, expected):
        """One tokenizer pass, then the leading verb picks the grammar:
        the parsed node's type is the route."""
        parsed = parse_statement(text)
        kind = "smo" if isinstance(parsed, SchemaModificationOperator) else "sql"
        assert kind == expected

    def test_script_split_drops_comments(self):
        statements = iter_script_statements(
            "-- preamble\nSELECT a FROM r;\n\n-- note\n"
            "INSERT INTO r VALUES (1);;\nDROP TABLE r"
        )
        assert statements == [
            "SELECT a FROM r",
            "INSERT INTO r VALUES (1)",
            "DROP TABLE r",
        ]

    def test_semicolon_inside_a_comment_is_not_a_statement(self):
        statements = iter_script_statements(
            "SELECT a FROM r; -- drop; stuff\nSELECT b FROM r"
        )
        assert statements == ["SELECT a FROM r", "SELECT b FROM r"]

    def test_comment_marker_inside_a_string_is_data(self):
        statements = iter_script_statements(
            "INSERT INTO r VALUES ('a--b'); SELECT a FROM r"
        )
        assert statements == [
            "INSERT INTO r VALUES ('a--b')",
            "SELECT a FROM r",
        ]

    def test_multi_line_string_literal_stays_whole(self):
        # The tokenizer accepts newlines inside '...'; the splitter
        # must not treat structure characters on later lines of the
        # literal as statement boundaries or comments.
        statements = iter_script_statements(
            "INSERT INTO r VALUES (1, 'a\nb;c -- d'); SELECT a FROM r"
        )
        assert statements == [
            "INSERT INTO r VALUES (1, 'a\nb;c -- d')",
            "SELECT a FROM r",
        ]


class TestAdapterCapabilities:
    def test_capabilities_by_backend(self):
        # The CODS engine pushes work onto compressed batches; of the
        # baselines only the row store joins natively.
        assert MutableColumnAdapter.capabilities.pushdown
        assert not MutableColumnAdapter.capabilities.hash_join
        assert RowEngineAdapter.capabilities.hash_join
        assert not RowEngineAdapter.capabilities.pushdown
        assert not ColumnStoreAdapter.capabilities.pushdown
        assert not ColumnStoreAdapter.capabilities.hash_join


class TestParameterBinding:
    def test_literals(self):
        assert bind_parameters(
            "INSERT INTO r VALUES (?, ?, ?, ?, ?)",
            (1, -2.5, "it's", None, True),
        ) == "INSERT INTO r VALUES (1, -2.5, 'it''s', NULL, TRUE)"

    def test_placeholder_inside_string_untouched(self):
        assert bind_parameters(
            "SELECT * FROM r WHERE s = '?' AND k = ?", (7,)
        ) == "SELECT * FROM r WHERE s = '?' AND k = 7"

    def test_arity_mismatches(self):
        with pytest.raises(SqlSyntaxError, match="more placeholders"):
            bind_parameters("SELECT * FROM r WHERE k = ? AND j = ?", (1,))
        with pytest.raises(SqlSyntaxError, match="placeholder"):
            bind_parameters("SELECT * FROM r", (1,))

    def test_unbindable_type(self):
        # A date binds (as its ISO literal); a datetime has no column
        # type to land in.
        for value in ([1, 2], datetime.datetime(2001, 2, 3, 4, 5)):
            with pytest.raises(SqlSyntaxError, match="cannot bind"):
                bind_parameters("SELECT * FROM r WHERE k = ?", (value,))
        assert bind_parameters(
            "SELECT * FROM r WHERE d = ?", (datetime.date(2001, 2, 3),)
        ) == "SELECT * FROM r WHERE d = '2001-02-03'"

    def test_exponent_repr_floats_round_trip(self):
        db = Database()
        db.execute("CREATE TABLE f (x FLOAT)")
        db.executemany(
            "INSERT INTO f VALUES (?)", [(1e20,), (1e-07,), (2.0,)]
        )
        assert db.execute("SELECT * FROM f") == [(1e20,), (1e-07,), (2.0,)]

    def test_non_finite_floats_rejected(self):
        with pytest.raises(SqlSyntaxError, match="non-finite"):
            bind_parameters("SELECT * FROM r WHERE k = ?",
                            (float("inf"),))


class TestExecuteRouting:
    def test_sql_and_smo_through_one_entry_point(self):
        db = seeded_db()
        status = db.execute("DECOMPOSE TABLE r INTO a (k), b (k, s)")
        assert status.summary()["columns_reused"] >= 1
        assert db.tables() == ["a", "b"]
        assert sorted(db.execute("SELECT * FROM b")) == [
            (1, "a"), (2, "b"), (3, "a"),
        ]

    def test_dml_counts_and_ddl_none(self):
        db = seeded_db()
        assert db.execute("UPDATE r SET s = 'z' WHERE k = 1") == 1
        assert db.execute("DELETE FROM r WHERE s = 'z'") == 1
        assert db.execute("DROP TABLE r") is None
        assert db.tables() == []

    @pytest.mark.parametrize(
        "adapter",
        [RowEngineAdapter, ColumnStoreAdapter, MutableColumnAdapter],
        ids=["row", "column", "mutable"],
    )
    def test_sql_works_on_every_backend(self, adapter):
        executor = SqlExecutor(adapter())
        executor.execute("CREATE TABLE r (k INT, s STRING)")
        executor.execute("INSERT INTO r VALUES (1, 'a'), (2, 'b')")
        assert executor.execute("SELECT s FROM r WHERE k = 2") == [("b",)]

    def test_closed_database_rejects_execution(self):
        db = seeded_db()
        db.close()
        assert db.closed
        with pytest.raises(StorageError, match="closed"):
            db.execute("SELECT * FROM r")
        db.close()  # idempotent


class TestExecuteScript:
    def test_mixed_script_results(self):
        db = Database()
        results = db.execute_script(
            """
            -- build and evolve in one script
            CREATE TABLE r (k INT, s STRING);
            INSERT INTO r VALUES (1, 'a'), (2, 'b');
            RENAME TABLE r TO s;
            SELECT * FROM s ORDER BY k
            """
        )
        assert results[0] is None
        assert results[1] == 2
        assert results[3] == [(1, "a"), (2, "b")]
        assert db.tables() == ["s"]

    def test_error_carries_position_and_fragment(self):
        db = seeded_db()
        with pytest.raises(SqlExecutionError) as excinfo:
            db.execute_script(
                "SELECT * FROM r; DELETE FROM nope; SELECT * FROM r"
            )
        assert "statement 2" in str(excinfo.value)
        assert "DELETE FROM nope" in str(excinfo.value)

    def test_syntax_error_carries_position(self):
        db = seeded_db()
        with pytest.raises(SqlSyntaxError, match="statement 2"):
            db.execute_script("SELECT * FROM r; SELEKT chaos")

    def test_syntax_error_executes_nothing(self):
        db = seeded_db()
        with pytest.raises(SqlSyntaxError, match="statement 2"):
            db.execute_script(
                "INSERT INTO r VALUES (9, 'z'); SELEKT chaos"
            )
        # The whole script was rejected before execution began.
        assert db.execute("SELECT * FROM r WHERE k = 9") == []

    def test_string_literal_semicolons_survive_the_split(self):
        db = seeded_db()
        results = db.execute_script(
            "INSERT INTO r VALUES (9, 'a;b'); "
            "SELECT s FROM r WHERE k = 9"
        )
        assert results == [1, [("a;b",)]]


class TestSessionsAndCursors:
    def test_sessions_share_the_catalog(self):
        db = seeded_db()
        one, two = db.session(), db.session()
        one.execute("INSERT INTO r VALUES (9, 'z')")
        assert two.execute("SELECT * FROM r WHERE k = 9") == [(9, "z")]

    def test_cursor_select(self):
        db = seeded_db()
        cursor = db.cursor().execute("SELECT k, s FROM r ORDER BY k")
        assert [d[0] for d in cursor.description] == ["k", "s"]
        assert cursor.fetchone() == (1, "a")
        assert cursor.fetchmany(1) == [(2, "b")]
        assert cursor.fetchall() == [(3, "a")]
        assert cursor.fetchone() is None

    def test_cursor_select_star_description(self):
        db = seeded_db()
        cursor = db.cursor().execute("SELECT * FROM r")
        assert [d[0] for d in cursor.description] == ["k", "s"]
        assert len(list(cursor)) == 3

    def test_cursor_dml_rowcount(self):
        db = seeded_db()
        cursor = db.cursor().execute("UPDATE r SET s = 'q' WHERE s = 'a'")
        assert cursor.rowcount == 2
        assert cursor.description is None
        with pytest.raises(CapabilityError, match="no result set"):
            cursor.fetchall()

    def test_cursor_executemany(self):
        db = seeded_db()
        cursor = db.cursor().executemany(
            "INSERT INTO r VALUES (?, ?)", [(7, "x"), (8, "y")]
        )
        assert cursor.rowcount == 2

    def test_cursor_close(self):
        db = seeded_db()
        cursor = db.cursor()
        cursor.close()
        with pytest.raises(CapabilityError, match="closed"):
            cursor.execute("SELECT * FROM r")


class TestPersistence:
    def test_round_trip_with_delta_sidecar(self, tmp_path):
        from repro.delta import CompactionPolicy

        directory = tmp_path / "catalog"
        with Database(directory, policy=CompactionPolicy.never()) as db:
            db.execute("CREATE TABLE r (k INT, s STRING)")
            db.execute("INSERT INTO r VALUES (1, 'a')")
            db.compact("r")
            db.execute("INSERT INTO r VALUES (2, 'b')")  # pending delta
        # close() wrote the catalog: the versioned main and the sidecar
        # naming it, which holds the open delta
        assert (directory / "r.g0.cods").exists()
        assert (directory / "r.cods.delta").exists()
        reopened = Database(directory)
        assert reopened.execute("SELECT * FROM r ORDER BY k") == [
            (1, "a"), (2, "b"),
        ]
        stats = reopened.delta_stats()[0]
        assert stats.delta_live == 1

    def test_exception_skips_the_write_back(self, tmp_path):
        directory = tmp_path / "catalog"
        with Database(directory) as db:
            db.execute("CREATE TABLE r (k INT)")
        with pytest.raises(RuntimeError):
            with Database(directory) as db:
                db.execute("INSERT INTO r VALUES (1)")
                raise RuntimeError("abort")
        assert Database(directory).execute("SELECT * FROM r") == []

    def test_save_needs_a_directory(self):
        with pytest.raises(StorageError, match="no catalog directory"):
            Database().save()

    def test_connect_alias(self, tmp_path):
        db = connect(tmp_path / "catalog")
        db.execute("CREATE TABLE r (k INT)")
        assert db.save().name == "catalog"

    def test_v1_delta_sidecar_loads_through_the_facade(self, tmp_path):
        """A pre-MVCC (version 1) sidecar written next to a saved
        catalog must come back as a merged table when the directory is
        opened as a Database.  Its writers predate versioned mains, so
        it sits next to the canonical ``R.cods``."""
        from repro.storage import save_table

        directory = tmp_path / "catalog"
        directory.mkdir()
        save_table(small_table(), directory / "R.cods")
        (directory / "catalog.json").write_text(
            '{"tables": ["R"], "version": 1}'
        )
        payload = {
            "table": "R",
            "columns": {"K": [5, 6], "S": ["d", "e"]},
            "deleted_main": [1],
            "deleted_delta": [0],
        }
        blob = json.dumps(payload).encode()
        (directory / "R.cods.delta").write_bytes(
            b"CODD" + struct.pack("<H", 1)
            + struct.pack("<I", len(blob)) + blob
        )
        reopened = Database(directory)
        # main minus position 1, plus the one surviving buffered row
        assert reopened.execute("SELECT * FROM R") == [
            (1, "a"), (3, "a"), (4, "c"), (6, "e"),
        ]
        stats = reopened.delta_stats()[0]
        assert stats.deleted_main == 1
        assert stats.delta_live == 1
        # and the restored state keeps evolving normally
        assert reopened.execute("DELETE FROM R WHERE S = 'e'") == 1


class TestRenameUnderPinnedSnapshot:
    def test_smo_rename_keeps_the_pinned_scope(self):
        db = seeded_db()
        with db.transaction(read_only=True) as tx:
            before = tx.execute("SELECT * FROM r")
            db.execute("RENAME TABLE r TO r2")          # SMO route
            db.execute("INSERT INTO r2 VALUES (9, 'z')")
            assert tx.execute("SELECT * FROM r2") == before
        assert (9, "z") in db.execute("SELECT * FROM r2")

    def test_sql_alter_rename_keeps_the_pinned_scope(self):
        db = seeded_db()
        with db.transaction(read_only=True) as tx:
            before = tx.execute("SELECT * FROM r")
            db.execute("ALTER TABLE r RENAME TO r2")    # SQL route
            db.execute("DELETE FROM r2")
            assert tx.execute("SELECT * FROM r2") == before
        assert db.execute("SELECT * FROM r2") == []

    def test_rename_column_under_pin(self):
        db = seeded_db()
        with db.transaction(read_only=True) as tx:
            before = tx.execute("SELECT * FROM r")
            db.execute("RENAME COLUMN s TO label IN r")
            assert tx.execute("SELECT k, label FROM r") == before


class TestDemoSqlCommand:
    def make_session(self):
        import io

        from repro.demo.cli import DemoSession

        out = io.StringIO()
        return DemoSession(out=out), out

    def test_sql_select_and_smo(self):
        session, out = self.make_session()
        session.handle("sql CREATE TABLE w (a INT, b STRING)")
        session.handle("sql INSERT INTO w VALUES (1, 'x'), (2, 'y')")
        session.handle("sql SELECT * FROM w WHERE a = 2")
        session.handle("sql ADD COLUMN c INT TO w DEFAULT 7")
        session.handle("sql SELECT c FROM w")
        text = out.getvalue()
        assert "2 row(s) affected" in text
        assert "(2, 'y')" in text
        assert "counters" in text
        assert "(7,)" in text

    def test_sql_error_reported_not_raised(self):
        session, out = self.make_session()
        assert session.handle("sql SELECT * FROM missing") is True
        assert "error:" in out.getvalue()
