"""Unit tests for the SQL subset: parser and executor on both adapters."""

import pytest

from repro.errors import SqlExecutionError, SqlSyntaxError
from repro.sql import (
    ColumnStoreAdapter,
    RowEngineAdapter,
    SqlExecutor,
    iter_script_statements,
    parse_sql,
)
from repro.sql.ast import (
    CreateIndex,
    CreateTable,
    DropTable,
    InsertSelect,
    InsertValues,
    RenameTable,
    Select,
)
from repro.storage import DataType


class TestParser:
    def test_select_star(self):
        statement = parse_sql("SELECT * FROM r")
        assert isinstance(statement, Select)
        assert statement.columns is None
        assert statement.table == "r"

    def test_select_columns_distinct(self):
        statement = parse_sql("SELECT DISTINCT a, b FROM r")
        assert statement.distinct
        assert statement.columns == ("a", "b")

    def test_select_full_clause_stack(self):
        statement = parse_sql(
            "SELECT a FROM r WHERE a > 3 AND b = 'x' "
            "ORDER BY a DESC LIMIT 10"
        )
        assert statement.where is not None
        assert statement.order_by == ("a", False)
        assert statement.limit == 10

    def test_select_join(self):
        statement = parse_sql(
            "SELECT a, b, c FROM s JOIN t ON (a, b)"
        )
        assert statement.join.table == "t"
        assert statement.join.join_attrs == ("a", "b")

    def test_insert_values(self):
        statement = parse_sql(
            "INSERT INTO r VALUES (1, 'x'), (2, 'y')"
        )
        assert isinstance(statement, InsertValues)
        assert statement.rows == ((1, "x"), (2, "y"))

    def test_insert_values_literals(self):
        statement = parse_sql(
            "INSERT INTO r VALUES (-1.5, TRUE, NULL)"
        )
        assert statement.rows == ((-1.5, True, None),)

    def test_insert_select(self):
        statement = parse_sql(
            "INSERT INTO s SELECT DISTINCT a FROM r"
        )
        assert isinstance(statement, InsertSelect)
        assert statement.select.distinct

    def test_insert_select_star(self):
        statement = parse_sql("INSERT INTO s SELECT * FROM r")
        assert statement.select.columns is None

    def test_create_table(self):
        statement = parse_sql(
            "CREATE TABLE r (a INT, b TEXT, KEY (a))"
        )
        assert isinstance(statement, CreateTable)
        assert statement.schema.primary_key == ("a",)
        assert statement.schema.column("b").dtype == DataType.STRING

    def test_create_index(self):
        statement = parse_sql("CREATE INDEX i ON r (a)")
        assert statement == CreateIndex("i", "r", "a")
        with pytest.raises(SqlSyntaxError):
            parse_sql("CREATE INDEX i ON r (a, b)")

    def test_ddl(self):
        assert parse_sql("DROP TABLE r") == DropTable("r")
        assert parse_sql("ALTER TABLE r RENAME TO r2") == RenameTable(
            "r", "r2"
        )

    def test_syntax_errors(self):
        for bad in (
            "SELECT FROM r",
            "SELECT a r",
            "INSERT r VALUES (1)",
            "LIMIT 5",
            "SELECT a FROM r LIMIT 1.5",
            "SELECT a FROM r GARBAGE",
        ):
            with pytest.raises(SqlSyntaxError):
                parse_sql(bad)

    def test_script(self):
        statements = [
            parse_sql(text)
            for text in iter_script_statements(
                "CREATE TABLE r (a INT); INSERT INTO r VALUES (1); "
                "SELECT * FROM r"
            )
        ]
        assert len(statements) == 3


@pytest.fixture(params=["row", "column"])
def executor(request):
    adapter = RowEngineAdapter() if request.param == "row" else ColumnStoreAdapter()
    ex = SqlExecutor(adapter)
    ex.execute("CREATE TABLE r (a INT, b STRING)")
    ex.execute(
        "INSERT INTO r VALUES (1, 'x'), (2, 'y'), (1, 'x'), (3, 'z')"
    )
    return ex


class TestExecutor:
    def test_select_all(self, executor):
        assert executor.execute("SELECT * FROM r") == [
            (1, "x"), (2, "y"), (1, "x"), (3, "z"),
        ]

    def test_projection(self, executor):
        assert executor.execute("SELECT b FROM r") == [
            ("x",), ("y",), ("x",), ("z",),
        ]

    def test_distinct(self, executor):
        assert executor.execute("SELECT DISTINCT a, b FROM r") == [
            (1, "x"), (2, "y"), (3, "z"),
        ]

    def test_where(self, executor):
        assert executor.execute("SELECT b FROM r WHERE a = 1") == [
            ("x",), ("x",),
        ]
        assert executor.execute(
            "SELECT a FROM r WHERE b = 'z' OR a = 2"
        ) == [(2,), (3,)]

    def test_order_limit(self, executor):
        assert executor.execute(
            "SELECT a FROM r ORDER BY a DESC LIMIT 2"
        ) == [(3,), (2,)]
        assert executor.execute("SELECT a FROM r ORDER BY a LIMIT 2") == [
            (1,), (1,),
        ]

    def test_order_by_requires_selected_column(self, executor):
        with pytest.raises(SqlExecutionError):
            executor.execute("SELECT a FROM r ORDER BY b")

    def test_insert_select(self, executor):
        executor.execute("CREATE TABLE s (a INT)")
        count = executor.execute(
            "INSERT INTO s SELECT DISTINCT a FROM r"
        )
        assert count == 3
        assert sorted(executor.execute("SELECT * FROM s")) == [
            (1,), (2,), (3,),
        ]

    def test_join(self, executor):
        executor.execute("CREATE TABLE dim (a INT, label STRING)")
        executor.execute(
            "INSERT INTO dim VALUES (1, 'one'), (2, 'two'), (3, 'three')"
        )
        rows = sorted(
            executor.execute(
                "SELECT a, b, label FROM r JOIN dim ON (a)"
            )
        )
        assert rows == [
            (1, "x", "one"), (1, "x", "one"),
            (2, "y", "two"), (3, "z", "three"),
        ]

    def test_join_star(self, executor):
        executor.execute("CREATE TABLE dim (a INT, label STRING)")
        executor.execute("INSERT INTO dim VALUES (1, 'one')")
        rows = executor.execute("SELECT * FROM r JOIN dim ON (a)")
        assert rows == [(1, "x", "one"), (1, "x", "one")]

    def test_join_with_where(self, executor):
        executor.execute("CREATE TABLE dim (a INT, label STRING)")
        executor.execute(
            "INSERT INTO dim VALUES (1, 'one'), (3, 'three')"
        )
        rows = executor.execute(
            "SELECT a, label FROM r JOIN dim ON (a) WHERE label = 'three'"
        )
        assert rows == [(3, "three")]

    def test_missing_table(self, executor):
        with pytest.raises(SqlExecutionError):
            executor.execute("SELECT * FROM nope")
        with pytest.raises(SqlExecutionError):
            executor.execute("DROP TABLE nope")

    def test_ddl_roundtrip(self, executor):
        executor.execute("ALTER TABLE r RENAME TO r2")
        assert len(executor.execute("SELECT * FROM r2")) == 4
        executor.execute("DROP TABLE r2")
        with pytest.raises(SqlExecutionError):
            executor.execute("SELECT * FROM r2")

    def test_create_index(self, executor):
        executor.execute("CREATE INDEX idx ON r (a)")  # no raise

    def test_execute_script(self, executor):
        results = executor.execute_script(
            "CREATE TABLE t2 (a INT); INSERT INTO t2 SELECT a FROM r; "
            "SELECT * FROM t2 ORDER BY a"
        )
        assert results[1] == 4
        assert results[2] == [(1,), (1,), (2,), (3,)]

    def test_execute_script_error_carries_position(self, executor):
        with pytest.raises(SqlExecutionError) as excinfo:
            executor.execute_script(
                "CREATE TABLE t3 (a INT); INSERT INTO t3 VALUES (1); "
                "DELETE FROM missing; SELECT * FROM t3"
            )
        message = str(excinfo.value)
        assert "statement 3" in message
        assert "DELETE FROM missing" in message
        # Statements before the failure were applied...
        assert executor.execute("SELECT * FROM t3") == [(1,)]

    def test_execute_script_syntax_error_carries_position(self, executor):
        with pytest.raises(SqlSyntaxError, match="statement 2"):
            executor.execute_script("SELECT * FROM r; FROBNICATE r")

    def test_execute_script_syntax_error_executes_nothing(self, executor):
        before = executor.execute("SELECT * FROM r")
        with pytest.raises(SqlSyntaxError):
            executor.execute_script(
                "DELETE FROM r; FROBNICATE r"
            )
        # The script was rejected wholesale; the DELETE never ran.
        assert executor.execute("SELECT * FROM r") == before


class TestColumnAdapterAccounting:
    def test_materialization_counted(self):
        adapter = ColumnStoreAdapter()
        ex = SqlExecutor(adapter)
        ex.execute("CREATE TABLE r (a INT)")
        ex.execute("INSERT INTO r VALUES (1), (2)")
        before = adapter.rows_materialized
        ex.execute("SELECT * FROM r")
        assert adapter.rows_materialized == before + 2
        assert adapter.rows_recompressed >= 2
