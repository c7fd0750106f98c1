"""SQL conformance: our executor against SQLite as an oracle.

For randomly generated tables and queries from the supported subset,
the row engine, the column-store adapter and SQLite must return the
same multiset of rows, and so must every engine's JOIN (the CODS
engine's included).  This pins the semantics the query-level
baselines rely on (if our SQL engine were subtly wrong, the Figure 3
comparisons would compare unequal work).
"""

import sqlite3

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smo.parser import render_literal
from repro.sql import (
    ColumnStoreAdapter,
    MutableColumnAdapter,
    RowEngineAdapter,
    SqlExecutor,
)

_COLUMNS = ("a", "b", "c")
#: String values that carry the grammar's own structure characters: a
#: scanner that rewrites text without tracking literals corrupts them.
_STRINGS = (
    "x", "y", "z", "a*b", "what?", "it's", "a;b", "a--b", "select *",
    "count(*)",
)


@st.composite
def small_tables(draw):
    nrows = draw(st.integers(min_value=0, max_value=25))
    rows = [
        (
            draw(st.integers(0, 4)),
            draw(st.integers(0, 3)),
            draw(st.sampled_from(_STRINGS)),
        )
        for _ in range(nrows)
    ]
    return rows


@st.composite
def where_clauses(draw):
    attr = draw(st.sampled_from(_COLUMNS))
    if attr == "c":
        literal = render_literal(draw(st.sampled_from(_STRINGS)))
        op = draw(st.sampled_from(["=", "!=", "<", ">="]))
    else:
        literal = str(draw(st.integers(0, 4)))
        op = draw(st.sampled_from(["=", "!=", "<", "<=", ">", ">="]))
    clause = f"{attr} {op} {literal}"
    if draw(st.booleans()):
        other = draw(st.sampled_from(_COLUMNS[:2]))
        connective = draw(st.sampled_from(["AND", "OR"]))
        clause = f"{clause} {connective} {other} = {draw(st.integers(0, 4))}"
    return clause


@st.composite
def select_queries(draw):
    columns = draw(
        st.sampled_from(["*", "a", "a, b", "c, a", "a, b, c", "b"])
    )
    distinct = "DISTINCT " if draw(st.booleans()) else ""
    where = ""
    if draw(st.booleans()):
        where = f" WHERE {draw(where_clauses())}"
    return f"SELECT {distinct}{columns} FROM t{where}"


def run_ours(adapter, rows, query):
    executor = SqlExecutor(adapter)
    executor.execute("CREATE TABLE t (a INT, b INT, c STRING)")
    if rows:
        # Through the parser: the string values must survive as text.
        values = ", ".join(
            "(" + ", ".join(render_literal(v) for v in row) + ")"
            for row in rows
        )
        executor.execute(f"INSERT INTO t VALUES {values}")
    return sorted(executor.execute(query))


def run_sqlite(rows, query):
    connection = sqlite3.connect(":memory:")
    connection.execute("CREATE TABLE t (a INTEGER, b INTEGER, c TEXT)")
    connection.executemany("INSERT INTO t VALUES (?, ?, ?)", rows)
    # SQLite's != works like ours; string comparisons use the same
    # lexicographic order for ASCII.
    out = sorted(tuple(row) for row in connection.execute(query))
    connection.close()
    return out


@settings(max_examples=120, deadline=None)
@given(small_tables(), select_queries())
def test_row_engine_matches_sqlite(rows, query):
    assert run_ours(RowEngineAdapter(), rows, query) == run_sqlite(
        rows, query
    )


@settings(max_examples=60, deadline=None)
@given(small_tables(), select_queries())
def test_column_adapter_matches_sqlite(rows, query):
    assert run_ours(ColumnStoreAdapter(), rows, query) == run_sqlite(
        rows, query
    )


@settings(max_examples=60, deadline=None)
@given(small_tables(), small_tables())
def test_join_matches_sqlite(left_rows, right_rows):
    """Every engine's JOIN: the row store's engine-native join and the
    column stores' ``hash_join_chunks``."""
    connection = sqlite3.connect(":memory:")
    connection.execute("CREATE TABLE s (a INTEGER, b INTEGER, c TEXT)")
    connection.execute("CREATE TABLE t2 (a INTEGER, d INTEGER, e TEXT)")
    connection.executemany("INSERT INTO s VALUES (?, ?, ?)", left_rows)
    connection.executemany("INSERT INTO t2 VALUES (?, ?, ?)", right_rows)
    theirs = sorted(
        tuple(row)
        for row in connection.execute(
            "SELECT s.a, s.b, t2.d FROM s JOIN t2 USING (a)"
        )
    )
    connection.close()
    for adapter in (RowEngineAdapter, ColumnStoreAdapter, MutableColumnAdapter):
        executor = SqlExecutor(adapter())
        executor.execute("CREATE TABLE s (a INT, b INT, c STRING)")
        executor.execute("CREATE TABLE t2 (a INT, d INT, e STRING)")
        if left_rows:
            executor.adapter.insert_rows("s", left_rows)
        if right_rows:
            executor.adapter.insert_rows("t2", right_rows)
        ours = sorted(
            executor.execute("SELECT a, b, d FROM s JOIN t2 ON (a)")
        )
        assert ours == theirs, adapter.__name__
