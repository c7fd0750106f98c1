"""Property: observability never changes results.

Two databases replay the same random statement stream — one reading
through a span-traced session (``trace_queries=True``), one untraced —
and every SELECT must return byte-identical row lists, including reads
through pinned read-only transactions held open across DML and
compaction, and reads issued mid-transaction while writes sit in the
commit buffer.  Tracing is observation only; the planner's timing
wrappers must never reorder, drop or duplicate a row."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Database
from repro.smo.parser import render_literal
from repro.sql import (
    ColumnStoreAdapter,
    MutableColumnAdapter,
    RowEngineAdapter,
    SqlExecutor,
)

KS = list(range(5))
SS = ["a", "b", "c"]

SELECTS = [
    "SELECT * FROM r",
    "SELECT k FROM r",
    "SELECT DISTINCT s FROM r ORDER BY s",
    "SELECT k, s FROM r WHERE k >= 2 ORDER BY k LIMIT 4",
    "SELECT s FROM r WHERE k = 1 OR s = 'a'",
]

dml = st.one_of(
    st.tuples(st.sampled_from(KS), st.sampled_from(SS)).map(
        lambda t: f"INSERT INTO r VALUES ({t[0]}, '{t[1]}')"
    ),
    st.sampled_from(KS).map(lambda k: f"DELETE FROM r WHERE k = {k}"),
    st.tuples(st.sampled_from(SS), st.sampled_from(KS)).map(
        lambda t: f"UPDATE r SET s = '{t[0]}' WHERE k > {t[1]}"
    ),
)

operations = st.lists(
    st.one_of(
        st.tuples(st.just("dml"), dml),
        st.tuples(st.just("query"), st.sampled_from(SELECTS)),
        st.tuples(st.just("step"), st.integers(min_value=1, max_value=2)),
        st.tuples(st.just("pin"), st.none()),
        st.tuples(st.just("tx_query"), st.sampled_from(SELECTS)),
        st.tuples(st.just("close_oldest"), st.none()),
    ),
    max_size=14,
)


def build_pair(initial):
    """Two identical databases; the second one's session traces."""
    databases, sessions = [], []
    for _ in range(2):
        db = Database()
        db.execute("CREATE TABLE r (k INT, s STRING, KEY(k))")
        if initial:
            db.executemany("INSERT INTO r VALUES (?, ?)", initial)
        databases.append(db)
        sessions.append(db.session())
    sessions[1].trace_queries = True
    return databases, sessions


def open_pinned_pair(databases):
    """Matching read-only scopes, the traced one reading through a
    span-traced session (the scope's session is transaction-internal,
    so the test flips the flag directly)."""
    plain = databases[0].transaction(read_only=True).begin()
    traced = databases[1].transaction(read_only=True).begin()
    traced._session.trace_queries = True
    frozen = plain.execute("SELECT * FROM r")
    return plain, traced, frozen


@settings(max_examples=25, deadline=None)
@given(initial=st.lists(
    st.tuples(st.sampled_from(KS), st.sampled_from(SS)), max_size=8,
), stream=operations)
def test_traced_reads_equal_untraced_reads(initial, stream):
    databases, sessions = build_pair(initial)
    pinned = []  # (plain tx, traced tx, frozen SELECT *)
    try:
        for kind, payload in stream:
            if kind == "dml":
                affected = [s.execute(payload) for s in sessions]
                assert affected[0] == affected[1]
            elif kind == "query":
                plain_rows, traced_rows = (
                    s.execute(payload) for s in sessions
                )
                assert traced_rows == plain_rows
                trace = sessions[1].last_trace
                assert trace is not None and trace.executed
                assert trace.root.rows_out == len(traced_rows)
            elif kind == "step":
                for db in databases:
                    db.compact_step("r", columns=payload)
            elif kind == "pin":
                pinned.append(open_pinned_pair(databases))
            elif kind == "tx_query":
                for plain, traced, frozen in pinned:
                    plain_rows = plain.execute(payload)
                    assert traced.execute(payload) == plain_rows
                    assert plain.execute("SELECT * FROM r") == frozen
            elif kind == "close_oldest" and pinned:
                plain, traced, _frozen = pinned.pop(0)
                plain.rollback()
                traced.rollback()
        # Whatever the stream did, the two live states converged.
        assert sessions[1].execute("SELECT * FROM r") == sessions[0].execute(
            "SELECT * FROM r"
        )
    finally:
        for plain, traced, _frozen in pinned:
            plain.rollback()
            traced.rollback()


@settings(max_examples=25, deadline=None)
@given(
    initial=st.lists(
        st.tuples(st.sampled_from(KS), st.sampled_from(SS)), max_size=6,
    ),
    buffered=st.lists(dml, min_size=1, max_size=4),
    select=st.sampled_from(SELECTS),
)
def test_tracing_mid_transaction_with_buffered_writes(
    initial, buffered, select
):
    databases, sessions = build_pair(initial)
    scopes = [db.transaction() for db in databases]
    with scopes[0] as plain, scopes[1] as traced:
        traced._session.trace_queries = True
        for statement in buffered:
            plain.execute(statement)
            traced.execute(statement)
        # Mid-transaction reads see the pinned state, traced or not.
        assert traced.execute(select) == plain.execute(select)
        assert traced.execute("SELECT * FROM r") == plain.execute(
            "SELECT * FROM r"
        )
    # The replayed commits leave both databases byte-identical.
    assert sessions[1].execute("SELECT * FROM r") == sessions[0].execute(
        "SELECT * FROM r"
    )


@settings(max_examples=10, deadline=None)
@given(
    initial=st.lists(
        st.tuples(st.sampled_from(KS), st.sampled_from(SS)),
        min_size=1, max_size=8,
    ),
    select=st.sampled_from(SELECTS),
)
def test_tracing_is_inert_on_every_backend(initial, select):
    values = ", ".join(
        f"({render_literal(k)}, {render_literal(s)})" for k, s in initial
    )
    for adapter in (MutableColumnAdapter, ColumnStoreAdapter, RowEngineAdapter):
        executors = [SqlExecutor(adapter()) for _ in range(2)]
        for executor in executors:
            executor.execute("CREATE TABLE r (k INT, s STRING, KEY(k))")
            executor.execute(f"INSERT INTO r VALUES {values}")
        executors[1].trace_queries = True
        plain_rows, traced_rows = (e.execute(select) for e in executors)
        assert traced_rows == plain_rows
        analyzed = executors[1].execute("EXPLAIN ANALYZE " + select)
        assert analyzed[0][4] == len(plain_rows)  # root rows_out
