"""Read-your-writes overlays: what a write transaction reads inside its
scope is what its commit produces.

A single session runs random INSERT / UPDATE / DELETE sequences inside
a transaction — with and without predicates, aimed at pinned main rows,
pinned delta rows and rows the scope itself inserted.  Two oracles:

* **commit** — the last in-scope ``SELECT *`` must equal the
  post-commit ``SELECT *`` as an *ordered* list (an in-scope UPDATE
  moves its rows to the end of the scan, exactly where commit's replay
  appends them);
* **SQLite** — every in-scope aggregate must equal the repository's
  SQLite baseline (``repro.baselines.row_sqlite.SqliteEvolution``)
  replaying the same statements (multiset comparison).

A structural test pins the representation: a written table's overlay
starts from the pinned snapshot's batches, not from a decoded copy.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.row_sqlite import SqliteEvolution
from repro.db import Database
from repro.delta import CompactionPolicy
from repro.delta.snapshot import _GENERATION_CACHE
from repro.storage.schema import ColumnSchema, TableSchema
from repro.storage.table import Table
from repro.storage.types import DataType
from tests.property.test_aggregate_properties import _normalized

SCHEMA = TableSchema(
    "t",
    (
        ColumnSchema("a", DataType.INT),
        ColumnSchema("b", DataType.INT),
        ColumnSchema("c", DataType.STRING),
    ),
)

# Main rows carry c in {x, y}, pinned delta rows c = 'd', rows the
# scope inserts c = 'w' — so a predicate on c aims at one side.
PREDICATES = (
    "", " WHERE c = 'x'", " WHERE c = 'd'", " WHERE c = 'w'",
    " WHERE a <= 1", " WHERE a = 2 OR c = 'w'", " WHERE b > 3",
)

AGGREGATES = (
    "SELECT c, COUNT(*), SUM(b), MIN(a) FROM t GROUP BY c",
    "SELECT a, COUNT(b), MAX(b) FROM t GROUP BY a",
    "SELECT COUNT(*), SUM(b) FROM t WHERE a <= 2",
)


def rows_of(c):
    return st.lists(
        st.tuples(
            st.integers(0, 3),
            st.one_of(st.none(), st.integers(0, 6)),
            st.just(c),
        ),
        max_size=12,
    )


@st.composite
def statements(draw):
    kind = draw(st.sampled_from(["insert", "update", "delete"]))
    if kind == "insert":
        a, b = draw(st.integers(0, 3)), draw(st.integers(0, 6))
        return f"INSERT INTO t VALUES ({a}, {b}, 'w')"
    where = draw(st.sampled_from(PREDICATES))
    if kind == "delete":
        return f"DELETE FROM t{where}"
    column, value = draw(
        st.sampled_from([("b", st.integers(0, 6)), ("a", st.integers(0, 3))])
    )
    return f"UPDATE t SET {column} = {draw(value)}{where}"


def _sqlite_insert(baseline, rows):
    baseline.connection.executemany(
        "INSERT INTO t VALUES (?, ?, ?)", rows
    )


@settings(max_examples=80, deadline=None)
@given(
    main_rows=st.lists(
        st.tuples(
            st.integers(0, 3),
            st.one_of(st.none(), st.integers(0, 6)),
            st.sampled_from(["x", "y"]),
        ),
        max_size=15,
    ),
    delta_rows=rows_of("d"),
    compact=st.booleans(),
    dead=st.sampled_from(["", " WHERE a = 0"]),
    script=st.lists(
        st.tuples(statements(), st.sampled_from(AGGREGATES + (None,))),
        min_size=1,
        max_size=12,
    ),
)
def test_scope_reads_what_commit_produces(
    main_rows, delta_rows, compact, dead, script
):
    db = Database(policy=CompactionPolicy.never())
    db.execute("CREATE TABLE t (a INT, b INT, c STRING)")
    baseline = SqliteEvolution()
    baseline.load(Table.from_rows(SCHEMA, []))
    for rows in (main_rows, delta_rows):
        if rows:
            db.adapter.insert_rows("t", rows)
            _sqlite_insert(baseline, rows)
        if compact and rows is main_rows:
            db.compact("t")
    if dead:
        # Dead rows on both sides of the split before the pin.
        db.execute(f"DELETE FROM t{dead}")
        baseline.connection.execute(f"DELETE FROM t{dead}")

    with db.transaction() as tx:
        for statement, aggregate in script:
            tx.execute(statement)
            baseline.connection.execute(statement)
            if aggregate is not None:
                assert _normalized(tx.execute(aggregate)) == _normalized(
                    baseline.connection.execute(aggregate)
                ), (statement, aggregate)
        in_scope = tx.execute("SELECT * FROM t")
    assert in_scope == db.execute("SELECT * FROM t")
    assert _normalized(in_scope) == _normalized(
        baseline.connection.execute("SELECT * FROM t")
    )
    baseline.close()


def test_overlay_starts_from_the_pinned_batches_without_decoding():
    db = Database(policy=CompactionPolicy.never())
    db.execute("CREATE TABLE t (a INT, b INT, c STRING)")
    db.adapter.insert_rows(
        "t", [(i % 50, i, "xy"[i % 2]) for i in range(20_000)]
    )
    db.compact("t")
    db.execute("INSERT INTO t VALUES (1, 1, 'd')")
    decoded = db.adapter.metrics.counter("exec.rows_decoded")
    with db.transaction() as tx:
        pinned_main = tx._pins["t"]._main
        before = decoded.value
        assert tx.execute("INSERT INTO t VALUES (2, 2, 'w')") == 1
        assert decoded.value == before
        assert "rows" not in _GENERATION_CACHE.get(pinned_main, {})
        batches = tx._overlay.overlay("t").scan_batches()
        assert batches[0].table is pinned_main
        assert [type(batch).__name__ for batch in batches] == [
            "TableBatch", "DeltaBatch", "ValuesBatch",
        ]
        # A filter on the written table stays in the compressed domain:
        # only the one match is decoded.
        assert tx.execute("SELECT * FROM t WHERE c = 'w'") == [(2, 2, "w")]
        assert decoded.value == before + 1
        assert "rows" not in _GENERATION_CACHE.get(pinned_main, {})
