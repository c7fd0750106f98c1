"""Every read class over a main store with deletions, against two
oracles.

A main batch's validity is an exclusion list (``TableBatch.deleted``):
counts subtract the deleted rows', DISTINCT moves a value whose first
row is deleted, ORDER BY runs skip the dead positions and a full scan
splices around them.  Random INSERT / UPDATE / DELETE scripts over a
compacted three-column main with a live delta exercise all of it, and
each read must equal:

* the **reference merge** (``MutableTable.to_rows``: decode the main,
  drop the dead positions, append the live delta) wherever row order is
  defined — full scans, projections, filters, DISTINCT's first-seen
  order and ORDER BY … LIMIT with its stable tie order;
* the repository's **SQLite** baseline
  (``repro.baselines.row_sqlite.SqliteEvolution``) replaying the same
  statements, as multisets, for everything whose result is a set.

The same reads run through a read-only transaction pinned before more
deletes land (a ``Snapshot``'s exclusion list at its epoch) and through
a write transaction's overlay after a DELETE (``ColumnBatch.without``
growing the main batch's exclusion list).  The edge cases the
subtraction can get wrong are drawn explicitly as well: deleting a
value's first row, deleting every row of a value, and deleting rows on
both sides of a LIMIT cut.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.row_sqlite import SqliteEvolution
from repro.db import Database
from repro.delta import CompactionPolicy
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


def _project(*indexes):
    return lambda rows: [tuple(row[i] for i in indexes) for row in rows]


def _where(test):
    return lambda rows: [row for row in rows if test(row)]


def _distinct(index):
    def first_seen(rows):
        seen, out = set(), []
        for row in rows:
            if row[index] not in seen:
                seen.add(row[index])
                out.append((row[index],))
        return out

    return first_seen


def _ordered(index, project, limit, descending=False):
    def stable_sort(rows):
        ranked = sorted(
            rows,
            key=lambda row: (row[index] is None, row[index]),
            reverse=descending,
        )
        return _project(*project)(ranked[:limit])

    return stable_sort


#: ``(sql, order-defined reference over the merged rows or None)``: a
#: read with a reference must equal it as a list; every read but the
#: ORDER BY … LIMIT ones (whose ties SQLite orders its own way) must
#: equal SQLite as a multiset.
READS = (
    ("SELECT * FROM t", lambda rows: rows),
    ("SELECT c, a FROM t", _project(2, 0)),
    ("SELECT * FROM t WHERE a = 1", _where(lambda row: row[0] == 1)),
    (
        "SELECT * FROM t WHERE a = 2 AND c = 'x'",
        _where(lambda row: row[0] == 2 and row[2] == "x"),
    ),
    ("SELECT COUNT(*), SUM(b), MIN(b), MAX(b), AVG(b) FROM t", None),
    ("SELECT COUNT(b), SUM(a), MIN(c), MAX(c), AVG(a) FROM t", None),
    (
        "SELECT c, COUNT(*), SUM(b), MIN(b), MAX(b), AVG(b) FROM t "
        "GROUP BY c",
        None,
    ),
    ("SELECT a, COUNT(*), MIN(c), MAX(c) FROM t GROUP BY a", None),
    ("SELECT a, c, COUNT(*), SUM(b) FROM t GROUP BY a, c", None),
    ("SELECT DISTINCT c FROM t", _distinct(2)),
    ("SELECT DISTINCT a FROM t", _distinct(0)),
    ("SELECT a, b FROM t ORDER BY a LIMIT 4", _ordered(0, (0, 1), 4)),
    (
        "SELECT c, b FROM t ORDER BY c DESC LIMIT 3",
        _ordered(2, (2, 1), 3, descending=True),
    ),
    ("SELECT b, c FROM t ORDER BY b LIMIT 5", _ordered(1, (1, 2), 5)),
)

#: Statements aimed at the main rows (``c`` in x/y/z), the delta rows
#: (``c = 'd'``) and both.
PREDICATES = (
    " WHERE a = 0", " WHERE a = 1", " WHERE c = 'x'", " WHERE c = 'y'",
    " WHERE c = 'd'", " WHERE b > 3", " WHERE a = 2 AND c = 'z'",
    " WHERE b = 1 OR c = 'y'",
)


@st.composite
def statements(draw):
    kind = draw(st.sampled_from(["insert", "update", "delete", "delete"]))
    if kind == "insert":
        a, b = draw(st.integers(0, 3)), draw(st.integers(0, 6))
        c = draw(st.sampled_from(["x", "w"]))
        return f"INSERT INTO t VALUES ({a}, {b}, '{c}')"
    where = draw(st.sampled_from(PREDICATES))
    if kind == "delete":
        return f"DELETE FROM t{where}"
    column, value = draw(
        st.sampled_from([("b", st.integers(0, 6)), ("a", st.integers(0, 3))])
    )
    return f"UPDATE t SET {column} = {draw(value)}{where}"


def _rows(cs, max_size):
    return st.lists(
        st.tuples(
            st.integers(0, 3),
            st.one_of(st.none(), st.integers(0, 6)),
            st.sampled_from(cs),
        ),
        max_size=max_size,
    )


def _start(main_rows, delta_rows):
    """A compacted main of ``main_rows`` plus a delta of
    ``delta_rows``, in the engine and in SQLite."""
    db = Database(policy=CompactionPolicy.never())
    db.execute("CREATE TABLE t (a INT, b INT, c STRING)")
    baseline = SqliteEvolution()
    baseline.load(Table.from_rows(SCHEMA, []))
    for rows in (main_rows, delta_rows):
        if rows:
            db.adapter.insert_rows("t", rows)
            baseline.connection.executemany(
                "INSERT INTO t VALUES (?, ?, ?)", rows
            )
        if rows is main_rows:
            db.compact("t")
    return db, baseline


def _run(db, baseline, statement):
    db.execute(statement)
    baseline.connection.execute(statement)


def _expected(reference, baseline):
    """Each read's expected result: the reference's list where order is
    defined, and SQLite's multiset."""
    return [
        (
            None if order is None else order(reference),
            None if "ORDER BY" in sql
            else _normalized(baseline.connection.execute(sql)),
        )
        for sql, order in READS
    ]


def _check(execute, expected):
    for (sql, _order), (listed, multiset) in zip(READS, expected):
        got = execute(sql)
        if listed is not None:
            assert got == listed, sql
        if multiset is not None:
            assert _normalized(got) == multiset, sql


def _reference(db):
    return db.engine.delta_handle("t").to_rows()


@settings(max_examples=60, deadline=None)
@given(
    main_rows=_rows(["x", "y", "z"], 24),
    delta_rows=_rows(["d"], 8),
    before=st.lists(statements(), min_size=1, max_size=8),
    after=st.lists(statements(), min_size=1, max_size=6),
    overlay_delete=st.sampled_from(PREDICATES),
)
def test_every_read_class_matches_both_oracles_under_deletions(
    main_rows, delta_rows, before, after, overlay_delete
):
    db, baseline = _start(main_rows, delta_rows)
    for statement in before:
        _run(db, baseline, statement)
    _check(db.execute, _expected(_reference(db), baseline))

    # A snapshot pinned now keeps its exclusion list at its epoch while
    # more deletes land on the live table.
    pinned = _expected(_reference(db), baseline)
    with db.transaction(read_only=True) as tx:
        tx.execute("SELECT COUNT(*) FROM t")
        for statement in after:
            _run(db, baseline, statement)
        _check(tx.execute, pinned)
    _check(db.execute, _expected(_reference(db), baseline))

    # A DELETE inside a write transaction grows the overlay's main
    # exclusion list; its reads must equal the committed state's.
    with db.transaction() as tx:
        tx.execute(f"DELETE FROM t{overlay_delete}")
        baseline.connection.execute(f"DELETE FROM t{overlay_delete}")
        in_scope = {sql: tx.execute(sql) for sql, _order in READS}
    committed = _expected(_reference(db), baseline)
    _check(in_scope.__getitem__, committed)
    _check(db.execute, committed)
    db.close()
    baseline.close()


class TestDrawnEdgeCases:
    """The cases a subtraction of deleted rows can get wrong, drawn on
    purpose; each read still checks against both oracles."""

    MAIN = [
        (0, 5, "x"), (1, 4, "y"), (2, 3, "x"), (3, None, "z"),
        (1, 2, "y"), (0, 1, "z"), (2, 0, "x"), (3, 6, "y"),
    ]
    DELTA = [(1, 1, "d"), (0, 0, "d")]

    def check(self, *statements):
        db, baseline = _start(self.MAIN, self.DELTA)
        for statement in statements:
            _run(db, baseline, statement)
        _check(db.execute, _expected(_reference(db), baseline))
        return db, baseline

    def test_a_values_first_row_is_deleted(self):
        # x's first row (position 0) goes: DISTINCT c meets y first.
        db, baseline = self.check("DELETE FROM t WHERE a = 0 AND c = 'x'")
        assert db.execute("SELECT DISTINCT c FROM t") == [
            ("y",), ("x",), ("z",), ("d",),
        ]
        db.close()
        baseline.close()

    def test_every_row_of_a_value_is_deleted(self):
        db, baseline = self.check("DELETE FROM t WHERE c = 'z'")
        assert [row[0] for row in db.execute(
            "SELECT c, COUNT(*) FROM t GROUP BY c"
        )] == ["d", "x", "y"]
        assert ("z",) not in db.execute("SELECT DISTINCT c FROM t")
        db.close()
        baseline.close()

    def test_deletions_on_both_sides_of_a_limit_cut(self):
        # ORDER BY a LIMIT 4 over a = 0, 0, 1, 1 | 1, 2, ...: one row
        # deleted before the cut, one after it.
        db, baseline = self.check(
            "DELETE FROM t WHERE a = 0 AND c = 'z'",
            "DELETE FROM t WHERE a = 2 AND b = 3",
        )
        assert db.execute("SELECT a, b FROM t ORDER BY a LIMIT 4") == [
            (0, 5), (0, 0), (1, 4), (1, 2),
        ]
        db.close()
        baseline.close()

    def test_every_main_row_is_deleted(self):
        db, baseline = self.check("DELETE FROM t WHERE c <> 'd'")
        assert db.execute("SELECT * FROM t") == self.DELTA
        db.close()
        baseline.close()
