"""Aggregation, DISTINCT and ORDER BY: property tests against SQLite
and against the pre-existing row engine.

Two oracles, used for what each is actually authoritative about:

* **SQLite** pins the value semantics — grouping, NULL-skipping
  aggregates (``COUNT(col)``/``SUM``/``MIN``/``MAX``/``AVG`` ignore
  NULLs; ``SUM`` of an empty group is NULL), DISTINCT over NULLs.
  Comparisons are multiset comparisons, because our engine's pinned
  ORDER BY places NULLs last ascending / first descending while SQLite
  treats NULL as smallest.
* **The row engine** pins our own pre-aggregation semantics — the
  compressed and hash paths of ``repro.exec.aggregate`` must return
  exactly what the seed row-at-a-time path returns, including ORDER BY
  output order under LIMIT, where the SQLite comparison is not valid.

A third group exercises the epoch story on a live ``Database``: the
answers of an aggregate query are frozen inside a read-only
transaction while DML and ``compact_step()`` churn underneath, a write
transaction's aggregates see its own buffered rows, and results are
stable at every intermediate step of an incremental compaction.
"""

import datetime
import itertools
import math
import sqlite3

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Database
from repro.delta import CompactionPolicy
from repro.errors import SqlExecutionError
from repro.exec.aggregate import aggregate_rows, distinct_chunks
from repro.exec.batch import TableBatch, ValuesBatch
from repro.sql import (
    ColumnStoreAdapter,
    MutableColumnAdapter,
    RowEngineAdapter,
    SqlExecutor,
)
from repro.sql.parser import parse_sql
from repro.storage.column import BitmapColumn
from repro.storage.dictionary import Dictionary
from repro.storage.schema import ColumnSchema, TableSchema
from repro.storage.table import Table
from repro.storage.types import DataType

_AGGREGATES = (
    "COUNT(*)",
    "COUNT(b)",
    "SUM(b)",
    "MIN(b)",
    "MAX(b)",
    "AVG(b)",
)


@st.composite
def small_tables(draw):
    """Rows for ``t (a INT, b INT, c STRING)`` — low-cardinality group
    keys, a measure column with NULLs mixed in."""
    nrows = draw(st.integers(min_value=0, max_value=25))
    return [
        (
            draw(st.integers(0, 3)),
            draw(st.one_of(st.none(), st.integers(-2, 5))),
            draw(st.sampled_from(["x", "y", "z"])),
        )
        for _ in range(nrows)
    ]


@st.composite
def aggregate_queries(draw):
    group_by = draw(st.sampled_from(["", "a", "c", "a, c"]))
    naggs = draw(st.integers(1, 3))
    aggs = [draw(st.sampled_from(_AGGREGATES)) for _ in range(naggs)]
    columns = ", ".join(([group_by] if group_by else []) + aggs)
    where = ""
    if draw(st.booleans()):
        where = f" WHERE a {draw(st.sampled_from(['=', '!=', '<=']))} " \
            f"{draw(st.integers(0, 3))}"
    tail = f" GROUP BY {group_by}" if group_by else ""
    return f"SELECT {columns} FROM t{where}{tail}"


@st.composite
def distinct_queries(draw):
    columns = draw(st.sampled_from(["a", "b", "c", "a, c", "b, c"]))
    where = ""
    if draw(st.booleans()):
        where = f" WHERE a != {draw(st.integers(0, 3))}"
    return f"SELECT DISTINCT {columns} FROM t{where}"


@st.composite
def order_by_queries(draw):
    # The grammar sorts by a single key, which must be selected.
    columns, keys = draw(
        st.sampled_from(
            [
                ("*", ("a", "b", "c")),
                ("a, b", ("a", "b")),
                ("c, b", ("c", "b")),
                ("b", ("b",)),
            ]
        )
    )
    key = draw(st.sampled_from(keys))
    direction = draw(st.sampled_from(["", " ASC", " DESC"]))
    limit = ""
    if draw(st.booleans()):
        limit = f" LIMIT {draw(st.integers(0, 10))}"
    out_columns = ("a", "b", "c") if columns == "*" else tuple(
        name.strip() for name in columns.split(",")
    )
    return (
        f"SELECT {columns} FROM t ORDER BY {key}{direction}{limit}",
        bool(limit),
        out_columns.index(key),
    )


def _normalized(rows):
    """Multiset form, tolerant of float-vs-int AVG/SUM results."""
    return sorted(
        (
            tuple(
                round(value, 9) if isinstance(value, float) else value
                for value in row
            )
            for row in rows
        ),
        key=repr,
    )


def run_ours(adapter, rows, query):
    executor = SqlExecutor(adapter)
    executor.execute("CREATE TABLE t (a INT, b INT, c STRING)")
    if rows:
        executor.adapter.insert_rows("t", rows)
    return executor.execute(query)


def run_sqlite(rows, query):
    connection = sqlite3.connect(":memory:")
    connection.execute("CREATE TABLE t (a INTEGER, b INTEGER, c TEXT)")
    connection.executemany("INSERT INTO t VALUES (?, ?, ?)", rows)
    out = [tuple(row) for row in connection.execute(query)]
    connection.close()
    return out


@settings(max_examples=100, deadline=None)
@given(small_tables(), aggregate_queries())
def test_aggregates_match_sqlite(rows, query):
    """Compressed popcount/vid-fold paths, the hash fallback and the
    row engine all reproduce SQLite's aggregate value semantics."""
    oracle = _normalized(run_sqlite(rows, query))
    for adapter in (
        MutableColumnAdapter(),
        ColumnStoreAdapter(),
        RowEngineAdapter(),
    ):
        assert _normalized(run_ours(adapter, rows, query)) == oracle


@settings(max_examples=60, deadline=None)
@given(small_tables(), distinct_queries())
def test_distinct_matches_sqlite_and_row_path(rows, query):
    """DISTINCT via live-vid enumeration returns SQLite's multiset,
    and the exact sequence the row engine produces."""
    row_path = run_ours(RowEngineAdapter(), rows, query)
    assert _normalized(row_path) == _normalized(run_sqlite(rows, query))
    for adapter in (MutableColumnAdapter(), ColumnStoreAdapter()):
        assert run_ours(adapter, rows, query) == row_path


@settings(max_examples=60, deadline=None)
@given(small_tables(), order_by_queries())
def test_order_by_matches_row_path(rows, query_spec):
    """Dictionary-order presorted runs reproduce the row engine's
    exact output order (the engine's pinned NULL placement), and —
    without LIMIT, where row sets cannot be cut differently — SQLite's
    multiset."""
    query, has_limit, _key = query_spec
    row_path = run_ours(RowEngineAdapter(), rows, query)
    if not has_limit:
        assert _normalized(row_path) == _normalized(
            run_sqlite(rows, query)
        )
    for adapter in (MutableColumnAdapter(), ColumnStoreAdapter()):
        assert run_ours(adapter, rows, query) == row_path


@settings(max_examples=40, deadline=None)
@given(small_tables(), order_by_queries())
def test_order_by_null_free_key_sequence_matches_sqlite(rows, query_spec):
    """With no NULLs in play the pinned NULL placement is moot: the
    sequence of sort-key values must equal SQLite's (tie order within
    a key is each engine's own, so full rows compare as multisets)."""
    rows = [row for row in rows if row[1] is not None]
    query, has_limit, key = query_spec
    if has_limit:
        # LIMIT can cut a tie group differently per engine; the exact
        # cut is pinned against the row engine above.
        query = query[: query.index(" LIMIT")]
    theirs = run_sqlite(rows, query)
    for adapter in (
        MutableColumnAdapter(),
        ColumnStoreAdapter(),
        RowEngineAdapter(),
    ):
        ours = run_ours(adapter, rows, query)
        assert [row[key] for row in ours] == [row[key] for row in theirs]
        assert _normalized(ours) == _normalized(theirs)


@settings(max_examples=40, deadline=None)
@given(small_tables(), aggregate_queries())
def test_aggregates_match_the_sqlite_baseline_system(rows, query):
    """Same check through the repo's own SQLite baseline
    (``repro.baselines.row_sqlite.SqliteEvolution``) — the system the
    Figure 3 comparisons treat as the row-store ground truth."""
    from repro.baselines.row_sqlite import SqliteEvolution
    from repro.storage.schema import ColumnSchema, TableSchema
    from repro.storage.table import Table
    from repro.storage.types import DataType

    schema = TableSchema(
        "t",
        (
            ColumnSchema("a", DataType.INT),
            ColumnSchema("b", DataType.INT),
            ColumnSchema("c", DataType.STRING),
        ),
    )
    baseline = SqliteEvolution()
    baseline.load(Table.from_rows(schema, rows))
    oracle = _normalized(
        tuple(row) for row in baseline.connection.execute(query)
    )
    assert _normalized(
        run_ours(MutableColumnAdapter(), rows, query)
    ) == oracle


# --- Two-key GROUP BY over main + delta, in exact order ----------------


@st.composite
def two_key_histories(draw):
    """``t (a INT, c STRING, b INT)``: main rows with NULL group keys, a
    DELETE of some of them once they are compacted, then delta rows
    whose keys (``a`` 3 or 4, ``c`` 'w') the main dictionaries lack."""
    measure = st.one_of(st.none(), st.integers(-2, 5))
    main = [
        (
            draw(st.one_of(st.none(), st.integers(0, 2))),
            draw(st.one_of(st.none(), st.sampled_from(["x", "y"]))),
            draw(measure),
        )
        for _ in range(draw(st.integers(0, 20)))
    ]
    delta = [
        (
            draw(st.one_of(st.none(), st.integers(0, 4))),
            draw(st.one_of(st.none(), st.sampled_from(["w", "x"]))),
            draw(measure),
        )
        for _ in range(draw(st.integers(0, 8)))
    ]
    return main, draw(st.integers(-2, 5)), delta


@st.composite
def two_key_queries(draw):
    keys = draw(st.sampled_from([("a", "c"), ("c", "a")]))
    aggs = draw(st.lists(st.sampled_from(_AGGREGATES), min_size=1,
                         max_size=3))
    group_by = ", ".join(keys)
    columns = ", ".join([group_by, *aggs])
    return f"SELECT {columns} FROM t GROUP BY {group_by}", keys


def run_history(adapter, history, query):
    main, deleted, delta = history
    executor = SqlExecutor(adapter)
    executor.execute("CREATE TABLE t (a INT, c STRING, b INT)")
    if main:
        adapter.insert_rows("t", main)
    if isinstance(adapter, MutableColumnAdapter):
        mutable = adapter._mutable("t")
        while not mutable.compact_step().done:
            pass
    executor.execute(f"DELETE FROM t WHERE b = {deleted}")
    if delta:
        adapter.insert_rows("t", delta)
    return executor.execute(query)


def sqlite_history(history, query):
    main, deleted, delta = history
    connection = sqlite3.connect(":memory:")
    connection.execute("CREATE TABLE t (a INTEGER, c TEXT, b INTEGER)")
    connection.executemany("INSERT INTO t VALUES (?, ?, ?)", main)
    connection.execute("DELETE FROM t WHERE b = ?", (deleted,))
    connection.executemany("INSERT INTO t VALUES (?, ?, ?)", delta)
    out = [tuple(row) for row in connection.execute(query)]
    connection.close()
    return out


@settings(max_examples=100, deadline=None)
@given(two_key_histories(), two_key_queries())
def test_two_key_groups_in_exact_order(history, spec):
    """Compressed main partials (deleted rows masked) merged with hash
    partials of delta keys the main dictionaries lack come out as the
    row engine's exact sequence, SQLite's multiset, and in key order
    with NULL keys last per column."""
    query, keys = spec
    ours = run_history(
        MutableColumnAdapter(policy=CompactionPolicy.never()), history, query
    )
    assert ours == run_history(RowEngineAdapter(), history, query)
    assert _normalized(ours) == _normalized(sqlite_history(history, query))
    order = ", ".join(f"{key} IS NULL, {key}" for key in keys)
    ordered = sqlite_history(history, f"{query} ORDER BY {order}")
    assert [row[:2] for row in ours] == [row[:2] for row in ordered]


# --- Epoch consistency on a live Database ---------------------------

AGG_QUERIES = (
    "SELECT grp, COUNT(*) FROM t GROUP BY grp",
    "SELECT grp, COUNT(v), SUM(v), MIN(v), MAX(v) FROM t GROUP BY grp",
    "SELECT COUNT(*), SUM(v) FROM t",
    "SELECT DISTINCT grp FROM t",
    "SELECT v FROM t ORDER BY v DESC",
)


def seeded_db(nrows=120):
    db = Database(policy=CompactionPolicy.never())
    db.execute("CREATE TABLE t (grp STRING, v INT)")
    for i in range(nrows):
        db.execute(
            f"INSERT INTO t VALUES ('g{i % 7}', {i % 13})"
        )
    return db


class TestEpochConsistency:
    def test_snapshot_pins_aggregates_under_dml_and_compaction(self):
        db = seeded_db()
        with db.transaction(read_only=True) as tx:
            before = [tx.execute(q) for q in AGG_QUERIES]

            db.execute("INSERT INTO t VALUES ('g99', 999)")
            db.execute("DELETE FROM t WHERE grp = 'g3'")
            db.execute("UPDATE t SET v = 12 WHERE grp = 'g1'")
            while not db.compact_step("t").done:
                pass
            db.execute("INSERT INTO t VALUES ('g98', 998)")

            after = [tx.execute(q) for q in AGG_QUERIES]
            assert before == after

            # A plain read outside the scope sees the live counts.
            live_count = db.execute("SELECT COUNT(*) FROM t")
            assert live_count != before[2][0][:1]

        assert [db.execute(q) for q in AGG_QUERIES] != before

    def test_write_transaction_aggregates_see_own_writes(self):
        db = seeded_db(nrows=20)
        with db.transaction() as tx:
            frozen = tx.execute("SELECT COUNT(*), SUM(v) FROM t")
            tx.execute("INSERT INTO t VALUES ('mine', 100)")
            tx.execute("INSERT INTO t VALUES ('mine', 50)")
            assert tx.execute(
                "SELECT COUNT(*), SUM(v) FROM t WHERE grp = 'mine'"
            ) == [(2, 150)]
            count, total = tx.execute("SELECT COUNT(*), SUM(v) FROM t")[0]
            assert (count, total) == (frozen[0][0] + 2, frozen[0][1] + 150)
            # Other sessions keep aggregating the pre-commit state.
            assert db.execute("SELECT COUNT(*), SUM(v) FROM t") == frozen
        assert db.execute(
            "SELECT COUNT(*) FROM t WHERE grp = 'mine'"
        ) == [(2,)]

    def test_results_stable_at_every_compaction_step(self):
        db = seeded_db()
        # More delta traffic so the incremental compactor has several
        # steps to take.
        for i in range(60):
            db.execute(f"INSERT INTO t VALUES ('g{i % 5}', {i % 11})")
        db.execute("DELETE FROM t WHERE v = 10")

        expected = [db.execute(q) for q in AGG_QUERIES]
        steps = 0
        while not db.compact_step("t").done:
            steps += 1
            assert [db.execute(q) for q in AGG_QUERIES] == expected
        assert [db.execute(q) for q in AGG_QUERIES] == expected
        assert steps >= 1


# --- Compressed vs hash: equal values and equal Python types ----------

_MEASURES = {
    "int": (DataType.INT, st.integers(-50, 50)),
    "float": (
        DataType.FLOAT,
        st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
    ),
    # Mixed int/float values only arise from uncoerced writes; the
    # dictionary below keeps them as they are.
    "mixed": (
        DataType.FLOAT,
        st.one_of(
            st.integers(-50, 50),
            st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
        ),
    ),
    # Magnitudes whose sums leave int64: the object-array path.
    "big": (DataType.INT, st.integers(2**62 - 8, 2**62 + 8)),
    "date": (
        DataType.DATE,
        st.dates(datetime.date(2000, 1, 1), datetime.date(2000, 3, 1)),
    ),
    "string": (DataType.STRING, st.sampled_from(["p", "q", "r", "s"])),
}


#: How a main-store batch's selection is drawn: no selection, every
#: row selected explicitly, a few rows deleted, most rows deleted.
#: "none" reads the bitmaps' popcounts, the others count at positions.
SELECTION_KINDS = ("none", "all", "few", "most")


@st.composite
def typed_tables(draw, kinds=tuple(sorted(_MEASURES))):
    """``(kind, schema, rows, table)``: a main-store table whose group
    column ``g`` and measure column ``v`` both hold NULLs, ``v`` one
    kind of value."""
    kind = draw(st.sampled_from(kinds))
    dtype, values = _MEASURES[kind]
    measure = st.one_of(st.none(), values)
    group = st.one_of(st.none(), st.integers(0, 2))
    nrows = draw(st.integers(0, 30))
    rows = [(draw(group), draw(measure)) for _ in range(nrows)]
    schema = TableSchema(
        "t", (ColumnSchema("g", DataType.INT), ColumnSchema("v", dtype))
    )
    columns = {}
    for index, (name, column_type) in enumerate(
        (("g", DataType.INT), ("v", dtype))
    ):
        dictionary = Dictionary()
        vids = np.array(
            [dictionary.add(row[index]) for row in rows], dtype=np.int64
        )
        columns[name] = BitmapColumn.from_vids(
            name, column_type, dictionary, vids
        )
    return kind, schema, rows, Table(schema, columns, nrows)


@st.composite
def selections(draw, nrows: int, kind: str):
    """A selection of ``kind`` (see :data:`SELECTION_KINDS`) over
    ``nrows`` rows: ``None`` or sorted ``int64`` positions."""
    if kind == "none":
        return None
    if kind == "all" or not nrows:
        return np.arange(nrows, dtype=np.int64)
    positions = st.integers(0, nrows - 1)
    if kind == "few":
        dense = np.ones(nrows, dtype=bool)
        dense[draw(st.lists(positions, max_size=2))] = False
    else:
        dense = np.zeros(nrows, dtype=bool)
        dense[draw(st.lists(positions, max_size=nrows // 3))] = True
    return np.flatnonzero(dense)


@st.composite
def typed_batches(draw):
    """A main-store batch whose measure column ``v`` holds one kind of
    value (NULLs mixed in), under any selection kind, and optionally a
    live delta of the same kind."""
    kind, schema, rows, table = draw(typed_tables())
    selection = draw(
        selections(table.nrows, draw(st.sampled_from(SELECTION_KINDS)))
    )
    batches = [TableBatch(table, selection)]
    if draw(st.booleans()):
        measure = st.one_of(st.none(), _MEASURES[kind][1])
        group = st.one_of(st.none(), st.integers(0, 2))
        delta = [(draw(group), draw(measure)) for _ in range(
            draw(st.integers(1, 5)))]
        batches.append(ValuesBatch.from_rows(("g", "v"), delta))
    return kind, schema, batches


def _aggregate_or_error(batches, query, schema, strategy):
    try:
        return aggregate_rows(batches, parse_sql(query), schema, strategy)
    except SqlExecutionError as exc:
        return str(exc)


def _same_value_and_type(ours, theirs):
    if type(ours) is not type(theirs):
        return False
    if isinstance(ours, float):
        return math.isclose(ours, theirs, rel_tol=1e-9, abs_tol=1e-6)
    return ours == theirs


@settings(max_examples=150, deadline=None)
@given(typed_batches(), st.sampled_from(["", "g", "g, v"]))
def test_compressed_and_hash_agree_in_value_and_type(spec, group_by):
    """The dictionary-domain folds return what the row-wise hash
    aggregator returns, as the same Python types (never NumPy scalars)
    — for int64, float64 and object value arrays alike, under any
    selection, with or without delta rows, whichever batch comes first
    — and fail with the same message where SUM/AVG meet a non-numeric
    value."""
    kind, schema, scanned = spec
    for batches, aggs in itertools.product(
        (scanned, scanned[::-1]),
        ("COUNT(*), COUNT(v), MIN(v), MAX(v)", "SUM(v), AVG(v)"),
    ):
        query = f"SELECT {group_by + ', ' if group_by else ''}{aggs} FROM t"
        query += f" GROUP BY {group_by}" if group_by else ""
        compressed = _aggregate_or_error(batches, query, schema, "compressed")
        hashed = _aggregate_or_error(batches, query, schema, "hash")
        assert type(compressed) is type(hashed), (compressed, hashed)
        if isinstance(hashed, str):
            assert kind in ("date", "string") and compressed == hashed
            continue
        assert len(compressed) == len(hashed)
        for ours, theirs in zip(compressed, hashed):
            assert len(ours) == len(theirs)
            assert all(map(_same_value_and_type, ours, theirs)), (
                ours, theirs,
            )


# --- Every selection kind against SQLite; popcounts against bincount ---

#: Aggregates over the selection kinds: the ungrouped and one-column
#: grouped forms read popcounts when nothing is selected.
_SELECTION_QUERIES = (
    "SELECT COUNT(*), COUNT(v), MIN(v), MAX(v) FROM t",
    "SELECT g, COUNT(*) FROM t GROUP BY g",
    "SELECT g, COUNT(*), COUNT(v), MIN(v), MAX(v) FROM t GROUP BY g",
    "SELECT v, COUNT(*) FROM t GROUP BY v",
)
_NUMERIC_SELECTION_QUERIES = (
    "SELECT COUNT(*), SUM(v), AVG(v) FROM t",
    "SELECT g, SUM(v), AVG(v) FROM t GROUP BY g",
)


def _selected_rows(rows, selection):
    return rows if selection is None else [rows[p] for p in selection]


def _same_rows(ours, theirs) -> bool:
    """Equal multisets of rows, floats within a relative 1e-9 (a sum's
    order is each engine's own)."""
    def key(row):
        return [(value is None, 0 if value is None else value)
                for value in row]

    ours, theirs = sorted(ours, key=key), sorted(theirs, key=key)
    return len(ours) == len(theirs) and all(
        len(a) == len(b) and all(
            math.isclose(x, y, rel_tol=1e-9, abs_tol=1e-6)
            if isinstance(x, float) and isinstance(y, (int, float))
            else x == y
            for x, y in zip(a, b)
        )
        for a, b in zip(ours, theirs)
    )


def _sqlite_rows(kind, rows, query):
    connection = sqlite3.connect(":memory:")
    column_type = {"int": "INTEGER", "float": "REAL", "string": "TEXT"}
    connection.execute(f"CREATE TABLE t (g INTEGER, v {column_type[kind]})")
    connection.executemany("INSERT INTO t VALUES (?, ?)", rows)
    out = [tuple(row) for row in connection.execute(query)]
    connection.close()
    return out


@settings(max_examples=120, deadline=None)
@given(
    typed_tables(kinds=("float", "int", "string")),
    st.sampled_from(SELECTION_KINDS),
    st.data(),
)
def test_every_selection_kind_matches_sqlite(spec, selection_kind, data):
    """Aggregates and DISTINCT over a main-store batch equal SQLite on
    the selected rows (NULL groups and values included) for every
    selection kind, and DISTINCT keeps first-selected-row order.  No
    selection — the popcount and first-set-bit paths — returns exactly
    what every row selected explicitly returns through ``bincount``
    and the vid array."""
    kind, schema, rows, table = spec
    selection = data.draw(selections(table.nrows, selection_kind))
    selected = _selected_rows(rows, selection)
    queries = _SELECTION_QUERIES + (
        _NUMERIC_SELECTION_QUERIES if kind != "string" else ()
    )
    everything = np.arange(table.nrows, dtype=np.int64)
    for query in queries:
        ours = aggregate_rows(
            [TableBatch(table, selection)], parse_sql(query), schema
        )
        assert _same_rows(ours, _sqlite_rows(kind, selected, query)), query
        if selection is None:
            assert ours == aggregate_rows(
                [TableBatch(table, everything)], parse_sql(query), schema
            ), query
    for index, name in enumerate(("g", "v")):
        ours = list(itertools.chain.from_iterable(
            distinct_chunks([TableBatch(table, selection)], name)
        ))
        first_seen = list(dict.fromkeys(row[index] for row in selected))
        assert ours == [(value,) for value in first_seen]
        assert _same_rows(ours, _sqlite_rows(
            kind, selected, f"SELECT DISTINCT {name} FROM t"
        ))
        if selection is None:
            assert ours == list(itertools.chain.from_iterable(
                distinct_chunks([TableBatch(table, everything)], name)
            ))


# --- Cached whole-table partials: cold, warm and adjusted by deletions ---

#: Group keys and value columns of the partials oracle's table.
_KEY_COLUMNS = (
    ("k1", DataType.INT, st.integers(0, 2)),
    ("k2", DataType.STRING, st.sampled_from(["x", "y"])),
    ("k3", DataType.INT, st.integers(0, 1)),
)
_VALUE_COLUMNS = (
    ("vi", DataType.INT, st.integers(-5, 5)),
    ("vf", DataType.FLOAT,
     st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)),
    ("vs", DataType.STRING, st.sampled_from(["p", "q", "r"])),
    # Integers plus, at most, one string that SUM cannot add.
    ("vm", DataType.INT, st.integers(-5, 5)),
)
#: One row holds each value column's unique extreme, one ``vm``'s string.
_EXTREMES = {"vi": 10**6, "vf": -1e6, "vs": "zzz", "vm": 10**6}
_NOT_NUMERIC = "oops"
#: Which main rows the batch's validity excludes.
DELETION_KINDS = ("none", "random", "group", "extreme", "bad", "all")


@st.composite
def partials_tables(draw):
    """``(schema, rows, extreme, bad)``: rows over the key and value
    columns above, all holding NULLs, with row ``extreme`` the only
    holder of each value column's extreme value and row ``bad`` (or
    ``None``) the only non-numeric ``vm`` value."""
    columns = _KEY_COLUMNS + _VALUE_COLUMNS
    rows = [
        tuple(draw(st.one_of(st.none(), values)) for _n, _t, values in columns)
        for _ in range(draw(st.integers(0, 24)))
    ]
    keys = tuple(draw(values) for _n, _t, values in _KEY_COLUMNS)
    extreme = draw(st.integers(0, len(rows)))
    rows.insert(extreme, keys + tuple(
        _EXTREMES[name] for name, _t, _v in _VALUE_COLUMNS
    ))
    bad = None
    if draw(st.booleans()):
        bad = draw(st.integers(0, len(rows) - 1))
        rows[bad] = rows[bad][:-1] + (_NOT_NUMERIC,)
    schema = TableSchema(
        "t", tuple(ColumnSchema(name, dtype) for name, dtype, _v in columns)
    )
    return schema, rows, extreme, bad


def _fresh_table(schema, rows) -> Table:
    """A new main-store generation of ``rows``, values kept as they
    are (``vm``'s string included): nothing cached for it yet."""
    columns = {}
    for index, column in enumerate(schema.columns):
        dictionary = Dictionary()
        vids = np.array(
            [dictionary.add(row[index]) for row in rows], dtype=np.int64
        )
        columns[column.name] = BitmapColumn.from_vids(
            column.name, column.dtype, dictionary, vids
        )
    return Table(schema, columns, len(rows))


def _deleted_rows(kind, rows, keys, extreme, bad, data) -> np.ndarray | None:
    """The main positions deletion ``kind`` excludes: a random set, all
    rows of one group of ``keys``, the extremes' row, the non-numeric
    value's row, or every row."""
    if kind == "none" or (kind == "bad" and bad is None):
        return None
    if kind == "random":
        picked = data.draw(st.sets(st.integers(0, len(rows) - 1)))
    elif kind == "group":
        key_names = [name for name, _t, _v in _KEY_COLUMNS]
        at = [key_names.index(key) for key in keys]
        victim = rows[data.draw(st.integers(0, len(rows) - 1))]
        picked = [
            position for position, row in enumerate(rows)
            if all(row[i] == victim[i] for i in at)
        ]
    elif kind == "all":
        picked = range(len(rows))
    else:
        picked = [extreme if kind == "extreme" else bad]
    return np.array(sorted(picked), dtype=np.int64)


def _partials_queries(keys):
    group = ", ".join(keys)
    head = f"{group}, " if keys else ""
    tail = f" GROUP BY {group}" if keys else ""
    for name, _t, _v in _VALUE_COLUMNS:
        # ``vm``'s string and integers do not compare: no MIN or MAX.
        extremes = "" if name == "vm" else f", MIN({name}), MAX({name})"
        for aggs in (
            f"COUNT(*), COUNT({name}){extremes}",
            f"SUM({name}), AVG({name}), COUNT({name})",
        ):
            yield f"SELECT {head}{aggs} FROM t{tail}"


def _agree(ours, theirs) -> bool:
    if isinstance(theirs, str):
        return ours == theirs
    return isinstance(ours, list) and len(ours) == len(theirs) and all(
        len(a) == len(b) and all(map(_same_value_and_type, a, b))
        for a, b in zip(ours, theirs)
    )


@settings(max_examples=120, deadline=None)
@given(
    partials_tables(),
    st.lists(st.sampled_from([name for name, _t, _v in _KEY_COLUMNS]),
             max_size=3, unique=True),
    st.sampled_from(DELETION_KINDS),
    st.booleans(),
    st.data(),
)
def test_cached_partials_cold_warm_and_deleted_match_hash(
    spec, keys, deletion, with_delta, data
):
    """Every grouped and global COUNT/SUM/AVG/MIN/MAX over 0–3 keys
    and an INT, FLOAT, STRING or part non-numeric value column, with
    NULLs in keys and values: a main batch under deleted rows (a whole
    group, the only row holding a MIN or MAX, the only non-numeric
    value, …) or under a selection, with or without delta rows, returns
    on a cold generation, again warm, and warm from entries built
    before the deletion, exactly the same rows — equal to the hash
    path's."""
    schema, rows, extreme, bad = spec
    deleted = _deleted_rows(deletion, rows, keys, extreme, bad, data)
    selection = np.array(
        sorted(data.draw(st.sets(st.integers(0, len(rows) - 1)))),
        dtype=np.int64,
    )
    delta = []
    if with_delta:
        columns = _KEY_COLUMNS + _VALUE_COLUMNS
        delta = [
            tuple(data.draw(st.one_of(st.none(), values))
                  for _n, _t, values in columns)
            for _ in range(data.draw(st.integers(1, 4)))
        ]
    names = schema.column_names

    def batches(table, **main):
        out = [TableBatch(table, **main)]
        if delta:
            out.append(ValuesBatch.from_rows(names, delta))
        return out

    for query in _partials_queries(keys):
        for main in ({"deleted": deleted}, {"selection": selection}):
            table = _fresh_table(schema, rows)
            cold = _aggregate_or_error(
                batches(table, **main), query, schema, "compressed"
            )
            warm = _aggregate_or_error(
                batches(table, **main), query, schema, "compressed"
            )
            before = _fresh_table(schema, rows)
            _aggregate_or_error(batches(before), query, schema, "compressed")
            after = _aggregate_or_error(
                batches(before, **main), query, schema, "compressed"
            )
            hashed = _aggregate_or_error(
                batches(table, **main), query, schema, "hash"
            )
            assert cold == warm == after, (query, main)
            assert _agree(cold, hashed), (query, main, cold, hashed)


def test_sum_raises_until_its_only_non_numeric_row_is_deleted(monkeypatch):
    """SUM over a column whose one non-numeric value a deletion then
    masks raises before the deletion and not after, cold or warm; the
    deleted row's own count clears its group, so no pair is searched
    for a live non-numeric value."""
    import repro.exec.aggregate as aggregate_module

    searched = []
    original = aggregate_module._first_non_numeric

    def spied(*args):
        searched.append(args)
        return original(*args)

    monkeypatch.setattr(aggregate_module, "_first_non_numeric", spied)
    schema = TableSchema(
        "t", (ColumnSchema("g", DataType.INT), ColumnSchema("v", DataType.INT))
    )
    rows = [(i % 3, i) for i in range(12)]
    rows[7] = (1, _NOT_NUMERIC)
    gone = np.array([7], dtype=np.int64)
    for query in ("SELECT g, SUM(v) FROM t GROUP BY g",
                  "SELECT AVG(v) FROM t"):
        table = _fresh_table(schema, rows)
        select = parse_sql(query)
        for _ in range(2):
            with pytest.raises(SqlExecutionError, match="numeric"):
                aggregate_rows([TableBatch(table)], select, schema)
            searched.clear()
            got = aggregate_rows(
                [TableBatch(table, deleted=gone)], select, schema
            )
            assert searched == []
            assert got == aggregate_rows(
                [TableBatch(table, deleted=gone)], select, schema, "hash"
            )
