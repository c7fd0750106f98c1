"""Property tests: a compaction fold builds, column by column, exactly
what the bitmap-filtering reference fold (``tests/harness/
fold_reference.py``) builds — the same words, offsets, counts and
dictionary — and the folded table reads back the oracle's rows.

Draws cover INT, FLOAT, STRING and DATE columns with NULLs, buffered
values no main dictionary holds, main values whose every row is
deleted (every main row, too), folds with no live buffered row,
buffered rows deleted before the cutoff, and an incremental run
(``compact_step(columns=1)``) with inserts, updates and deletes landing
between its steps."""

from __future__ import annotations

import datetime

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.delta import CompactionPolicy, MutableTable
from repro.smo.predicate import Comparison
from repro.storage import DataType, table_from_python
from repro.storage.column import BitmapColumn
from repro.storage.table import Table
from tests.harness.fold_reference import (
    column_differences,
    reference_merge_column,
)

DTYPES = {
    "ID": DataType.INT,
    "I": DataType.INT,
    "F": DataType.FLOAT,
    "S": DataType.STRING,
    "D": DataType.DATE,
}
# The main store draws from the first values of each pool; buffered
# rows draw from all of them, so some are in no main dictionary.
POOLS = {
    "I": [1, 2, 3, None, 7, -40],
    "F": [0.5, 2.0, None, 3.25, -1.0],
    "S": ["a", "b", None, "c", "zz"],
    "D": [
        datetime.date(2010, 1, 1),
        datetime.date(2010, 9, 13),
        None,
        datetime.date(1999, 12, 31),
    ],
}
MAIN_POOL = 3
BUFFER_ID = 1_000


def values(pool_size=None):
    return st.tuples(*(
        st.sampled_from(pool[:pool_size]) for pool in POOLS.values()
    ))


class CheckedTable(MutableTable):
    """A mutable table whose every merged column is checked against
    the reference fold, computed from the same run."""

    def _merge_column(self, name, run):
        merged = super()._merge_column(name, run)
        expected = reference_merge_column(self.main, self.delta, name, run)
        assert column_differences(merged, expected) == [], name
        return merged


class Oracle:
    """Rows in ``to_rows`` order: an UPDATE moves its victims, updated,
    to the end, in their order."""

    def __init__(self, rows):
        self.rows = list(rows)

    def insert(self, rows):
        self.rows += rows

    def delete(self, victim):
        self.rows = [row for row in self.rows if not victim(row)]

    def update(self, column, value, victim):
        at = list(DTYPES).index(column)
        moved = [
            row[:at] + (value,) + row[at + 1:]
            for row in self.rows
            if victim(row)
        ]
        self.delete(victim)
        self.rows += moved


def by_id(ids):
    ids = tuple(sorted(ids))
    return Comparison("ID", "IN", ids), lambda row: row[0] in ids


def by_s(value):
    return Comparison("S", "=", value), lambda row: row[3] == value


def delete(mutable, oracle, where):
    """DELETE on both sides; ``where`` is a predicate and its row test."""
    predicate, victim = where
    mutable.delete(predicate)
    oracle.delete(victim)


def apply(mutable, oracle, op, next_id):
    """Run one drawn write on both sides; returns the next free id."""
    kind = op[0]
    if kind == "insert":
        rows = [(next_id + i, *row) for i, row in enumerate(op[1])]
        mutable.insert_rows(rows)
        oracle.insert(rows)
        return next_id + len(rows)
    if kind == "delete_ids":
        ids = [row[0] for row in oracle.rows if row[0] % op[1] == op[2]]
        delete(mutable, oracle, by_id(ids))
        return next_id
    if kind == "delete_s":
        delete(mutable, oracle, by_s(op[1]))
        return next_id
    _, column, pick, modulus = op
    value = POOLS[column][pick % len(POOLS[column])]
    predicate, victim = by_id(
        [row[0] for row in oracle.rows if row[0] % modulus == 0]
    )
    mutable.update({column: value}, predicate)
    oracle.update(column, value, victim)
    return next_id


writes = st.one_of(
    st.tuples(
        st.just("insert"), st.lists(values(), min_size=1, max_size=4)
    ),
    st.integers(2, 4).flatmap(
        lambda modulus: st.tuples(
            st.just("delete_ids"), st.just(modulus),
            st.integers(0, modulus - 1),
        )
    ),
    st.tuples(st.just("delete_s"), st.sampled_from(["a", "b", "c", "zz"])),
    st.tuples(
        st.just("update"), st.sampled_from(["I", "F", "S", "D"]),
        st.integers(0, 5), st.integers(1, 3),
    ),
)


def build(main_rows):
    rows = [(i, *row) for i, row in enumerate(main_rows)]
    table = table_from_python(
        "R",
        {
            name: (dtype, [row[at] for row in rows])
            for at, (name, dtype) in enumerate(DTYPES.items())
        },
    )
    return CheckedTable(table, CompactionPolicy.never()), Oracle(rows)


@settings(max_examples=80, deadline=None)
@given(
    main_rows=st.lists(values(MAIN_POOL), min_size=1, max_size=14),
    buffered=st.lists(values(), max_size=6),
    deleted_main=st.sets(st.integers(0, 13)),
    delete_everything=st.booleans(),
    deleted_buffered=st.sets(st.integers(0, 5)),
    gone_value=st.sampled_from([None, "a", "b", "c"]),
)
def test_fold_matches_the_reference(
    main_rows, buffered, deleted_main, delete_everything,
    deleted_buffered, gone_value,
):
    mutable, oracle = build(main_rows)
    apply(mutable, oracle, ("insert", buffered), BUFFER_ID)
    ids = (
        [row[0] for row in oracle.rows[:len(main_rows)]]
        if delete_everything
        else sorted(deleted_main)
    ) + [BUFFER_ID + i for i in deleted_buffered]
    delete(mutable, oracle, by_id(ids))
    if gone_value is not None:
        delete(mutable, oracle, by_s(gone_value))
    mutable.compact()
    assert mutable.main.to_rows() == oracle.rows
    assert mutable.delta.is_empty


@settings(max_examples=60, deadline=None)
@given(
    main_rows=st.lists(values(MAIN_POOL), min_size=1, max_size=12),
    before=st.lists(writes, max_size=4),
    between=st.lists(st.lists(writes, max_size=2), min_size=5, max_size=5),
)
def test_incremental_fold_matches_the_reference(main_rows, before, between):
    mutable, oracle = build(main_rows)
    next_id = BUFFER_ID
    for op in before:
        next_id = apply(mutable, oracle, op, next_id)
    progress = mutable.compact_step(columns=1)
    steps = iter(between)
    while not progress.done:
        for op in next(steps):
            next_id = apply(mutable, oracle, op, next_id)
        progress = mutable.compact_step(columns=1)
    assert mutable.to_rows() == oracle.rows
    mutable.compact()
    assert mutable.main.to_rows() == oracle.rows


def test_a_fold_with_deletions_leaves_the_old_columns_vids_as_held():
    """The fold reads each dying column's vids as the column holds
    them: a narrow copy stays narrow, a widened one stays the array a
    reader widened, and a column holding none keeps none.  Every merged
    column is bit-identical to the reference fold (``CheckedTable``)."""
    rows = [
        (i, *(pool[i % len(pool)] for pool in POOLS.values()))
        for i in range(40)
    ]
    table = table_from_python(
        "R",
        {
            name: (dtype, [row[at] for row in rows])
            for at, (name, dtype) in enumerate(DTYPES.items())
        },
    )
    bare = table.column("F")
    columns = {name: table.column(name) for name in DTYPES}
    columns["F"] = BitmapColumn(
        "F", bare.dtype, bare.dictionary, bare.bitmaps, bare.nrows
    )
    old = Table(table.schema, columns, table.nrows)
    widened = old.column("I").vids()
    mutable, oracle = CheckedTable(old, CompactionPolicy.never()), Oracle(rows)
    held = {name: old.column(name)._vids for name in DTYPES}
    assert held["I"] is widened and held["F"] is None
    assert {held[name].dtype for name in ("ID", "S", "D")} == {
        np.dtype(np.uint8)
    }
    apply(mutable, oracle, ("insert", [(7, 2.0, "zz", None)]), BUFFER_ID)
    delete(mutable, oracle, by_s("b"))
    delete(mutable, oracle, by_id([0, 1, 17]))
    mutable.compact()
    assert mutable.main is not old
    for name in DTYPES:
        assert old.column(name)._vids is held[name], name
    assert mutable.main.to_rows() == oracle.rows
