"""Property tests: the vid array a column keeps (``BitmapColumn.vids``)
is always the one its bitmaps decode to.

Columns come out of bulk loads, insert-only and deleting folds (whole
and incremental), metadata-only renames and first reads; after any
sequence of them, every column of the live main store reads back
``vids() == decode_vids()``, and a SELECT built from the kept arrays
returns the reference merge's rows.  A column built from a vid array
owns a copy of it."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.delta import CompactionPolicy
from repro.sql import MutableColumnAdapter, SqlExecutor
from repro.storage import DataType, Dictionary
from repro.storage.column import BitmapColumn

STRINGS = ["a", "b", "c", "zz", None]

statements = st.one_of(
    st.tuples(
        st.just("insert"),
        st.lists(
            st.tuples(st.integers(-3, 40), st.sampled_from(STRINGS)),
            min_size=1, max_size=5,
        ),
    ),
    st.tuples(
        st.just("update"), st.sampled_from(STRINGS[:4]), st.integers(2, 5)
    ),
    st.tuples(st.just("delete"), st.integers(2, 5), st.integers(0, 1)),
    st.tuples(st.just("compact_step")),
    st.tuples(st.just("compact")),
    st.tuples(st.just("rename"), st.integers(0, 1)),
    st.tuples(st.just("read")),
)


def _literal(value) -> str:
    return "NULL" if value is None else f"'{value}'"


def _run(adapter, executor, names, statement, renames):
    k, s = names
    kind = statement[0]
    if kind == "insert":
        values = ", ".join(
            f"({key}, {_literal(text)})" for key, text in statement[1]
        )
        executor.execute(f"INSERT INTO t VALUES {values}")
    elif kind == "update":
        executor.execute(
            f"UPDATE t SET {s} = {_literal(statement[1])} "
            f"WHERE {k} > {statement[2]}"
        )
    elif kind == "delete":
        executor.execute(
            f"DELETE FROM t WHERE {k} = {statement[1]} OR {k} < {statement[2]}"
        )
    elif kind == "compact_step":
        adapter._mutable("t").compact_step(columns=1)
    elif kind == "compact":
        adapter.compact("t")
    elif kind == "rename":
        at = statement[1]
        new = f"{names[at][0]}{next(renames)}"
        adapter.rename_column("t", names[at], new)
        names[at] = new
    else:
        executor.execute(f"SELECT {s}, COUNT(*) FROM t GROUP BY {s}")
        executor.execute(f"SELECT * FROM t WHERE {k} > 3")


@settings(max_examples=60, deadline=None)
@given(
    main=st.lists(
        st.tuples(st.integers(0, 30), st.sampled_from(STRINGS)),
        max_size=12,
    ),
    script=st.lists(statements, max_size=12),
)
def test_kept_vids_are_the_decoded_vids(main, script):
    adapter = MutableColumnAdapter(policy=CompactionPolicy.never())
    executor = SqlExecutor(adapter)
    executor.execute("CREATE TABLE t (k INT, s STRING)")
    if main:
        adapter.insert_rows("t", main)
        adapter.compact("t")
    names, renames = ["k", "s"], iter(range(1_000))
    for statement in script:
        _run(adapter, executor, names, statement, renames)
    mutable = adapter._mutable("t")
    table = mutable.main
    for name in table.schema.column_names:
        column = table.column(name)
        assert column.vids().tolist() == column.decode_vids().tolist(), name
        assert column.vids().dtype == np.int64
    assert executor.execute("SELECT * FROM t") == mutable.to_rows()


@settings(max_examples=40, deadline=None)
@given(
    nvids=st.sampled_from([1, 256, 257, 65_536, 65_537]),
    data=st.data(),
)
def test_a_column_owns_the_vids_it_was_built_from(nvids, data):
    """Each width of the kept copy (8, 16 and 32 bits) is widened back
    to the vids given, whatever the caller does to its array later."""
    vids = data.draw(st.lists(st.integers(0, nvids - 1), max_size=40))
    dictionary = Dictionary()
    dictionary.encode(np.arange(nvids))
    given_vids = np.asarray(vids, dtype=np.int64)
    column = BitmapColumn.from_vids("c", DataType.INT, dictionary, given_vids)
    given_vids[:] = data.draw(st.integers(0, nvids - 1))
    assert column.vids().tolist() == vids
    assert column.decode_vids().tolist() == vids
    assert not column.vids().flags.writeable
