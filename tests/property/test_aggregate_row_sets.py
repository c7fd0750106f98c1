"""A main-store batch names its rows in two forms: a selection of them,
or the whole table less deletions.  Aggregating the rows ``R`` must
give the same result either way — ``TableBatch(t, selection=R)``
counts at ``R`` per statement, ``TableBatch(t, deleted=complement)``
reads the generation's whole-table partials less the complement's
rows — over 0–2 group keys in either order and every aggregate.

Results compare exactly, value and type, except a float SUM or AVG:
the two forms add a group's pairs in different groupings (the
deletion form hands ``reduceat`` the pairs whose rows are all
deleted, too), so their sums may differ in the last ulp.  The float
values are positive, which bounds that rounding at a relative 1e-12.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SqlExecutionError
from repro.exec.aggregate import aggregate_rows
from repro.exec.batch import TableBatch
from repro.sql.ast import Aggregate
from repro.sql.parser import parse_sql
from repro.storage.schema import ColumnSchema, TableSchema
from repro.storage.types import DataType
from tests.property.test_aggregate_properties import _fresh_table

_KEYS = (
    ("k1", DataType.INT, st.integers(0, 3)),
    ("k2", DataType.STRING, st.sampled_from(["x", "y", "z"])),
)
_VALUES = {
    "int": (DataType.INT, st.integers(-50, 50)),
    "float": (DataType.FLOAT, st.floats(0.5, 1e3)),
    "string": (DataType.STRING, st.sampled_from(["p", "q", "r"])),
}


@st.composite
def row_set_tables(draw):
    """``(schema, rows, table)``: a fresh main-store table over the key
    columns and one value column ``v`` of a drawn type, NULLs in
    every column."""
    dtype, values = _VALUES[draw(st.sampled_from(sorted(_VALUES)))]
    columns = (*_KEYS, ("v", dtype, values))
    rows = [
        tuple(draw(st.one_of(st.none(), drawn)) for _n, _t, drawn in columns)
        for _ in range(draw(st.integers(0, 30)))
    ]
    schema = TableSchema(
        "t", tuple(ColumnSchema(name, dtype) for name, dtype, _v in columns)
    )
    return schema, rows, _fresh_table(schema, rows)


def _queries(keys):
    head = "".join(f"{key}, " for key in keys)
    tail = f" GROUP BY {', '.join(keys)}" if keys else ""
    for aggs in ("COUNT(*), COUNT(v), MIN(v), MAX(v)", "SUM(v), AVG(v)"):
        yield parse_sql(f"SELECT {head}{aggs} FROM t{tail}")


def _rows_or_error(batch, select, schema):
    try:
        return aggregate_rows([batch], select, schema)
    except SqlExecutionError as exc:
        return str(exc)


def _agree(ours, theirs, select) -> bool:
    if isinstance(ours, str) or isinstance(theirs, str):
        return ours == theirs
    summed = [
        isinstance(item, Aggregate) and item.func in ("sum", "avg")
        for item in select.columns
    ]
    return len(ours) == len(theirs) and all(
        type(x) is type(y) and (
            math.isclose(x, y, rel_tol=1e-12)
            if loose and isinstance(x, float) else x == y
        )
        for a, b in zip(ours, theirs)
        for x, y, loose in zip(a, b, summed, strict=True)
    )


@settings(max_examples=200, deadline=None)
@given(
    row_set_tables(),
    st.lists(st.sampled_from([name for name, _t, _v in _KEYS]),
             max_size=2, unique=True),
    st.data(),
)
def test_a_selection_and_its_complement_deleted_agree(spec, keys, data):
    """``R`` as a selection and the complement of ``R`` as deletions
    finalize to the same rows; with ``R`` empty, to no row grouped and
    to ``(0, None, …)`` ungrouped."""
    schema, rows, table = spec
    everything = np.arange(len(rows), dtype=np.int64)
    chosen = np.array(
        sorted(data.draw(st.sets(st.sampled_from(everything.tolist()))
                         if len(rows) else st.just(set()))),
        dtype=np.int64,
    )
    complement = np.setdiff1d(everything, chosen)
    for select in _queries(keys):
        selected = _rows_or_error(
            TableBatch(table, selection=chosen), select, schema
        )
        deleted = _rows_or_error(
            TableBatch(table, deleted=complement), select, schema
        )
        assert _agree(selected, deleted, select), (selected, deleted)
        if not len(chosen):
            assert selected == ([] if keys else [tuple(
                0 if item.func == "count" else None
                for item in select.columns
            )])
