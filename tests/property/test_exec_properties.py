"""Predicate-pushdown equivalence: the batch pipeline vs seed semantics.

For random schemas, rows, predicates and delta states (buffered
inserts, updates, deletes, partial compaction), a SELECT executed
through the vectorized pipeline must return exactly — same rows, same
order — what the seed row-at-a-time reference produces over the
reference merge (``to_rows()`` of the table, captured when a read-only
transaction pinned it while one is open) — rows that never pass through
the adapter under test.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Database
from repro.delta import CompactionPolicy
from repro.smo.predicate import And, Comparison, Not, Or
from repro.sql import MutableColumnAdapter, SqlExecutor
from repro.sql.ast import Select

COLUMNS = ("a", "b", "c")
STRINGS = ("x", "y", "z")


@st.composite
def comparisons(draw):
    attr = draw(st.sampled_from(COLUMNS))
    if attr == "c":
        op = draw(st.sampled_from(["=", "!=", "<", ">=", "IN"]))
        if op == "IN":
            value = tuple(
                draw(st.lists(st.sampled_from(STRINGS), min_size=1,
                              max_size=2))
            )
        else:
            value = draw(st.sampled_from(STRINGS))
    else:
        op = draw(st.sampled_from(["=", "!=", "<", "<=", ">", ">=", "IN"]))
        if op == "IN":
            value = tuple(
                draw(st.lists(st.integers(0, 4), min_size=1, max_size=3))
            )
        else:
            value = draw(st.integers(0, 4))
    return Comparison(attr, op, value)


@st.composite
def predicates(draw, depth=2):
    if depth == 0 or draw(st.booleans()):
        return draw(comparisons())
    kind = draw(st.sampled_from(["and", "or", "not"]))
    if kind == "not":
        return Not(draw(predicates(depth=depth - 1)))
    left = draw(predicates(depth=depth - 1))
    right = draw(predicates(depth=depth - 1))
    return And(left, right) if kind == "and" else Or(left, right)


@st.composite
def row_batches(draw, max_rows=12):
    nrows = draw(st.integers(0, max_rows))
    return [
        (
            draw(st.integers(0, 4)),
            draw(st.integers(0, 3)),
            draw(st.sampled_from(STRINGS)),
        )
        for _ in range(nrows)
    ]


@st.composite
def delta_states(draw):
    """A table with a main store, then a random DML tail that leaves a
    delta behind (optionally with a mid-stream compaction)."""
    return {
        "main": draw(row_batches(max_rows=15)),
        "tail": draw(
            st.lists(
                st.tuples(
                    st.sampled_from(["insert", "update", "delete"]),
                    row_batches(max_rows=3),
                    predicates(depth=1),
                ),
                max_size=4,
            )
        ),
        "compact_midway": draw(st.booleans()),
    }


def build_adapter(state, adapter=None):
    if adapter is None:
        adapter = MutableColumnAdapter(policy=CompactionPolicy.never())
    executor = SqlExecutor(adapter)
    executor.execute("CREATE TABLE t (a INT, b INT, c STRING)")
    if state["main"]:
        adapter.insert_rows("t", state["main"])
    adapter.compact("t")  # the seed main store
    steps = state["tail"]
    for index, (kind, rows, predicate) in enumerate(steps):
        if kind == "insert" and rows:
            adapter.insert_rows("t", rows)
        elif kind == "update":
            adapter.update_rows("t", [("b", 1)], predicate)
        elif kind == "delete":
            adapter.delete_rows("t", predicate)
        if state["compact_midway"] and index == 0 and len(steps) > 1:
            adapter.compact_step("t")
    return adapter, executor


def live_rows(adapter):
    """The table's reference merge, straight off the storage handle."""
    return adapter.evolution_engine.mutable("t").to_rows()


def reference_select(rows, predicate, projection):
    """The seed row-at-a-time SELECT over reference-merge ``rows``."""
    positions = {n: i for i, n in enumerate(COLUMNS)}
    if predicate is not None:
        rows = [
            row
            for row in rows
            if predicate.matches(lambda a, r=row: r[positions[a]])
        ]
    if projection is not None:
        out = [positions[c] for c in projection]
        rows = [tuple(row[p] for p in out) for row in rows]
    return rows


@st.composite
def select_shapes(draw):
    projection = draw(
        st.sampled_from([None, ("a",), ("c", "a"), ("b", "c", "a")])
    )
    where = draw(st.one_of(st.none(), predicates()))
    limit = draw(st.one_of(st.none(), st.integers(0, 6)))
    return projection, where, limit


@settings(max_examples=120, deadline=None)
@given(delta_states(), select_shapes())
def test_batch_select_equals_seed_row_path(state, shape):
    projection, where, limit = shape
    adapter, executor = build_adapter(state)
    select = Select(projection, "t", where=where, limit=limit)
    got = executor.execute(select)
    expected = reference_select(live_rows(adapter), where, projection)
    if limit is not None:
        expected = expected[:limit]
    assert got == expected


def select_text(projection, where) -> str:
    """``Select(projection, "t", where=where)`` as SQL text (predicates
    render as SQL)."""
    columns = ", ".join(projection) if projection is not None else "*"
    text = f"SELECT {columns} FROM t"
    return text if where is None else f"{text} WHERE {where}"


@settings(max_examples=60, deadline=None)
@given(delta_states(), select_shapes(), delta_states())
def test_batch_select_under_open_snapshot(state, shape, later):
    """Pin the table in a read-only transaction, capture the seed
    reference, land more DML, and the batch pipeline must keep
    answering from the pinned state."""
    projection, where, _limit = shape
    db = Database(policy=CompactionPolicy.never())
    adapter, executor = build_adapter(state, db.adapter)
    with db.transaction(read_only=True) as tx:
        pinned_reference = reference_select(
            live_rows(adapter), where, projection
        )
        # Concurrent DML lands outside the pinned scope.
        for kind, rows, predicate in later["tail"]:
            mutable = adapter.evolution_engine.mutable("t")
            if kind == "insert" and rows:
                mutable.insert_rows(rows)
            elif kind == "update":
                mutable.update({"b": 2}, predicate)
            else:
                mutable.delete(predicate)
        assert tx.execute(select_text(projection, where)) == pinned_reference
    # After the pin is released, reads see the live state again.
    live = executor.execute(Select(projection, "t", where=where))
    assert live == reference_select(live_rows(adapter), where, projection)
