"""Property tests: delta/main merged reads match an eager row-list
oracle, *in order*, under any interleaving of insert/update/delete/
compact, and compaction preserves content (``same_content``).

Every column may hold NULLs, and predicate literals include ``None``,
values absent from every dictionary, ints against the FLOAT column and
integral floats against the INT column — the cases where a dictionary
lookup and the row-at-a-time comparison could disagree."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitmap import WAHBitmap
from repro.delta import CompactionPolicy, MutableTable
from repro.delta.mutable import find_victims
from repro.exec import DeltaBatch
from repro.smo.predicate import And, Comparison, Not, Or
from repro.storage import DataType, Table, table_from_python
from repro.storage.types import coerce

KS = [0, 1, 2, 3, 4, None]
FS = [0.0, 1.5, 2.0, 3.0, None]
SS = ["a", "b", "c", None]
DTYPES = {"K": DataType.INT, "F": DataType.FLOAT, "S": DataType.STRING}
NAMES = tuple(DTYPES)

# Non-NULL literals per column: stored values, values no dictionary
# holds (7, 9.5, "zz"), an integral float against INT and ints against
# FLOAT.  NULL joins them for =, != and IN (a NULL range bound raises on
# every path alike, so ranges leave it out).
LITERALS = {
    "K": [0, 1, 2, 3, 4, 7, 2.0, 7.0],
    "F": [0.0, 1.5, 2.0, 3.0, 9.5, 2, 3, 5],
    "S": ["a", "b", "c", "zz"],
}


def base_table(rows):
    return table_from_python(
        "R",
        {
            name: (dtype, [row[index] for row in rows])
            for index, (name, dtype) in enumerate(DTYPES.items())
        },
    )


class Oracle:
    """Eager row-list semantics in the order ``to_rows`` promises:
    surviving main rows, then live delta rows.  An UPDATE removes its
    victims and appends their new versions in that same order (main
    positions first, then delta indices) — the out-of-place write."""

    def __init__(self, rows):
        self.rows = [tuple(row) for row in rows]

    def insert(self, row):
        self.rows.append(tuple(row))

    def delete(self, predicate):
        kept = [row for row in self.rows if not self._matches(predicate, row)]
        count = len(self.rows) - len(kept)
        self.rows = kept
        return count

    def update(self, assignments, predicate):
        coerced = {
            name: coerce(value, DTYPES[name])
            for name, value in assignments.items()
        }
        kept, moved = [], []
        for row in self.rows:
            if self._matches(predicate, row):
                moved.append(
                    tuple(
                        coerced.get(name, value)
                        for name, value in zip(NAMES, row)
                    )
                )
            else:
                kept.append(row)
        self.rows = kept + moved
        return len(moved)

    @staticmethod
    def _matches(predicate, row):
        return predicate is None or predicate.matches(
            lambda attr: row[NAMES.index(attr)]
        )


def comparisons_on(name, literals_by_column=LITERALS):
    literals = st.sampled_from(literals_by_column[name])
    return st.one_of(
        st.tuples(st.sampled_from(["<", "<=", ">", ">="]), literals),
        st.tuples(st.sampled_from(["=", "!="]), st.none() | literals),
        st.lists(st.none() | literals, min_size=1, max_size=3).map(
            lambda values: ("IN", tuple(values))
        ),
    ).map(lambda t: Comparison(name, *t))


def predicate_trees(literals_by_column=LITERALS):
    return st.recursive(
        st.one_of(
            *(comparisons_on(name, literals_by_column) for name in NAMES)
        ),
        lambda inner: st.one_of(
            st.tuples(inner, inner).map(lambda t: And(*t)),
            st.tuples(inner, inner).map(lambda t: Or(*t)),
            inner.map(Not),
        ),
        max_leaves=3,
    )


predicates = predicate_trees()

rows = st.tuples(st.sampled_from(KS), st.sampled_from(FS), st.sampled_from(SS))

assignments = st.fixed_dictionaries(
    {},
    optional={
        "K": st.sampled_from(KS),
        "F": st.sampled_from([*FS, 4]),
        "S": st.sampled_from(SS),
    },
).filter(bool)

operations = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), rows),
        st.tuples(st.just("delete"), st.none() | predicates),
        st.tuples(st.just("update"), st.tuples(assignments, st.none() | predicates)),
        st.tuples(st.just("compact"), st.none()),
    ),
    max_size=12,
)


def apply_stream(mutable, oracle, stream):
    for kind, payload in stream:
        if kind == "insert":
            mutable.insert(payload)
            oracle.insert(payload)
        elif kind == "delete":
            assert mutable.delete(payload) == oracle.delete(payload)
        elif kind == "update":
            values, predicate = payload
            assert mutable.update(values, predicate) == oracle.update(
                values, predicate
            )
        else:
            mutable.compact()
        assert mutable.nrows == len(oracle.rows)
        assert mutable.to_rows() == oracle.rows


@settings(max_examples=60, deadline=None)
@given(
    initial=st.lists(rows, max_size=8),
    stream=operations,
)
def test_any_interleaving_matches_oracle(initial, stream):
    mutable = MutableTable(base_table(initial), CompactionPolicy.never())
    oracle = Oracle(initial)
    apply_stream(mutable, oracle, stream)

    # Final compaction folds everything into a pure-WAH table that is
    # same_content-equal to the oracle's eager table.
    compacted = mutable.compact()
    expected = Table.from_rows(compacted.schema, oracle.rows)
    assert compacted.same_content(expected)
    assert all(
        isinstance(bitmap, WAHBitmap)
        for name in compacted.column_names
        for bitmap in compacted.column(name).bitmaps
    )
    assert not mutable.has_pending_changes


@settings(max_examples=30, deadline=None)
@given(
    initial=st.lists(rows, max_size=8),
    stream=operations,
    threshold=st.integers(min_value=1, max_value=4),
)
def test_autocompaction_is_transparent(initial, stream, threshold):
    """Whatever the compaction policy does in the background, reads
    never change."""
    eager = MutableTable(
        base_table(initial), CompactionPolicy(threshold, 0.25, 0.25)
    )
    oracle = Oracle(initial)
    apply_stream(eager, oracle, stream)
    assert eager.to_rows() == oracle.rows


@settings(max_examples=30, deadline=None)
@given(initial=st.lists(rows, min_size=1, max_size=8), stream=operations)
def test_persistence_preserves_any_state(tmp_path_factory, initial, stream):
    from repro.core import EvolutionEngine
    from repro.storage import load_engine, save_engine

    engine = EvolutionEngine()
    engine.load_table(base_table(initial))
    mutable = engine.mutable("R", CompactionPolicy.never())
    oracle = Oracle(initial)
    apply_stream(mutable, oracle, stream)

    directory = tmp_path_factory.mktemp("delta")
    save_engine(engine, directory)
    restored = load_engine(directory, CompactionPolicy.never())
    assert restored.mutable("R").to_rows() == oracle.rows


@pytest.mark.parametrize("threshold", [1, 3, 7])
def test_repeated_compaction_is_idempotent(threshold):
    mutable = MutableTable(
        base_table([(1, 1.5, "a"), (2, 2.0, "b")]), CompactionPolicy.never()
    )
    for index in range(threshold):
        mutable.insert((index, None, "c"))
    first = mutable.compact()
    second = mutable.compact()
    assert first is second  # no pending changes -> same main returned


# The delta's one predicate path — the compiled evaluator — against
# row-at-a-time ``Predicate.matches``, at buffer sizes around where a
# hash index once took over (256 appended rows).  A NaN literal joins
# the FLOAT literals; ints against FLOAT, NULL literals, IN lists with
# None and != over NULL values come from the shared strategies.
DELTA_LITERALS = {**LITERALS, "F": [*LITERALS["F"], float("nan")]}


@settings(max_examples=40, deadline=None)
@given(
    size=st.sampled_from([0, 255, 256, 1000]),
    seed=st.integers(0, 2**16),
    predicate=predicate_trees(DELTA_LITERALS),
    assignment=assignments,
)
def test_delta_predicates_match_row_semantics(
    size, seed, predicate, assignment
):
    rng = random.Random(seed)
    buffered = [
        (rng.choice(KS), rng.choice(FS), rng.choice(SS))
        for _ in range(size)
    ]

    def fresh():
        mutable = MutableTable(
            base_table([(1, 1.5, "a"), (None, None, None)]),
            CompactionPolicy.never(),
        )
        mutable.insert_rows(buffered)
        for index in range(0, size, 7):  # a sparse live selection
            mutable.delta.apply_update([], [index], [])
        return mutable

    def matches(row):
        return Oracle._matches(predicate, row)

    mutable = fresh()
    live = mutable.delta.live_indices()
    store = mutable.delta
    expected = [i for i in live if matches(store.row(i))]
    batch = DeltaBatch(store).filter(predicate)
    assert batch.selected_positions().tolist() == expected
    assert batch.rows() == [store.row(i) for i in expected]
    _, _, indices, _ = find_victims(
        mutable.scan_batches(), mutable.schema, predicate
    )
    assert indices == expected

    oracle = Oracle(mutable.to_rows())
    assert mutable.delete(predicate) == oracle.delete(predicate)
    assert mutable.to_rows() == oracle.rows

    mutable = fresh()
    oracle = Oracle(mutable.to_rows())
    assert mutable.update(assignment, predicate) == oracle.update(
        assignment, predicate
    )
    assert mutable.to_rows() == oracle.rows
