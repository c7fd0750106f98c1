"""Property tests for MVCC: under ANY interleaving of DML, incremental
compaction steps and snapshot pin/close, every open snapshot keeps
returning exactly the row list frozen at its pin time, the live view
matches the eager oracle, and superseded generations are reclaimed once
the last pinning snapshot closes."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.delta import CompactionPolicy, MutableTable
from repro.smo.predicate import And, Comparison, Not, Or
from repro.storage import DataType, table_from_python
from tests.conftest import rows_where

KS = list(range(5))
SS = ["a", "b", "c"]


def base_table(rows):
    return table_from_python(
        "R",
        {
            "K": (DataType.INT, [k for k, _s in rows]),
            "S": (DataType.STRING, [s for _k, s in rows]),
        },
    )


class Oracle:
    """Eager row-list semantics (multiset-compared)."""

    def __init__(self, rows):
        self.rows = [tuple(row) for row in rows]

    def insert(self, row):
        self.rows.append(tuple(row))

    def delete(self, predicate):
        if predicate is None:
            count = len(self.rows)
            self.rows = []
            return count
        kept = [row for row in self.rows if not _matches(predicate, row)]
        count = len(self.rows) - len(kept)
        self.rows = kept
        return count

    def update(self, assignments, predicate):
        count = 0
        for index, row in enumerate(self.rows):
            if predicate is None or _matches(predicate, row):
                self.rows[index] = (
                    assignments.get("K", row[0]),
                    assignments.get("S", row[1]),
                )
                count += 1
        return count


def _matches(predicate, row):
    return predicate.matches(lambda attr: row[0 if attr == "K" else 1])


comparisons = st.one_of(
    st.tuples(
        st.just("K"),
        st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
        st.sampled_from(KS),
    ).map(lambda t: Comparison(*t)),
    st.tuples(
        st.just("S"), st.sampled_from(["=", "!="]), st.sampled_from(SS)
    ).map(lambda t: Comparison(*t)),
)

predicates = st.recursive(
    comparisons,
    lambda inner: st.one_of(
        st.tuples(inner, inner).map(lambda t: And(*t)),
        st.tuples(inner, inner).map(lambda t: Or(*t)),
        inner.map(Not),
    ),
    max_leaves=3,
)

rows = st.tuples(st.sampled_from(KS), st.sampled_from(SS))

operations = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), rows),
        st.tuples(st.just("delete"), st.none() | predicates),
        st.tuples(
            st.just("update"),
            st.tuples(
                st.fixed_dictionaries({}, optional={
                    "K": st.sampled_from(KS), "S": st.sampled_from(SS),
                }),
                st.none() | predicates,
            ),
        ),
        st.tuples(st.just("step"), st.integers(min_value=1, max_value=2)),
        st.tuples(st.just("compact"), st.none()),
        st.tuples(st.just("pin"), st.none()),
        st.tuples(st.just("close_oldest"), st.none()),
    ),
    max_size=16,
)


def apply_stream(mutable, oracle, stream, pinned=None):
    pinned = list(pinned or [])  # (snapshot, frozen row list)
    for kind, payload in stream:
        if kind == "insert":
            mutable.insert(payload)
            oracle.insert(payload)
        elif kind == "delete":
            assert mutable.delete(payload) == oracle.delete(payload)
        elif kind == "update":
            assignments, predicate = payload
            if not assignments:
                continue
            assert mutable.update(assignments, predicate) == oracle.update(
                assignments, predicate
            )
        elif kind == "step":
            mutable.compact_step(columns=payload)
        elif kind == "compact":
            mutable.compact()
        elif kind == "pin":
            snapshot = mutable.snapshot()
            pinned.append((snapshot, snapshot.to_rows()))
        elif kind == "close_oldest" and pinned:
            snapshot, _frozen = pinned.pop(0)
            snapshot.close()
        # Invariants after every operation:
        assert sorted(mutable.to_rows()) == sorted(oracle.rows)
        assert sorted(rows_where(mutable)) == sorted(oracle.rows)
        for snapshot, frozen in pinned:
            assert snapshot.to_rows() == frozen
            assert rows_where(snapshot) == frozen
        live_generations = {s.generation for s, _ in pinned}
        assert set(mutable.retained_versions) <= live_generations
    return pinned


@settings(max_examples=50, deadline=None)
@given(
    initial=st.lists(rows, max_size=8),
    stream=operations,
)
def test_snapshots_never_move_under_dml_and_compaction(initial, stream):
    mutable = MutableTable(base_table(initial), CompactionPolicy.never())
    oracle = Oracle(initial)
    pinned = apply_stream(mutable, oracle, stream)

    # A final full compaction still never moves any pinned snapshot.
    mutable.compact()
    assert sorted(mutable.to_rows()) == sorted(oracle.rows)
    for snapshot, frozen in pinned:
        assert snapshot.to_rows() == frozen

    # Closing the last pins reclaims every retained generation.
    for snapshot, _frozen in pinned:
        snapshot.close()
    assert mutable.retained_versions == ()
    assert mutable.open_snapshots == 0


@settings(max_examples=30, deadline=None)
@given(initial=st.lists(rows, max_size=6), stream=operations)
def test_snapshot_matches_predicate_oracle(initial, stream):
    """A filtered batch read of a pinned snapshot equals filtering its
    frozen row list, whatever happened afterwards."""
    mutable = MutableTable(base_table(initial), CompactionPolicy.never())
    oracle = Oracle(initial)
    snapshot = mutable.snapshot()
    frozen = snapshot.to_rows()
    apply_stream(mutable, oracle, stream, pinned=[(snapshot, frozen)])
    if not snapshot.closed:  # the stream's close_oldest may have taken it
        predicate = Comparison("S", "=", "a")
        assert sorted(rows_where(snapshot, predicate)) == sorted(
            row for row in frozen if _matches(predicate, row)
        )
        snapshot.close()
