"""Property-based tests for bitmap columns, FDs and the SMO parser."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import LosslessJoinError
from repro.fd import FunctionalDependency, check_lossless, closure
from repro.smo import parse_smo
from repro.storage import BitmapColumn, DataType
from tests.harness.chase import chase_lossless

vid_arrays = st.lists(
    st.integers(min_value=0, max_value=6), min_size=0, max_size=120
).map(lambda xs: np.array(xs, dtype=np.int64))


class TestColumnProperties:
    @given(vid_arrays)
    def test_values_roundtrip(self, vids):
        column = BitmapColumn.from_values(
            "c", DataType.INT, vids.tolist()
        )
        assert column.to_values() == vids.tolist()

    @given(vid_arrays)
    def test_counts_sum_to_rows(self, vids):
        column = BitmapColumn.from_values("c", DataType.INT, vids.tolist())
        assert int(column.value_counts().sum()) == len(vids)

    @given(vid_arrays, st.randoms(use_true_random=False))
    def test_select_matches_fancy_indexing(self, vids, rnd):
        column = BitmapColumn.from_values("c", DataType.INT, vids.tolist())
        n = len(vids)
        k = rnd.randint(0, n) if n else 0
        picks = np.array(sorted(rnd.sample(range(n), k)), dtype=np.int64)
        assert column.select(picks).to_values() == vids[picks].tolist()


attrs = st.sets(st.sampled_from("ABCDE"), min_size=1, max_size=5)
fds = st.lists(
    st.tuples(attrs, attrs).map(
        lambda pair: FunctionalDependency(
            frozenset(pair[0]), frozenset(pair[1])
        )
    ),
    min_size=0,
    max_size=6,
)


@st.composite
def binary_decompositions(draw):
    """``(universe, left, right, fds)``: a relation of at most five
    attributes, two non-empty sides covering it, and FDs over it whose
    left-hand sides are often drawn from the shared attributes, where
    they decide the split."""
    universe = sorted(draw(attrs))
    sides = draw(st.lists(
        st.sampled_from(("left", "right", "both")),
        min_size=len(universe), max_size=len(universe),
    ))
    left = {attr for attr, side in zip(universe, sides) if side != "right"}
    right = {attr for attr, side in zip(universe, sides) if side != "left"}
    assume(left and right)
    subset = st.sets(st.sampled_from(universe), min_size=1)
    shared = st.sets(st.sampled_from(sorted(left & right or universe)),
                     min_size=1)
    dependencies = draw(st.lists(
        st.tuples(st.one_of(shared, subset), subset).map(
            lambda pair: FunctionalDependency(
                frozenset(pair[0]), frozenset(pair[1])
            )
        ),
        max_size=6,
    ))
    return universe, left, right, dependencies


class TestFdProperties:
    @settings(max_examples=300)
    @given(binary_decompositions())
    def test_check_lossless_accepts_what_the_chase_calls_lossless(
        self, case
    ):
        universe, left, right, dependencies = case
        try:
            check_lossless(universe, left, right, dependencies)
            accepted = True
        except LosslessJoinError:
            accepted = False
        assert accepted == chase_lossless(
            universe, [left, right], dependencies
        )

    @given(attrs, fds)
    def test_closure_is_monotone_and_idempotent(self, start, dependencies):
        first = closure(start, dependencies)
        assert frozenset(start) <= first
        assert closure(first, dependencies) == first


identifiers = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,8}", fullmatch=True).filter(
    lambda s: s.upper() not in {
        "KEY", "IN", "TO", "ON", "AND", "OR", "NOT", "TABLE", "TABLES",
        "INTO", "FROM", "WHERE", "DEFAULT", "DROP", "ADD", "RENAME", "COPY",
        "UNION", "MERGE", "CREATE", "DECOMPOSE", "PARTITION", "COLUMN",
        "TRUE", "FALSE", "NULL",
    }
)


class TestParserProperties:
    @given(identifiers, identifiers)
    def test_rename_roundtrip(self, old, new):
        op = parse_smo(f"RENAME TABLE {old} TO {new}")
        assert parse_smo(op.describe()) == op

    @given(identifiers, identifiers, identifiers)
    def test_union_roundtrip(self, a, b, c):
        op = parse_smo(f"UNION TABLES {a}, {b} INTO {c}")
        assert parse_smo(op.describe()) == op

    @given(st.integers(-10**6, 10**6))
    def test_numeric_literals(self, value):
        op = parse_smo(f"PARTITION TABLE R INTO A, B WHERE x = {value}")
        assert op.predicate.value == value

    @given(st.text(alphabet=st.characters(
        blacklist_characters="'", min_codepoint=32, max_codepoint=126,
    ), max_size=15))
    def test_string_literals(self, text):
        op = parse_smo(f"PARTITION TABLE R INTO A, B WHERE x = '{text}'")
        assert op.predicate.value == text
