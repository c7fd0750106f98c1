"""Property-based stress of the B+-tree against a dict-of-lists oracle."""

from collections import defaultdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rowstore import BPlusTree

operations = st.lists(
    st.tuples(st.integers(0, 40), st.integers(0, 10 ** 6)),
    min_size=0,
    max_size=300,
)


@settings(max_examples=50, deadline=None)
@given(operations, st.sampled_from([4, 8, 64]))
def test_insert_search_matches_oracle(pairs, order):
    tree = BPlusTree(order=order)
    oracle = defaultdict(list)
    for key, row_id in pairs:
        tree.insert(key, row_id)
        oracle[key].append(row_id)
    assert len(tree) == len(pairs)
    for key in range(41):
        assert sorted(tree.search(key)) == sorted(oracle.get(key, []))
    assert tree.keys() == sorted(oracle)


@settings(max_examples=50, deadline=None)
@given(operations, st.sampled_from([4, 16]))
def test_bulk_load_matches_oracle(pairs, order):
    tree = BPlusTree.bulk_load(pairs, order=order)
    oracle = defaultdict(list)
    for key, row_id in pairs:
        oracle[key].append(row_id)
    for key in oracle:
        assert sorted(tree.search(key)) == sorted(oracle[key])
    assert tree.keys() == sorted(oracle)
