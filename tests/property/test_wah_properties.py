"""Property-based tests (hypothesis) for the WAH codec.

Invariants: round-trips against dense truth, identity
with the pure-Python reference encoder, and agreement of every
structural/logical operation with its NumPy-on-dense counterpart.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitmap import WAHBitmap
from repro.bitmap.batch import (
    batch_concat_positions,
    batch_from_positions,
    batch_positions,
    batch_select,
)
from repro.bitmap.reference import encode_reference

bit_arrays = st.lists(st.booleans(), min_size=0, max_size=600).map(
    lambda bits: np.array(bits, dtype=bool)
)

# Run-structured arrays stress the fill paths.
run_arrays = st.lists(
    st.tuples(st.booleans(), st.integers(min_value=1, max_value=120)),
    min_size=0,
    max_size=12,
).map(
    lambda runs: np.concatenate(
        [np.full(length, value, dtype=bool) for value, length in runs]
    )
    if runs
    else np.zeros(0, dtype=bool)
)

any_bits = st.one_of(bit_arrays, run_arrays)


def intervals_of(bits):
    """The maximal ``[start, end)`` runs of set bits of ``bits``."""
    edges = np.diff(np.concatenate(([0], bits.astype(np.int8), [0])))
    return np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)


@given(any_bits)
def test_dense_roundtrip(bits):
    assert np.array_equal(WAHBitmap.from_dense(bits).to_dense(), bits)


@given(any_bits)
def test_matches_reference_encoder(bits):
    bm = WAHBitmap.from_dense(bits)
    assert [int(w) for w in bm.words] == encode_reference(bits.tolist())


@given(any_bits)
def test_positions_roundtrip(bits):
    bm = WAHBitmap.from_dense(bits)
    positions = bm.positions()
    assert np.array_equal(positions, np.flatnonzero(bits))
    assert WAHBitmap.from_positions(positions, len(bits)) == bm


@given(any_bits)
def test_intervals_roundtrip(bits):
    bm = WAHBitmap.from_dense(bits)
    starts, ends = intervals_of(bits)
    assert WAHBitmap.from_intervals(starts, ends, len(bits)) == bm


@given(any_bits)
def test_count_and_first_set(bits):
    bm = WAHBitmap.from_dense(bits)
    assert bm.count() == int(bits.sum())
    expected_first = int(np.argmax(bits)) if bits.any() else -1
    assert bm.first_set() == expected_first


@given(any_bits, st.randoms(use_true_random=False))
def test_select_matches_fancy_indexing(bits, rnd):
    bm = WAHBitmap.from_dense(bits)
    n = len(bits)
    k = rnd.randint(0, n) if n else 0
    picks = np.array(sorted(rnd.sample(range(n), k)), dtype=np.int64)
    [selected], _ = batch_select([bm], picks)
    assert np.array_equal(selected.to_dense(), bits[picks])


@given(any_bits, any_bits)
def test_concat_matches_numpy(left, right):
    a = WAHBitmap.from_dense(left)
    b = WAHBitmap.from_dense(right)
    [combined] = batch_concat_positions([a], [b], [0], len(left), len(right))
    assert np.array_equal(
        combined.to_dense(), np.concatenate([left, right])
    )


def patterns_of(nbits):
    """An ``nbits``-bit pattern: all zero, all one, random or runs."""
    return st.one_of(
        st.just(np.zeros(nbits, dtype=bool)),
        st.just(np.ones(nbits, dtype=bool)),
        any_bits.map(
            lambda bits: np.resize(bits, nbits)
            if len(bits) else np.zeros(nbits, dtype=bool)
        ),
    )


# Lengths at a multiple of 31 and one either side, and anything else.
edge_sizes = st.one_of(
    st.sampled_from([0, 1, 30, 31, 32, 61, 62, 63, 92, 93, 94, 154, 155, 156]),
    st.integers(0, 400),
)


@settings(max_examples=300)
@given(
    edge_sizes.flatmap(
        lambda nbits: st.tuples(
            patterns_of(nbits), patterns_of(nbits),
            st.randoms(use_true_random=False),
        )
    )
)
def test_every_constructor_writes_the_reference_words(case):
    """Every constructor's words are ``encode_reference`` of its dense
    bits: they all write through the one run encoder."""
    bits, other, rnd = case
    nbits = len(bits)

    def check(bitmap, dense):
        assert bitmap.nbits == nbits
        assert bitmap.words.tolist() == encode_reference(dense.tolist())
        assert bitmap.count() == int(dense.sum())

    check(WAHBitmap.from_dense(bits), bits)
    check(WAHBitmap.from_positions(np.flatnonzero(bits), nbits), bits)
    check(WAHBitmap.zeros(nbits), np.zeros(nbits, dtype=bool))
    check(WAHBitmap.ones(nbits), np.ones(nbits, dtype=bool))
    # Cutting runs in two gives touching intervals, and more of them
    # sharing a group.
    starts, ends = intervals_of(bits)
    cuts = [
        rnd.randint(start + 1, end - 1)
        for start, end in zip(starts.tolist(), ends.tolist())
        if end - start > 1 and rnd.random() < 0.5
    ]
    starts = np.sort(np.concatenate((starts, cuts)).astype(np.int64))
    ends = np.sort(np.concatenate((ends, cuts)).astype(np.int64))
    check(WAHBitmap.from_intervals(starts, ends, nbits), bits)

    a, b = WAHBitmap.from_dense(bits), WAHBitmap.from_dense(other)
    check(a & b, bits & other)
    check(a | b, bits | other)
    check(a ^ b, bits ^ other)
    check(a.invert(), ~bits)
    segments = [bits, other, np.zeros(nbits, bool), np.ones(nbits, bool)]
    flat = np.concatenate([np.flatnonzero(s) for s in segments])
    bounds = np.cumsum([0] + [int(s.sum()) for s in segments])
    for bitmap, dense in zip(
        batch_from_positions(flat, bounds, nbits), segments
    ):
        check(bitmap, dense)


@given(st.integers(1, 400), st.integers(0, 10 ** 9))
def test_logical_ops_match_numpy(n, seed):
    rng = np.random.default_rng(seed)
    x = rng.random(n) < 0.5
    y = rng.random(n) < 0.5
    a, b = WAHBitmap.from_dense(x), WAHBitmap.from_dense(y)
    assert np.array_equal((a & b).to_dense(), x & y)
    assert np.array_equal((a | b).to_dense(), x | y)
    assert np.array_equal((a ^ b).to_dense(), x ^ y)
    assert np.array_equal(a.invert().to_dense(), ~x)


@given(any_bits)
def test_serialization_roundtrip(bits):
    bm = WAHBitmap.from_dense(bits)
    assert WAHBitmap.from_bytes(bm.to_bytes()) == bm


@settings(max_examples=40)
@given(
    st.lists(
        st.integers(min_value=0, max_value=5_000),
        min_size=0,
        max_size=50,
        unique=True,
    ).map(sorted)
)
def test_sparse_positions_independent_of_nbits(positions):
    """Compressed size depends on structure, not on nbits."""
    positions = np.array(positions, dtype=np.int64)
    small = WAHBitmap.from_positions(positions, 5_001)
    large = WAHBitmap.from_positions(positions, 50_000_000)
    assert np.array_equal(small.positions(), large.positions())
    # Tail padding adds at most a couple of words.
    assert large.word_count <= small.word_count + 2


@given(
    st.integers(min_value=0, max_value=330).flatmap(
        lambda nbits: st.tuples(
            st.just(nbits),
            st.lists(
                # A segment is any bit pattern of that length: random
                # bits, or runs (full groups, all ones, empty).
                any_bits.map(
                    lambda bits: np.flatnonzero(np.resize(bits, nbits))
                    if len(bits) else np.empty(0, dtype=np.int64)
                ),
                max_size=6,
            ),
        )
    )
)
def test_batched_constructor_equals_per_segment_constructor(case):
    """``batch_from_positions`` is ``WAHBitmap.from_positions`` applied
    to every segment: same words, same length, same count."""
    nbits, segments = case
    flat = np.concatenate(segments + [np.empty(0, dtype=np.int64)])
    bounds = np.cumsum([0] + [len(s) for s in segments])
    bitmaps = batch_from_positions(flat, bounds, nbits)
    assert len(bitmaps) == len(segments)
    for bitmap, segment in zip(bitmaps, segments):
        reference = WAHBitmap.from_positions(segment, nbits)
        assert bitmap.words.tolist() == reference.words.tolist()
        assert bitmap.nbits == reference.nbits == nbits
        assert bitmap.count() == reference.count() == len(segment)


def bitmaps_of(nbits):
    """Up to five ``nbits``-bit bitmaps: all-zero, all-one, random or
    run-shaped."""
    pattern = st.one_of(
        st.just(np.zeros(nbits, dtype=bool)),
        st.just(np.ones(nbits, dtype=bool)),
        any_bits.map(
            lambda bits: np.resize(bits, nbits)
            if len(bits) else np.zeros(nbits, dtype=bool)
        ),
    )
    return st.lists(pattern.map(WAHBitmap.from_dense), max_size=5)


# Left sizes on and off a group boundary, zero-length sides included.
side_sizes = st.one_of(st.sampled_from([0, 31, 62, 93]), st.integers(0, 160))


@settings(max_examples=300)
@given(
    st.tuples(side_sizes, side_sizes).flatmap(
        lambda sizes: st.tuples(
            st.just(sizes),
            bitmaps_of(sizes[0]),
            bitmaps_of(sizes[1]),
            st.randoms(use_true_random=False),
        )
    )
)
def test_batched_concat_equals_constructor_of_concatenated_positions(case):
    """``batch_concat_positions`` splices the left words and rebuilds the
    rest; the result is ``WAHBitmap.from_positions`` of the concatenated
    positions, word for word and count for count — right values landing
    on left values, on none, and beyond the left dictionary."""
    (left_nbits, right_nbits), left, right, rnd = case
    target = rnd.sample(range(len(left) + len(right) + 2), len(right))
    nbits = left_nbits + right_nbits
    merged = batch_concat_positions(
        left, right, target, left_nbits, right_nbits
    )
    assert len(merged) == max([len(left)] + [t + 1 for t in target])
    for vid, bitmap in enumerate(merged):
        parts = [np.empty(0, dtype=np.int64)]
        if vid < len(left):
            parts.append(left[vid].positions())
        if vid in target:
            parts.append(right[target.index(vid)].positions() + left_nbits)
        reference = WAHBitmap.from_positions(np.concatenate(parts), nbits)
        assert bitmap.nbits == nbits
        assert bitmap.words.tolist() == reference.words.tolist()
        assert bitmap.count() == reference.count()


@given(st.integers(0, 200).flatmap(bitmaps_of))
def test_batch_positions_equals_dense_flatnonzero(bitmaps):
    flat, bounds = batch_positions(bitmaps)
    assert len(bounds) == len(bitmaps) + 1 and bounds[0] == 0
    for index, bitmap in enumerate(bitmaps):
        assert np.array_equal(
            flat[bounds[index]:bounds[index + 1]],
            np.flatnonzero(bitmap.to_dense()),
        )
