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
    PackedBitmaps,
    batch_concat_positions,
    batch_decode_vids,
    batch_first_set,
    batch_from_intervals,
    batch_from_positions,
    batch_positions,
    batch_select,
    batch_split,
)
from tests.harness.wah_reference import decode_reference, encode_reference

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


def reference_positions(bitmap):
    """The set bits of ``bitmap`` as the reference decoder reads its
    words."""
    bits = decode_reference(bitmap.words.tolist(), bitmap.nbits)
    return [index for index, bit in enumerate(bits) if bit]


@settings(max_examples=200)
@given(
    st.sampled_from([0, 1, 30, 31, 32, 61, 62, 63]).flatmap(
        lambda nbits: st.tuples(
            bitmaps_of(nbits),
            st.lists(st.integers(0, 3), min_size=nbits, max_size=nbits),
        )
    )
)
def test_column_extraction_matches_the_reference_decoder(case):
    """The column-wide extraction kernel reads what the reference
    decoder reads: every bitmap's positions, first set bits and one
    value's ``positions()``, over one-fills, all-zero bitmaps and zero
    segments; and a column's row-order vids."""
    bitmaps, vids = case
    want = [reference_positions(bitmap) for bitmap in bitmaps]
    flat, bounds = batch_positions(bitmaps)
    assert bounds.tolist() == np.cumsum([0] + [len(p) for p in want]).tolist()
    for bitmap, low, high, positions in zip(
        bitmaps, bounds, bounds[1:], want
    ):
        assert flat[low:high].tolist() == positions
        assert bitmap.positions().tolist() == positions
    assert batch_first_set(bitmaps).tolist() == [
        positions[0] if positions else -1 for positions in want
    ]

    vids = np.array(vids, dtype=np.int64)
    column = [
        WAHBitmap.from_positions(np.flatnonzero(vids == vid), len(vids))
        for vid in range(4)
    ]
    decoded = np.full(len(vids), -1)
    for vid, bitmap in enumerate(column):
        decoded[reference_positions(bitmap)] = vid
    assert batch_decode_vids(column, len(vids)).tolist() == decoded.tolist()
    assert decoded.tolist() == vids.tolist()


# Column lengths on, one below and one above a group boundary.
column_sizes = st.one_of(
    st.sampled_from([0, 1, 30, 31, 32, 61, 62, 63, 92, 93, 94]),
    st.integers(0, 200),
)


@settings(max_examples=200)
@given(
    column_sizes.flatmap(
        lambda nbits: st.tuples(
            bitmaps_of(nbits), st.randoms(use_true_random=False)
        )
    )
)
def test_every_packed_kernel_writes_the_per_bitmap_words(case):
    """Each kernel over a packed column — pack, take, select, split,
    counts, first set bits, intervals and the ``.cods`` blocks — writes
    exactly the words, counts and bytes the per-bitmap path writes, on
    empty columns and zero segments too."""
    import struct

    bitmaps, rnd = case
    nbits = bitmaps[0].nbits if bitmaps else rnd.choice([0, 31, 32])
    packed = PackedBitmaps.pack(bitmaps, nbits)
    dense = [bitmap.to_dense() for bitmap in bitmaps]

    def same(got, want):
        assert isinstance(got, PackedBitmaps)
        assert got.offsets[0] == 0 and got.offsets[-1] == len(got.words)
        assert len(got) == len(want)
        for view, bitmap in zip(got, want):
            assert view.nbits == bitmap.nbits
            assert view.words.tolist() == bitmap.words.tolist()
            assert view.count() == bitmap.count()

    same(packed, bitmaps)
    assert packed.counts.tolist() == [bm.count() for bm in bitmaps]
    assert batch_first_set(packed).tolist() == [
        bm.first_set() for bm in bitmaps
    ]
    picks = [rnd.randrange(len(bitmaps)) for _ in range(rnd.randrange(4))
             if bitmaps]
    same(packed.take(picks), [bitmaps[i] for i in picks])

    mask = np.array([rnd.random() < 0.4 for _ in range(nbits)], dtype=bool)
    selected, counts = batch_select(packed, np.flatnonzero(mask))
    same(selected, [WAHBitmap.from_dense(bits[mask]) for bits in dense])
    assert counts.tolist() == selected.counts.tolist()
    (true, _), (false, _) = batch_split(packed, mask)
    same(true, [WAHBitmap.from_dense(bits[mask]) for bits in dense])
    same(false, [WAHBitmap.from_dense(bits[~mask]) for bits in dense])

    runs = [intervals_of(bits) for bits in dense]
    same(
        batch_from_intervals(
            np.concatenate([lo for lo, _ in runs] + [[]]),
            np.concatenate([hi for _, hi in runs] + [[]]),
            np.cumsum([0] + [len(lo) for lo, _ in runs]),
            nbits,
        ),
        bitmaps,
    )

    blocks = packed.to_blocks()
    assert blocks == b"".join(
        struct.pack("<I", len(data)) + data
        for data in (bitmap.to_bytes() for bitmap in bitmaps)
    )
    loaded, end = PackedBitmaps.from_blocks(
        b"x" + blocks, 1, len(bitmaps), nbits
    )
    same(loaded, bitmaps)
    assert end == 1 + len(blocks)
