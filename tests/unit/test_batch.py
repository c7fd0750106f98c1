"""Tests for the batched column-level bitmap kernels."""

import numpy as np
import pytest

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
from repro.bitmap.wah import ONE_FILL_FLAG
from repro.errors import BitmapError, StorageError
from tests.harness.wah_reference import decode_reference


def column_bitmaps(vids: np.ndarray, cardinality: int):
    n = len(vids)
    return [
        WAHBitmap.from_positions(np.flatnonzero(vids == v), n)
        for v in range(cardinality)
    ]


@pytest.fixture
def random_column():
    rng = np.random.default_rng(5)
    vids = rng.integers(0, 8, 300)
    vids[:8] = np.arange(8)
    return vids, column_bitmaps(vids, 8)


class TestBatchEquivalence:
    """Batched kernels must agree with per-bitmap methods exactly."""

    def test_count(self, random_column):
        _vids, bitmaps = random_column
        assert PackedBitmaps.pack(bitmaps).counts.tolist() == [
            bm.count() for bm in bitmaps
        ]

    def test_first_set(self, random_column):
        _vids, bitmaps = random_column
        assert batch_first_set(bitmaps).tolist() == [
            bm.first_set() for bm in bitmaps
        ]

    def test_first_set_with_empty_bitmap(self):
        bitmaps = [WAHBitmap.zeros(50), WAHBitmap.from_positions([7], 50)]
        assert batch_first_set(bitmaps).tolist() == [-1, 7]

    def test_positions(self, random_column):
        _vids, bitmaps = random_column
        flat, boundaries = batch_positions(bitmaps)
        for index, bm in enumerate(bitmaps):
            got = flat[boundaries[index] : boundaries[index + 1]]
            assert np.array_equal(got, bm.positions())

    def test_decode_vids(self, random_column):
        vids, bitmaps = random_column
        assert np.array_equal(batch_decode_vids(bitmaps, len(vids)), vids)

    def test_decode_vids_coverage_check(self):
        bitmaps = [WAHBitmap.from_positions([0], 3)]  # rows 1,2 uncovered
        with pytest.raises(StorageError):
            batch_decode_vids(bitmaps, 3)

    def test_column_wide_positions_past_two_to_the_31(self):
        """2 200 bitmaps of 1 000 003 bits put the last ones' bits past
        2**31 in column-wide position space; a one-fill is among them."""
        nrows, nvalues = 1_000_003, 2_200
        rng = np.random.default_rng(31)
        vids = rng.integers(0, nvalues, nrows)
        vids[:10_000] = nvalues - 1
        vids[-nvalues:] = np.arange(nvalues)
        order = np.argsort(vids, kind="stable")
        bounds = np.cumsum([0, *np.bincount(vids)])
        column = batch_from_positions(order, bounds, nrows)
        assert nvalues * -(-nrows // 31) * 31 > 2**31
        assert np.array_equal(batch_decode_vids(column, nrows), vids)
        flat, boundaries = batch_positions(column)
        assert np.array_equal(flat, order)
        assert np.array_equal(boundaries, bounds)
        assert np.array_equal(batch_first_set(column), order[bounds[:-1]])
        last = column[nvalues - 1]
        assert last.words[0] == ONE_FILL_FLAG | (10_000 // 31)
        bits = decode_reference(last.words.tolist(), nrows)
        assert last.positions().tolist() == [
            row for row, bit in enumerate(bits) if bit
        ]

    def test_empty_list(self):
        assert PackedBitmaps.pack([]).counts.tolist() == []
        assert batch_first_set([]).tolist() == []
        flat, bounds = batch_positions([])
        assert len(flat) == 0 and bounds.tolist() == [0]


def assert_same_bitmaps(got, want):
    """Word-for-word equality, not just the same bits."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.nbits == w.nbits
        assert g.words.tolist() == w.words.tolist()
        assert g.count() == w.count()


def built(segments, nbits):
    """``batch_from_positions`` on ``segments`` after checking it
    against the per-segment constructor it replaces."""
    flat = np.concatenate([np.asarray(s, dtype=np.int64) for s in segments]
                          + [np.empty(0, dtype=np.int64)])
    bounds = np.cumsum([0] + [len(s) for s in segments])
    bitmaps = batch_from_positions(flat, bounds, nbits)
    assert_same_bitmaps(
        bitmaps, [WAHBitmap.from_positions(s, nbits) for s in segments]
    )
    return bitmaps


class TestBatchFromPositions:
    """The batched constructor equals ``WAHBitmap.from_positions`` per
    segment, word for word — the loop it replaced is the reference."""

    def test_zero_segments(self):
        assert list(built([], 100)) == []

    def test_empty_segments_are_zero_bitmaps(self):
        for nbits in (1, 31, 32, 62, 100):
            bitmaps = built([[], [nbits - 1], []], nbits)
            assert bitmaps[0] == WAHBitmap.zeros(nbits)
            assert bitmaps[2].count() == 0

    def test_zero_bits(self):
        bitmaps = built([[], []], 0)
        assert [bm.word_count for bm in bitmaps] == [0, 0]

    @pytest.mark.parametrize("nbits", [31, 62, 310, 32, 63, 100, 311])
    def test_whole_and_partial_last_group(self, nbits):
        built([[0], [nbits - 1], [0, nbits - 1], [nbits // 2]], nbits)

    @pytest.mark.parametrize("nbits", [31, 93, 40, 100])
    def test_all_ones_segment(self, nbits):
        ones, _ = built([np.arange(nbits), [0]], nbits)
        assert ones == WAHBitmap.ones(nbits)

    def test_full_groups_merge_into_one_fill(self):
        # Groups 1..3 full, group 5 full on its own, in both segments;
        # the second segment's run must not fuse with the first's.
        ones = np.concatenate((np.arange(31, 124), np.arange(155, 186)))
        bitmaps = built([ones, ones, np.arange(0, 62)], 250)
        assert bitmaps[1].words.tolist() == [
            0x80000001, 0xC0000003, 0x80000001, 0xC0000001, 0x80000002, 0,
        ]
        assert bitmaps[2].words[0] == 0xC0000002

    @pytest.mark.parametrize("n", [1, 31, 32, 62, 63, 100, 1000])
    def test_unit_bitmaps(self, n):
        """One position per segment: DECOMPOSE's key column."""
        positions = sorted({0, 1, n // 2, n - 1} & set(range(n)))
        bitmaps = built([[p] for p in positions], n)
        assert [bm.first_set() for bm in bitmaps] == positions
        assert all(bm.count() == 1 and bm.word_count <= 4 for bm in bitmaps)

    def test_bit_in_partial_tail_group(self):
        bitmaps = built([[99], [93, 99], [0, 62, 95]], 100)
        assert bitmaps[0].positions().tolist() == [99]

    def test_counts_come_from_bounds(self):
        bitmaps = built([[1, 2, 3], [], [5]], 40)
        assert [bm._count for bm in bitmaps] == [3, 0, 1]

    def test_int32_and_int64_positions_agree(self):
        positions = np.array([3, 64, 65, 200], dtype=np.int32)
        (narrow,) = batch_from_positions(positions, [0, 4], 300)
        (wide,) = batch_from_positions(positions.astype(np.int64), [0, 4], 300)
        assert narrow == wide

    def test_bad_positions_rejected(self):
        with pytest.raises(BitmapError):
            batch_from_positions([5], [0, 1], 5)
        with pytest.raises(BitmapError):
            batch_from_positions([-1], [0, 1], 5)
        with pytest.raises(BitmapError):
            batch_from_positions([2, 2], [0, 2], 5)
        with pytest.raises(BitmapError):
            batch_from_positions([3, 1], [0, 2], 5)
        # ...while a drop across a segment boundary is fine.
        batch_from_positions([3, 1], [0, 1, 2], 5)


class TestBatchFilterAndConcat:
    """``batch_select`` / ``batch_split`` / ``batch_concat_positions``
    equal filtering and concatenating each bitmap's dense bits."""

    def test_select(self, random_column):
        _vids, bitmaps = random_column
        rng = np.random.default_rng(8)
        for picks in (
            np.flatnonzero(rng.random(300) < 0.3),
            np.arange(300),
            np.array([299]),
            np.empty(0, dtype=np.int64),
        ):
            filtered, counts = batch_select(bitmaps, picks)
            assert_same_bitmaps(filtered, [
                WAHBitmap.from_dense(bm.to_dense()[picks]) for bm in bitmaps
            ])
            assert counts.tolist() == [bm.count() for bm in filtered]

    def test_select_of_empty_column(self):
        filtered, counts = batch_select([WAHBitmap.zeros(0)], np.empty(0, int))
        assert list(filtered) == [WAHBitmap.zeros(0)]
        assert counts.tolist() == [0]
        assert list(batch_select([], np.array([1]))[0]) == []

    def test_split_is_select_both_ways(self, random_column):
        _vids, bitmaps = random_column
        mask = np.random.default_rng(9).random(300) < 0.4
        for which in (mask, np.zeros(300, bool), np.ones(300, bool)):
            (true, true_counts), (false, false_counts) = batch_split(
                bitmaps, which
            )
            want_true, want_counts = batch_select(
                bitmaps, np.flatnonzero(which)
            )
            assert_same_bitmaps(true, want_true)
            assert true_counts.tolist() == want_counts.tolist()
            assert_same_bitmaps(
                false, batch_select(bitmaps, np.flatnonzero(~which))[0]
            )
            assert (true_counts + false_counts).tolist() == [
                bm.count() for bm in bitmaps
            ]

    def test_concat_with_values_on_one_side_only(self, random_column):
        _vids, left = random_column  # 8 values over 300 rows
        right_vids = np.random.default_rng(10).integers(0, 4, 120)
        right = column_bitmaps(right_vids, 4)
        # right 0 -> shared value 5, right 1 -> new value 9, right 2 ->
        # shared value 0, right 3 -> new value 8; values 1-4, 6, 7 are
        # left-only.
        target = [5, 9, 0, 8]
        merged = batch_concat_positions(left, right, target, 300, 120)
        assert len(merged) == 10
        for vid, bitmap in enumerate(merged):
            left_bm = left[vid] if vid < 8 else WAHBitmap.zeros(300)
            right_bm = (
                right[target.index(vid)] if vid in target
                else WAHBitmap.zeros(120)
            )
            assert_same_bitmaps([bitmap], [WAHBitmap.from_dense(
                np.concatenate((left_bm.to_dense(), right_bm.to_dense()))
            )])

    def test_concat_empty_sides(self):
        left = column_bitmaps(np.array([0, 1, 0]), 2)
        assert_same_bitmaps(
            batch_concat_positions(left, [], [], 3, 0), left
        )
        assert_same_bitmaps(
            batch_concat_positions([], left, [0, 1], 0, 3), left
        )


class TestPackedBitmaps:
    """A column's bitmaps live in one word buffer; the sequence hands
    out views over it and the kernels read and write it whole."""

    def packed(self):
        vids = np.array([0, 1, 0, 2, 2, 2, 1, 0] * 9)
        order = np.argsort(vids, kind="stable")
        bounds = np.concatenate(([0], np.cumsum(np.bincount(vids))))
        return vids, batch_from_positions(order, bounds, len(vids))

    def test_views_share_the_buffer(self):
        vids, packed = self.packed()
        assert isinstance(packed, PackedBitmaps) and len(packed) == 3
        assert packed.words.dtype == np.uint32
        assert packed.offsets.tolist()[0] == 0
        assert packed.offsets[-1] == len(packed.words)
        for vid, view in enumerate(packed):
            assert np.shares_memory(view.words, packed.words)
            assert view.positions().tolist() == np.flatnonzero(
                vids == vid
            ).tolist()
            assert view.count() == packed.counts[vid]
        assert packed[-1] == packed[2]
        assert packed[1:] == [packed[1], packed[2]]
        with pytest.raises(IndexError):
            packed[3]
        with pytest.raises(TypeError):
            packed[0] = packed[1]

    def test_pack_of_views_and_take(self):
        _vids, packed = self.packed()
        repacked = PackedBitmaps.pack(list(packed))
        assert repacked.words.tolist() == packed.words.tolist()
        assert repacked.offsets.tolist() == packed.offsets.tolist()
        assert repacked.counts.tolist() == packed.counts.tolist()
        assert PackedBitmaps.pack(packed) is packed
        taken = packed.take([2, 0])
        assert_same_bitmaps(taken, [packed[2], packed[0]])
        assert len(packed.take([])) == 0

    def test_pack_rejects_mixed_lengths(self):
        with pytest.raises(BitmapError, match="bits"):
            PackedBitmaps.pack([WAHBitmap.zeros(4), WAHBitmap.zeros(5)])
        _vids, packed = self.packed()
        with pytest.raises(BitmapError, match="bits"):
            PackedBitmaps.pack(packed, packed.nbits + 1)

    def test_zeros(self):
        for nbits in (0, 1, 31, 32, 100):
            zeros = PackedBitmaps.zeros(3, nbits)
            assert_same_bitmaps(zeros, [WAHBitmap.zeros(nbits)] * 3)

    def test_blocks_are_the_per_bitmap_bytes(self):
        """A column's stored blocks come out of its buffer in one pass,
        byte for byte what ``to_bytes`` writes per bitmap — a bit count
        past 2**32 included — and read back into the same buffer."""
        import struct

        _vids, column = self.packed()
        for packed in (PackedBitmaps.zeros(3, 2**32 + 5), column):
            blocks = packed.to_blocks()
            assert blocks == b"".join(
                struct.pack("<I", len(data)) + data
                for data in (bitmap.to_bytes() for bitmap in packed)
            )
            loaded, end = PackedBitmaps.from_blocks(
                blocks, 0, len(packed), packed.nbits
            )
            assert end == len(blocks)
            assert loaded.words.tolist() == packed.words.tolist()
            assert loaded.offsets.tolist() == packed.offsets.tolist()
            assert loaded.counts.tolist() == packed.counts.tolist()

    def test_column_rejects_a_bitmap_of_the_wrong_length(self):
        from repro.storage import BitmapColumn, DataType, Dictionary

        with pytest.raises(StorageError, match="'c'.*bits"):
            BitmapColumn(
                "c", DataType.INT, Dictionary([1, 2]),
                [WAHBitmap.ones(3), WAHBitmap.zeros(4)], 3,
            )


class TestBatchFromIntervals:
    def test_equals_per_segment_constructor(self):
        segments = [([0, 40], [31, 100]), ([], []), ([5, 7], [7, 9]),
                    ([0], [124])]
        starts = [s for lo, _ in segments for s in lo]
        ends = [e for _, hi in segments for e in hi]
        bounds = np.cumsum([0] + [len(lo) for lo, _ in segments])
        for nbits in (124, 125, 155):
            packed = batch_from_intervals(starts, ends, bounds, nbits)
            want = []
            for lo, hi in segments:
                dense = np.zeros(nbits, dtype=bool)
                for a, b in zip(lo, hi):
                    dense[a:b] = True
                want.append(WAHBitmap.from_dense(dense))
            assert_same_bitmaps(packed, want)

    def test_overlap_only_within_a_segment_is_rejected(self):
        # 10..20 then 5..8 is fine across a segment boundary...
        batch_from_intervals([10, 5], [20, 8], [0, 1, 2], 40)
        # ...and rejected within one.
        with pytest.raises(BitmapError):
            batch_from_intervals([10, 5], [20, 8], [0, 2], 40)
