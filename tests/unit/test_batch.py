"""Tests for the batched column-level bitmap kernels."""

import numpy as np
import pytest

from repro.bitmap import WAHBitmap
from repro.bitmap.batch import (
    batch_concat_positions,
    batch_count,
    batch_decode_vids,
    batch_first_set,
    batch_from_positions,
    batch_positions,
    batch_select,
    batch_split,
)
from repro.errors import BitmapError, StorageError


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
        assert batch_count(bitmaps).tolist() == [
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

    def test_empty_list(self):
        assert batch_count([]).tolist() == []
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
        assert built([], 100) == []

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
    equal the per-bitmap ``select`` / ``concat`` they batch."""

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
            assert_same_bitmaps(filtered, [bm.select(picks) for bm in bitmaps])
            assert counts.tolist() == [bm.count() for bm in filtered]

    def test_select_of_empty_column(self):
        filtered, counts = batch_select([WAHBitmap.zeros(0)], np.empty(0, int))
        assert filtered == [WAHBitmap.zeros(0)] and counts.tolist() == [0]
        assert batch_select([], np.array([1]))[0] == []

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
            assert_same_bitmaps([bitmap], [left_bm.concat(right_bm)])

    def test_concat_empty_sides(self):
        left = column_bitmaps(np.array([0, 1, 0]), 2)
        assert_same_bitmaps(
            batch_concat_positions(left, [], [], 3, 0), left
        )
        assert_same_bitmaps(
            batch_concat_positions([], left, [0, 1], 0, 3), left
        )
