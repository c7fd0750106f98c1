"""Unit tests for the WAH codec (repro.bitmap.wah)."""

import numpy as np
import pytest

from repro.bitmap import GROUP_BITS, WAHBitmap
from repro.bitmap.batch import batch_concat_positions, batch_select
from tests.harness.wah_reference import decode_reference, encode_reference
from repro.bitmap.wah import FILL_FLAG, MAX_FILL_GROUPS, ONE_FILL_FLAG
from repro.errors import BitmapError, SerializationError


def bits_of(*positions, n):
    dense = np.zeros(n, dtype=bool)
    for p in positions:
        dense[p] = True
    return dense


def intervals_of(dense):
    """The maximal ``[start, end)`` runs of set bits of ``dense``."""
    edges = np.diff(np.concatenate(([0], dense.astype(np.int8), [0])))
    return np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)


class TestConstruction:
    def test_empty(self):
        bm = WAHBitmap.from_dense([])
        assert bm.nbits == 0
        assert bm.count() == 0
        assert bm.word_count == 0
        assert bm.to_dense().tolist() == []

    def test_zeros(self):
        bm = WAHBitmap.zeros(100)
        assert bm.count() == 0
        assert bm.nbits == 100
        assert not bm.to_dense().any()

    def test_ones(self):
        bm = WAHBitmap.ones(100)
        assert bm.count() == 100
        assert bm.to_dense().all()

    def test_zeros_matches_from_dense(self):
        for n in (0, 1, 30, 31, 32, 61, 62, 63, 93, 255):
            assert WAHBitmap.zeros(n) == WAHBitmap.from_dense(
                np.zeros(n, dtype=bool)
            )

    def test_ones_matches_from_dense(self):
        for n in (0, 1, 30, 31, 32, 61, 62, 63, 93, 255):
            assert WAHBitmap.ones(n) == WAHBitmap.from_dense(
                np.ones(n, dtype=bool)
            )

    def test_single_bit(self):
        bm = WAHBitmap.from_dense(bits_of(5, n=10))
        assert bm.count() == 1
        assert bm.positions().tolist() == [5]

    def test_exactly_one_group(self):
        dense = np.ones(GROUP_BITS, dtype=bool)
        bm = WAHBitmap.from_dense(dense)
        # A single complete all-ones group is one fill word.
        assert bm.word_count == 1
        assert int(bm.words[0]) == int(ONE_FILL_FLAG) | 1

    def test_long_zero_run_is_one_word(self):
        bm = WAHBitmap.zeros(GROUP_BITS * 1000)
        assert bm.word_count == 1
        assert int(bm.words[0]) == int(FILL_FLAG) | 1000

    def test_from_positions_validates_order(self):
        with pytest.raises(BitmapError):
            WAHBitmap.from_positions([3, 1], 10)

    def test_from_positions_validates_duplicates(self):
        with pytest.raises(BitmapError):
            WAHBitmap.from_positions([1, 1], 10)

    def test_from_positions_validates_range(self):
        with pytest.raises(BitmapError):
            WAHBitmap.from_positions([10], 10)
        with pytest.raises(BitmapError):
            WAHBitmap.from_positions([-1], 10)

    def test_from_intervals_validates_overlap(self):
        with pytest.raises(BitmapError):
            WAHBitmap.from_intervals([0, 3], [5, 9], 10)

    def test_from_intervals_merges_touching(self):
        bm = WAHBitmap.from_intervals([0, 5], [5, 9], 10)
        assert bm == WAHBitmap.from_intervals([0], [9], 10)

    def test_from_intervals_empty_intervals_ignored(self):
        bm = WAHBitmap.from_intervals([2, 4], [2, 6], 10)
        assert bm.positions().tolist() == [4, 5]

    def test_one_size_limit(self):
        """One fill word holds at most ``MAX_FILL_GROUPS`` groups; every
        constructor refuses a longer bitmap instead of splitting it."""
        nbits = GROUP_BITS * (MAX_FILL_GROUPS + 1)
        with pytest.raises(BitmapError):
            WAHBitmap.zeros(nbits)
        with pytest.raises(BitmapError):
            WAHBitmap.ones(nbits)
        with pytest.raises(BitmapError):
            WAHBitmap.from_intervals([5], [40], nbits)
        assert WAHBitmap.zeros(nbits - GROUP_BITS).word_count == 1

    def test_negative_nbits_rejected(self):
        with pytest.raises(BitmapError):
            WAHBitmap(np.empty(0, dtype=np.uint32), -1)


class TestCanonicalForm:
    """Equal bit content must yield identical word arrays."""

    @pytest.mark.parametrize("n", [1, 30, 31, 32, 62, 93, 100, 255, 400])
    def test_constructors_agree(self, n):
        rng = np.random.default_rng(n)
        dense = rng.random(n) < 0.4
        positions = np.flatnonzero(dense)
        from_dense = WAHBitmap.from_dense(dense)
        from_positions = WAHBitmap.from_positions(positions, n)
        starts, ends = intervals_of(dense)
        from_intervals = WAHBitmap.from_intervals(starts, ends, n)
        assert from_dense == from_positions
        assert from_dense == from_intervals
        assert np.array_equal(from_dense.words, from_positions.words)
        assert np.array_equal(from_dense.words, from_intervals.words)

    @pytest.mark.parametrize("n", [1, 31, 62, 100, 255])
    def test_matches_pure_python_reference(self, n):
        rng = np.random.default_rng(n + 1)
        dense = rng.random(n) < 0.5
        bm = WAHBitmap.from_dense(dense)
        assert [int(w) for w in bm.words] == encode_reference(dense.tolist())
        assert decode_reference(
            encode_reference(dense.tolist()), n
        ) == dense.astype(int).tolist()

    def test_hash_consistency(self):
        a = WAHBitmap.from_dense(bits_of(1, 5, n=40))
        b = WAHBitmap.from_positions([1, 5], 40)
        assert hash(a) == hash(b)
        assert a == b

    def test_not_equal_different_nbits(self):
        assert WAHBitmap.zeros(10) != WAHBitmap.zeros(11)

    def test_eq_other_type(self):
        assert (WAHBitmap.zeros(4) == "nope") is False


class TestQueries:
    def test_count_mixed(self):
        bm = WAHBitmap.from_intervals([10, 100], [50, 200], 300)
        assert bm.count() == 40 + 100

    def test_first_set_in_fill(self):
        bm = WAHBitmap.from_intervals([62], [300], 400)
        assert bm.first_set() == 62

    def test_first_set_in_literal(self):
        bm = WAHBitmap.from_positions([45], 400)
        assert bm.first_set() == 45

    def test_first_set_empty(self):
        assert WAHBitmap.zeros(100).first_set() == -1
        assert WAHBitmap.from_dense([]).first_set() == -1

    def test_get(self):
        bm = WAHBitmap.from_positions([0, 35, 99], 100)
        assert bm.get(0) and bm.get(35) and bm.get(99)
        assert not bm.get(1) and not bm.get(34) and not bm.get(98)

    def test_get_out_of_range(self):
        bm = WAHBitmap.zeros(10)
        with pytest.raises(BitmapError):
            bm.get(10)
        with pytest.raises(BitmapError):
            bm.get(-1)

    def test_positions_order(self):
        rng = np.random.default_rng(9)
        dense = rng.random(500) < 0.3
        bm = WAHBitmap.from_dense(dense)
        positions = bm.positions()
        assert np.array_equal(positions, np.flatnonzero(dense))
        assert np.all(np.diff(positions) > 0)


class TestStructuralOps:
    """Filter and concat of single bitmaps, through the column kernels."""

    def test_select_basic(self):
        bm = WAHBitmap.from_dense([1, 0, 1, 1, 0, 0, 1, 0])
        [out], _ = batch_select([bm], np.array([0, 1, 3, 6]))
        assert out.to_dense().tolist() == [True, False, True, True]

    def test_select_empty_positions(self):
        bm = WAHBitmap.ones(100)
        [out], _ = batch_select([bm], np.array([], dtype=np.int64))
        assert out.nbits == 0 and out.count() == 0

    def test_select_preserves_rank_order(self):
        rng = np.random.default_rng(4)
        dense = rng.random(400) < 0.5
        bm = WAHBitmap.from_dense(dense)
        picks = np.sort(rng.choice(400, 150, replace=False))
        [out], _ = batch_select([bm], picks)
        assert np.array_equal(out.to_dense(), dense[picks])

    @staticmethod
    def concat(a, b):
        [out] = batch_concat_positions([a], [b], [0], a.nbits, b.nbits)
        return out

    def test_concat(self):
        a = WAHBitmap.from_dense([1, 0, 1])
        b = WAHBitmap.from_dense([0, 0, 1, 1])
        combined = self.concat(a, b)
        assert combined.nbits == 7
        assert combined.to_dense().tolist() == [
            True, False, True, False, False, True, True,
        ]

    def test_concat_with_empty(self):
        a = WAHBitmap.from_dense([1, 0])
        empty = WAHBitmap.from_dense([])
        assert self.concat(a, empty) == a
        assert self.concat(empty, a) == a

    def test_concat_keeps_fills_compact(self):
        a = WAHBitmap.ones(31 * 100)
        b = WAHBitmap.ones(31 * 100)
        combined = self.concat(a, b)
        assert combined.word_count == 1
        assert combined.count() == 31 * 200


class TestLogicalOps:
    @pytest.fixture
    def pair(self):
        rng = np.random.default_rng(11)
        x = rng.random(300) < 0.4
        y = rng.random(300) < 0.6
        return x, y, WAHBitmap.from_dense(x), WAHBitmap.from_dense(y)

    def test_and(self, pair):
        x, y, a, b = pair
        assert np.array_equal((a & b).to_dense(), x & y)

    def test_or(self, pair):
        x, y, a, b = pair
        assert np.array_equal((a | b).to_dense(), x | y)

    def test_xor(self, pair):
        x, y, a, b = pair
        assert np.array_equal((a ^ b).to_dense(), x ^ y)

    def test_invert(self, pair):
        x, _y, a, _b = pair
        assert np.array_equal(a.invert().to_dense(), ~x)

    def test_invert_partial_tail_stays_in_range(self):
        bm = WAHBitmap.zeros(40).invert()
        assert bm.count() == 40
        assert bm.positions().tolist() == list(range(40))

    def test_length_mismatch_raises(self, pair):
        _x, _y, a, _b = pair
        with pytest.raises(BitmapError):
            _ = a & WAHBitmap.zeros(10)


class TestSerialization:
    def test_roundtrip(self):
        rng = np.random.default_rng(13)
        bm = WAHBitmap.from_dense(rng.random(500) < 0.3)
        assert WAHBitmap.from_bytes(bm.to_bytes()) == bm

    def test_roundtrip_empty(self):
        bm = WAHBitmap.from_dense([])
        assert WAHBitmap.from_bytes(bm.to_bytes()) == bm

    def test_bad_magic(self):
        with pytest.raises(SerializationError):
            WAHBitmap.from_bytes(b"XXXX" + b"\0" * 20)

    def test_truncated(self):
        bm = WAHBitmap.ones(1000)
        with pytest.raises(SerializationError):
            WAHBitmap.from_bytes(bm.to_bytes()[:-2])

    def test_repr(self):
        bm = WAHBitmap.ones(10)
        assert "WAHBitmap" in repr(bm)
        assert "count=10" in repr(bm)


class TestScale:
    def test_million_bit_fills(self):
        bm = WAHBitmap.from_intervals([100], [900_000], 1_000_000)
        assert bm.count() == 899_900
        assert bm.word_count < 10  # pure fills stay tiny
        assert bm.first_set() == 100
