"""Tests for multi-bitmap operations and compression statistics."""

import numpy as np

from repro.bitmap import CompressionStats, WAHBitmap, bitmap_stats
from repro.bitmap.ops import union, union_disjoint


class TestUnions:
    def test_union_disjoint(self):
        a = WAHBitmap.from_positions([0, 5], 20)
        b = WAHBitmap.from_positions([3, 10], 20)
        c = WAHBitmap.from_positions([19], 20)
        combined = union_disjoint([a, b, c], 20)
        assert combined.positions().tolist() == [0, 3, 5, 10, 19]

    def test_union_overlapping(self):
        a = WAHBitmap.from_positions([1, 2, 3], 10)
        b = WAHBitmap.from_positions([3, 4], 10)
        combined = union([a, b], 10)
        assert combined.positions().tolist() == [1, 2, 3, 4]

    def test_union_empty_list_without_codec(self):
        # Every union is WAH: an empty operand list is the zero bitmap.
        for combine in (union, union_disjoint):
            result = combine([], 10)
            assert result == WAHBitmap.zeros(10)


class TestCompressionStats:
    def test_ratio(self):
        stats = CompressionStats(logical_bits=8_000, compressed_bytes=100)
        assert stats.logical_bytes == 1_000
        assert stats.ratio == 10.0

    def test_zero_compressed(self):
        assert CompressionStats(0, 0).ratio == 1.0
        assert CompressionStats(100, 0).ratio == float("inf")

    def test_addition(self):
        total = CompressionStats(100, 10) + CompressionStats(200, 5)
        assert total.logical_bits == 300
        assert total.compressed_bytes == 15

    def test_bitmap_stats_wah_vs_plain(self):
        fills = WAHBitmap.ones(31 * 10_000)
        # A plain bitmap stores one byte per row.
        plain = CompressionStats(31 * 10_000, 31 * 10_000)
        assert bitmap_stats(fills).ratio > plain.ratio

    def test_random_data_compresses_poorly(self):
        rng = np.random.default_rng(1)
        bm = WAHBitmap.from_dense(rng.random(31_000) < 0.5)
        # Random 50% data: WAH degenerates to ~literal-per-group.
        assert 0.5 < bitmap_stats(bm).ratio < 1.5
