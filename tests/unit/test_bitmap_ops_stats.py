"""Tests for multi-bitmap operations."""

from repro.bitmap import WAHBitmap
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
