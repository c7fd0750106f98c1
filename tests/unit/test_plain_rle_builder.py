"""Tests for the dense selection bitmap of the read path."""

import numpy as np
import pytest

from repro.bitmap import PlainBitmap, WAHBitmap
from repro.errors import BitmapError


class TestPlainBitmap:
    def test_interface_parity_with_wah(self):
        rng = np.random.default_rng(0)
        dense = rng.random(200) < 0.4
        plain = PlainBitmap(dense)
        wah = WAHBitmap.from_dense(dense)
        assert plain.nbits == wah.nbits
        assert plain.count() == wah.count()
        assert np.array_equal(plain.positions(), wah.positions())
        assert np.array_equal(plain.to_dense(), wah.to_dense())
        positions = PlainBitmap.from_positions(wah.positions(), 200)
        assert positions.count() == wah.count()
        assert np.array_equal(positions.to_dense(), dense)

    def test_logical_ops(self):
        a = PlainBitmap(np.array([1, 0, 1, 0], dtype=bool))
        b = PlainBitmap(np.array([1, 1, 0, 0], dtype=bool))
        assert (a & b).to_dense().tolist() == [True, False, False, False]
        with pytest.raises(BitmapError):
            a & PlainBitmap(np.zeros(3, dtype=bool))

    def test_from_positions_range_check(self):
        with pytest.raises(BitmapError):
            PlainBitmap.from_positions([7], 7)
