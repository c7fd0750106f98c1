"""Tests for the plain codec and the RLE vector."""

import numpy as np
import pytest

from repro.bitmap import PlainBitmap, RLEVector, WAHBitmap
from repro.bitmap.codecs import codec_names, get_codec, register_codec
from repro.errors import BitmapError, SerializationError


class TestPlainBitmap:
    def test_interface_parity_with_wah(self):
        rng = np.random.default_rng(0)
        dense = rng.random(200) < 0.4
        plain = PlainBitmap.from_dense(dense)
        wah = WAHBitmap.from_dense(dense)
        assert plain.count() == wah.count()
        assert plain.first_set() == wah.first_set()
        assert np.array_equal(plain.positions(), wah.positions())
        ps, pe = plain.one_intervals()
        ws, we = wah.one_intervals()
        assert np.array_equal(ps, ws) and np.array_equal(pe, we)
        picks = np.sort(rng.choice(200, 50, replace=False))
        assert np.array_equal(
            plain.select(picks).to_dense(), wah.select(picks).to_dense()
        )

    def test_logical_ops(self):
        a = PlainBitmap.from_dense([1, 0, 1, 0])
        b = PlainBitmap.from_dense([1, 1, 0, 0])
        assert (a & b).to_dense().tolist() == [True, False, False, False]
        assert (a | b).to_dense().tolist() == [True, True, True, False]
        assert (a ^ b).to_dense().tolist() == [False, True, True, False]
        assert a.invert().to_dense().tolist() == [False, True, False, True]

    def test_serialization(self):
        bm = PlainBitmap.from_dense([1, 0, 1, 1, 0])
        assert PlainBitmap.from_bytes(bm.to_bytes()) == bm
        with pytest.raises(SerializationError):
            PlainBitmap.from_bytes(b"NOPE" + b"\0" * 10)

    def test_from_positions_range_check(self):
        with pytest.raises(BitmapError):
            PlainBitmap.from_positions([7], 7)

    def test_concat(self):
        a = PlainBitmap.from_dense([1, 0])
        b = PlainBitmap.from_dense([0, 1])
        assert a.concat(b).to_dense().tolist() == [True, False, False, True]


class TestCodecRegistry:
    def test_lookup(self):
        assert get_codec("wah") is WAHBitmap
        assert get_codec("plain") is PlainBitmap

    def test_unknown(self):
        with pytest.raises(BitmapError):
            get_codec("lz4")

    def test_names(self):
        assert set(codec_names()) >= {"wah", "plain"}

    def test_register_custom(self):
        class Fake:
            pass

        register_codec("fake-test", Fake)
        try:
            assert get_codec("fake-test") is Fake
        finally:
            from repro.bitmap import codecs

            codecs._CODECS.pop("fake-test")


class TestRLEVector:
    def test_roundtrip(self):
        values = [3, 3, 3, 1, 1, 2, 3, 3]
        vector = RLEVector.from_values(values)
        assert vector.decode().tolist() == values
        assert vector.run_count == 4
        assert vector.nrows == 8

    def test_empty(self):
        vector = RLEVector.from_values([])
        assert vector.nrows == 0
        assert vector.run_count == 0
        assert vector.decode().tolist() == []

    def test_positions_of(self):
        vector = RLEVector.from_values([5, 5, 2, 5, 2, 2])
        assert vector.positions_of(5).tolist() == [0, 1, 3]
        assert vector.positions_of(2).tolist() == [2, 4, 5]
        assert vector.positions_of(99).tolist() == []

    def test_get(self):
        vector = RLEVector.from_values([4, 4, 7, 9])
        assert [vector.get(i) for i in range(4)] == [4, 4, 7, 9]
        with pytest.raises(BitmapError):
            vector.get(4)

    def test_distinct_first_positions(self):
        vector = RLEVector.from_values([7, 7, 3, 7, 3, 9])
        values, firsts = vector.distinct_first_positions()
        assert values.tolist() == [3, 7, 9]
        assert firsts.tolist() == [2, 0, 5]

    def test_select(self):
        vector = RLEVector.from_values([1, 1, 2, 2, 3, 3])
        out = vector.select(np.array([0, 2, 3, 5]))
        assert out.decode().tolist() == [1, 2, 2, 3]

    def test_concat_merges_boundary_run(self):
        a = RLEVector.from_values([1, 1, 2])
        b = RLEVector.from_values([2, 2, 3])
        combined = a.concat(b)
        assert combined.decode().tolist() == [1, 1, 2, 2, 2, 3]
        assert combined.run_count == 3

    def test_serialization(self):
        vector = RLEVector.from_values([1, 1, 5, 5, 5, 2])
        assert RLEVector.from_bytes(vector.to_bytes()) == vector

    def test_sorted_column_compresses_well(self):
        sorted_vals = np.repeat(np.arange(100), 1000)
        vector = RLEVector.from_values(sorted_vals)
        assert vector.run_count == 100
        assert vector.nbytes < sorted_vals.nbytes / 50

    def test_invalid_runs_rejected(self):
        with pytest.raises(BitmapError):
            RLEVector(np.array([1]), np.array([0]))
        with pytest.raises(BitmapError):
            RLEVector(np.array([1, 2]), np.array([1]))
