"""Micro-benchmarks of the WAH substrate itself.

Not a paper artifact, but the codec's constants determine every number
in Figure 3; tracking them guards against regressions.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bitmap import WAHBitmap
from repro.bitmap.batch import (
    PackedBitmaps,
    batch_decode_vids,
    batch_first_set,
    batch_from_positions,
    batch_select,
)
from repro.storage import BitmapColumn, DataType, Dictionary

_N = 1_000_000
_rng = np.random.default_rng(16)
_dense = _rng.random(_N) < 0.5
_sparse_positions = np.sort(
    _rng.choice(_N, 1_000, replace=False)
).astype(np.int64)
_dense_bm = WAHBitmap.from_dense(_dense)
_sparse_bm = WAHBitmap.from_positions(_sparse_positions, _N)
_sparse_column = PackedBitmaps.pack([_sparse_bm])
_select_positions = np.sort(
    _rng.choice(_N, 10_000, replace=False)
).astype(np.int64)


def test_micro_from_dense(benchmark):
    benchmark.group = "wah micro (1M bits)"
    benchmark.name = "from_dense (random)"
    benchmark(lambda: WAHBitmap.from_dense(_dense))


def test_micro_from_positions_sparse(benchmark):
    benchmark.group = "wah micro (1M bits)"
    benchmark.name = "from_positions (1k set)"
    benchmark(lambda: WAHBitmap.from_positions(_sparse_positions, _N))


def test_micro_positions_sparse(benchmark):
    benchmark.group = "wah micro (1M bits)"
    benchmark.name = "positions (sparse)"
    benchmark(_sparse_bm.positions)


def test_micro_select_sparse(benchmark):
    benchmark.group = "wah micro (1M bits)"
    benchmark.name = "select 10k (sparse)"
    benchmark(lambda: batch_select(_sparse_column, _select_positions))


def test_micro_logical_and(benchmark):
    benchmark.group = "wah micro (1M bits)"
    benchmark.name = "AND (dense)"
    other = WAHBitmap.from_dense(_rng.random(_N) < 0.5)
    benchmark(lambda: _dense_bm & other)


def test_micro_batch_column(benchmark):
    benchmark.group = "wah micro (column of 1000 bitmaps)"
    vids = _rng.integers(0, 1_000, 100_000)
    vids[:1000] = np.arange(1000)
    # The packed column the engine holds (``BitmapColumn.from_vids``):
    # one word buffer, no bitmap object per value.
    order = np.argsort(vids, kind="stable")
    bounds = np.concatenate(([0], np.cumsum(np.bincount(vids))))
    column = batch_from_positions(order, bounds, len(vids))
    benchmark.name = "batch_first_set + decode"
    benchmark(
        lambda: (batch_first_set(column), batch_decode_vids(column, len(vids)))
    )


_BUILD_ROWS = 200_000


@pytest.mark.parametrize("distinct", [100, 70_000])
def test_micro_from_vids(benchmark, distinct):
    """A column build's counting order: one 8-bit radix pass at 100
    values, two 16-bit passes at 70 000."""
    benchmark.group = "column build (200k rows)"
    benchmark.name = f"from_vids ({distinct} values)"
    vids = _rng.integers(0, distinct, _BUILD_ROWS)
    vids[:distinct] = np.arange(distinct)
    dictionary = Dictionary(range(distinct))
    benchmark(
        lambda: BitmapColumn.from_vids("c", DataType.INT, dictionary, vids)
    )


def test_micro_one_value_positions(benchmark):
    """One value's ``positions()``: the column-wide extraction kernel
    over one bitmap's words."""
    benchmark.group = "column build (200k rows)"
    benchmark.name = "one value's positions() (100 values)"
    column = BitmapColumn.from_vids(
        "c", DataType.INT, Dictionary(range(100)),
        np.arange(_BUILD_ROWS) % 100,
    )
    bitmap = column.bitmap_for_vid(7)
    benchmark(bitmap.positions)
