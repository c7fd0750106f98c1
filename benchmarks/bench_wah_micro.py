"""Micro-benchmarks of the WAH substrate itself.

Not a paper artifact, but the codec's constants determine every number
in Figure 3; tracking them guards against regressions.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bitmap import WAHBitmap
from repro.bitmap.batch import (
    batch_decode_vids,
    batch_first_set,
    batch_select,
)

_N = 1_000_000
_rng = np.random.default_rng(16)
_dense = _rng.random(_N) < 0.5
_sparse_positions = np.sort(
    _rng.choice(_N, 1_000, replace=False)
).astype(np.int64)
_dense_bm = WAHBitmap.from_dense(_dense)
_sparse_bm = WAHBitmap.from_positions(_sparse_positions, _N)
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
    benchmark(lambda: batch_select([_sparse_bm], _select_positions))


def test_micro_logical_and(benchmark):
    benchmark.group = "wah micro (1M bits)"
    benchmark.name = "AND (dense)"
    other = WAHBitmap.from_dense(_rng.random(_N) < 0.5)
    benchmark(lambda: _dense_bm & other)


def test_micro_batch_column(benchmark):
    benchmark.group = "wah micro (column of 1000 bitmaps)"
    vids = _rng.integers(0, 1_000, 100_000)
    vids[:1000] = np.arange(1000)
    order = np.argsort(vids, kind="stable")
    sorted_vids = vids[order]
    bounds = np.concatenate(
        ([0], np.flatnonzero(np.diff(sorted_vids)) + 1, [len(vids)])
    )
    bitmaps = [
        WAHBitmap.from_positions(
            np.sort(order[bounds[i]:bounds[i + 1]]), len(vids)
        )
        for i in range(1000)
    ]
    benchmark.name = "batch_first_set + decode"
    benchmark(
        lambda: (batch_first_set(bitmaps), batch_decode_vids(bitmaps, len(vids)))
    )
