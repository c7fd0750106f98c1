"""Multi-bitmap operations.

Per-value bitmaps of one column are pairwise disjoint, which makes
unions cheap: concatenating their position lists already yields a sorted
set after one merge.  Predicates over many values (PARTITION conditions,
SQL WHERE) use these helpers instead of folding pairwise ORs.
"""

from __future__ import annotations

import numpy as np

from repro.bitmap.batch import batch_positions
from repro.bitmap.wah import WAHBitmap


def union_disjoint(bitmaps, nbits: int) -> WAHBitmap:
    """OR of pairwise-disjoint bitmaps (e.g. several values of one column,
    packed: ``column.bitmaps.take(vids)``).

    ``O(total set bits)`` — one batched extraction of every bitmap's
    positions, then one sort.
    """
    positions, _ = batch_positions(bitmaps)
    return WAHBitmap.from_positions(np.sort(positions), nbits)


def union(bitmaps, nbits: int) -> WAHBitmap:
    """OR of arbitrary (possibly overlapping) bitmaps."""
    positions, _ = batch_positions(bitmaps)
    return WAHBitmap.from_positions(np.unique(positions), nbits)
