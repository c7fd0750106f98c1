"""Multi-bitmap operations.

Per-value bitmaps of one column are pairwise disjoint, which makes
unions cheap: concatenating their position lists already yields a sorted
set after one merge.  Predicates over many values (PARTITION conditions,
SQL WHERE) use these helpers instead of folding pairwise ORs.
"""

from __future__ import annotations

import numpy as np

from repro.bitmap.wah import WAHBitmap


def union_disjoint(bitmaps, nbits: int) -> WAHBitmap:
    """OR of pairwise-disjoint bitmaps (e.g. several values of one column).

    ``O(total set bits)`` — each bitmap contributes its positions once.
    """
    bitmaps = list(bitmaps)
    if not bitmaps:
        return WAHBitmap.zeros(nbits)
    parts = [bm.positions() for bm in bitmaps]
    return WAHBitmap.from_positions(np.sort(np.concatenate(parts)), nbits)


def union(bitmaps, nbits: int) -> WAHBitmap:
    """OR of arbitrary (possibly overlapping) bitmaps."""
    bitmaps = list(bitmaps)
    if not bitmaps:
        return WAHBitmap.zeros(nbits)
    parts = [bm.positions() for bm in bitmaps]
    return WAHBitmap.from_positions(np.unique(np.concatenate(parts)), nbits)
