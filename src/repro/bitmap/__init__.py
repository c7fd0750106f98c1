"""Bitmap substrate: WAH compression and friends.

This package implements the storage encoding the CODS paper builds on:
WAH-compressed bitmaps (:class:`WAHBitmap`), the one codec of every
column, with batched column-level kernels (:mod:`repro.bitmap.batch`)
and compression stats.  :class:`PlainBitmap` is not a column codec: it
is the dense selection vector of the vectorized read path.
"""

from repro.bitmap.plain import PlainBitmap
from repro.bitmap.stats import CompressionStats, bitmap_stats
from repro.bitmap.wah import GROUP_BITS, WAHBitmap

__all__ = [
    "GROUP_BITS",
    "WAHBitmap",
    "PlainBitmap",
    "CompressionStats",
    "bitmap_stats",
]
