"""Bitmap substrate: WAH compression and friends.

This package implements the storage encoding the CODS paper builds on:
WAH-compressed bitmaps (:class:`WAHBitmap`), the one codec of every
column, with batched column-level kernels (:mod:`repro.bitmap.batch`).
"""

from repro.bitmap.wah import GROUP_BITS, WAHBitmap

__all__ = [
    "GROUP_BITS",
    "WAHBitmap",
]
