"""Bitmap substrate: WAH compression and friends.

This package implements the storage encoding the CODS paper builds on:
WAH-compressed bitmaps (:class:`WAHBitmap`), an uncompressed variant for
ablations (:class:`PlainBitmap`), run-length encoded vectors for sorted
columns (:class:`RLEVector`), batched column-level kernels
(:mod:`repro.bitmap.batch`) and compression stats.
"""

from repro.bitmap.codecs import codec_names, get_codec, register_codec
from repro.bitmap.plain import PlainBitmap
from repro.bitmap.rle import RLEVector
from repro.bitmap.stats import CompressionStats, bitmap_stats
from repro.bitmap.wah import GROUP_BITS, WAHBitmap

__all__ = [
    "GROUP_BITS",
    "WAHBitmap",
    "PlainBitmap",
    "RLEVector",
    "CompressionStats",
    "bitmap_stats",
    "get_codec",
    "register_codec",
    "codec_names",
]
