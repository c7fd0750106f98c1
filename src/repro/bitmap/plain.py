"""Uncompressed (dense boolean) bitmap: the read path's selection vector.

Columns are always WAH-compressed; this class is not a column codec.  A
:class:`~repro.exec.batch.ColumnBatch` keeps *which* of its rows are
still in play as one :class:`PlainBitmap` (the main store's validity
mask, a predicate's matches, UPDATE's victims), so filters compose by
ANDing byte vectors and materialization reads the set positions once.
"""

from __future__ import annotations

import numpy as np

from repro.errors import BitmapError


class PlainBitmap:
    """Dense boolean bitmap, one byte per row."""

    __slots__ = ("_bits", "_count")

    def __init__(self, bits: np.ndarray, _count: int | None = None):
        self._bits = np.ascontiguousarray(bits, dtype=bool)
        self._count = _count

    @classmethod
    def from_positions(cls, positions, nbits: int) -> "PlainBitmap":
        pos = np.asarray(positions, dtype=np.int64)
        bits = np.zeros(nbits, dtype=bool)
        if len(pos):
            if pos[0] < 0 or pos[-1] >= nbits:
                raise BitmapError("position out of range")
            bits[pos] = True
        return cls(bits, _count=len(pos))

    @property
    def nbits(self) -> int:
        return len(self._bits)

    @property
    def nbytes(self) -> int:
        return self._bits.nbytes

    def to_dense(self) -> np.ndarray:
        return self._bits.copy()

    def positions(self) -> np.ndarray:
        return np.flatnonzero(self._bits).astype(np.int64)

    def count(self) -> int:
        if self._count is None:
            self._count = int(self._bits.sum())
        return self._count

    def __and__(self, other: "PlainBitmap") -> "PlainBitmap":
        if len(self._bits) != len(other._bits):
            raise BitmapError("bitmap length mismatch")
        return PlainBitmap(self._bits & other._bits)

    def __invert__(self) -> "PlainBitmap":
        return PlainBitmap(~self._bits)
