"""Uncompressed bitmap with the same interface as :class:`WAHBitmap`.

Used by the codec ablation (``benchmarks/bench_ablation_codec.py``): the paper
argues that operating on WAH-compressed bitmaps is what makes data-level
evolution cheap; this class lets the benchmarks quantify the difference
by swapping the column codec while keeping every algorithm identical.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.errors import BitmapError, SerializationError

_MAGIC = b"PLN1"


class PlainBitmap:
    """Dense boolean bitmap mirroring the :class:`WAHBitmap` API."""

    __slots__ = ("_bits", "_count")

    def __init__(self, bits: np.ndarray, _count: int | None = None):
        self._bits = np.ascontiguousarray(bits, dtype=bool)
        self._count = _count

    # -- constructors ---------------------------------------------------

    @classmethod
    def zeros(cls, nbits: int) -> "PlainBitmap":
        return cls(np.zeros(nbits, dtype=bool), _count=0)

    @classmethod
    def ones(cls, nbits: int) -> "PlainBitmap":
        return cls(np.ones(nbits, dtype=bool), _count=nbits)

    @classmethod
    def from_dense(cls, bits) -> "PlainBitmap":
        return cls(np.asarray(bits, dtype=bool).copy())

    @classmethod
    def from_positions(cls, positions, nbits: int) -> "PlainBitmap":
        pos = np.asarray(positions, dtype=np.int64)
        bits = np.zeros(nbits, dtype=bool)
        if len(pos):
            if pos[0] < 0 or pos[-1] >= nbits:
                raise BitmapError("position out of range")
            bits[pos] = True
        return cls(bits, _count=len(pos))

    @classmethod
    def from_intervals(cls, starts, ends, nbits: int) -> "PlainBitmap":
        bits = np.zeros(nbits, dtype=bool)
        for lo, hi in zip(np.asarray(starts), np.asarray(ends)):
            if lo < 0 or hi > nbits:
                raise BitmapError("interval out of range")
            bits[lo:hi] = True
        return cls(bits)

    # -- properties -----------------------------------------------------

    @property
    def nbits(self) -> int:
        return len(self._bits)

    @property
    def word_count(self) -> int:
        return (len(self._bits) + 31) // 32

    @property
    def nbytes(self) -> int:
        return self._bits.nbytes

    def __len__(self) -> int:
        return len(self._bits)

    def __repr__(self) -> str:
        return f"PlainBitmap(nbits={self.nbits}, count={self.count()})"

    # -- decoding -------------------------------------------------------

    def to_dense(self) -> np.ndarray:
        return self._bits.copy()

    def positions(self) -> np.ndarray:
        return np.flatnonzero(self._bits).astype(np.int64)

    def one_intervals(self) -> tuple[np.ndarray, np.ndarray]:
        padded = np.zeros(len(self._bits) + 2, dtype=bool)
        padded[1:-1] = self._bits
        starts = np.flatnonzero(padded[1:] & ~padded[:-1]).astype(np.int64)
        ends = np.flatnonzero(~padded[1:] & padded[:-1]).astype(np.int64)
        return starts, ends

    # -- queries ----------------------------------------------------------

    def count(self) -> int:
        if self._count is None:
            self._count = int(self._bits.sum())
        return self._count

    def first_set(self) -> int:
        if not self._bits.any():
            return -1
        return int(np.argmax(self._bits))

    def get(self, position: int) -> bool:
        if position < 0 or position >= len(self._bits):
            raise BitmapError(f"bit {position} out of range")
        return bool(self._bits[position])

    # -- structural ops ---------------------------------------------------

    def select(self, sorted_positions) -> "PlainBitmap":
        pos = np.asarray(sorted_positions, dtype=np.int64)
        return PlainBitmap(self._bits[pos])

    def concat(self, other: "PlainBitmap") -> "PlainBitmap":
        return PlainBitmap(np.concatenate((self._bits, other._bits)))

    # -- logical ops ------------------------------------------------------

    def _check(self, other: "PlainBitmap") -> None:
        if len(self._bits) != len(other._bits):
            raise BitmapError("bitmap length mismatch")

    def __and__(self, other: "PlainBitmap") -> "PlainBitmap":
        self._check(other)
        return PlainBitmap(self._bits & other._bits)

    def __or__(self, other: "PlainBitmap") -> "PlainBitmap":
        self._check(other)
        return PlainBitmap(self._bits | other._bits)

    def __xor__(self, other: "PlainBitmap") -> "PlainBitmap":
        self._check(other)
        return PlainBitmap(self._bits ^ other._bits)

    def invert(self) -> "PlainBitmap":
        return PlainBitmap(~self._bits)

    # -- equality ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PlainBitmap):
            return NotImplemented
        return np.array_equal(self._bits, other._bits)

    def __hash__(self) -> int:
        return hash((len(self._bits), self._bits.tobytes()))

    # -- serialization ------------------------------------------------------

    def to_bytes(self) -> bytes:
        packed = np.packbits(self._bits)
        return _MAGIC + struct.pack("<Q", len(self._bits)) + packed.tobytes()

    @classmethod
    def from_bytes(cls, data: bytes) -> "PlainBitmap":
        if data[:4] != _MAGIC:
            raise SerializationError("not a plain bitmap: bad magic")
        (nbits,) = struct.unpack_from("<Q", data, 4)
        packed = np.frombuffer(data, dtype=np.uint8, offset=12)
        bits = np.unpackbits(packed, count=nbits).astype(bool)
        return cls(bits)
