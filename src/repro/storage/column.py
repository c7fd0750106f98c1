"""Bitmap-encoded columns.

A :class:`BitmapColumn` stores one compressed bitmap per distinct value
(the ``v × r`` matrix of paper Section 2.2): bit ``k`` of value ``u``'s
bitmap is set iff row ``k`` holds ``u``.  The bitmaps are packed
(:class:`~repro.bitmap.batch.PackedBitmaps`): one word buffer, one word
offset per value and each value's set-bit count, which every batched
kernel reads and writes as it is.  All evolution algorithms work on
this representation; the expensive "materialize the rows" path is
:meth:`decode_vids` / :meth:`to_values`, and callers that care (the
engine, the benchmarks) count how often it runs.

The read path asks :meth:`BitmapColumn.vids` instead: the row-order
vid array, kept on the column.  A column built from its vids
(:meth:`~BitmapColumn.from_vids`, :meth:`~BitmapColumn.concat` of two
such columns) keeps a copy in the narrowest unsigned dtype, so it is
never decoded; any other column decodes once, on its first read.
"""

from __future__ import annotations

import numpy as np

from repro.bitmap.batch import (
    PackedBitmaps,
    RowSplit,
    batch_concat_positions,
    batch_decode_vids,
    batch_from_positions,
    batch_select,
    batch_split,
    counting_order,
)
from repro.errors import BitmapError, StorageError
from repro.storage.dictionary import Dictionary
from repro.storage.types import DataType, coerce


class BitmapColumn:
    """One column of a column-store table, encoded as per-value bitmaps."""

    __slots__ = ("name", "dtype", "_dictionary", "_bitmaps", "_nrows",
                 "_vids")

    def __init__(self, name: str, dtype: DataType, dictionary: Dictionary,
                 bitmaps, nrows: int, vids: np.ndarray | None = None):
        """``bitmaps`` is a :class:`PackedBitmaps`, or a sequence of
        ``WAHBitmap`` packed here; each must have ``nrows`` bits.
        ``vids``, the row-order vid array the bitmaps encode, is kept
        as :meth:`vids` will return it (a narrow copy is widened on
        first read); ``None`` leaves it to be decoded then."""
        self.name = name
        self.dtype = dtype
        self._dictionary = dictionary
        self._nrows = int(nrows)
        self._vids = vids
        try:
            bitmaps = PackedBitmaps.pack(bitmaps, self._nrows)
        except BitmapError as exc:
            raise StorageError(
                f"column {name!r} of {self._nrows} rows: {exc}"
            ) from exc
        self._bitmaps = bitmaps
        if len(bitmaps) != len(dictionary):
            raise StorageError(
                f"column {name!r}: {len(bitmaps)} bitmaps for "
                f"{len(dictionary)} dictionary entries"
            )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_values(cls, name: str, dtype: DataType, values) -> "BitmapColumn":
        """Build a column from row-ordered values.

        Values are dictionary-encoded, then each distinct value's sorted
        row positions become one compressed bitmap.  Well-typed NumPy
        arrays skip per-value coercion (the bulk-load fast path).
        """
        dictionary = Dictionary()
        if isinstance(values, np.ndarray) and values.dtype != object:
            vids = dictionary.encode(values)
        else:
            vids = dictionary.encode([coerce(v, dtype) for v in values])
        return cls.from_vids(name, dtype, dictionary, vids)

    @classmethod
    def from_vids(cls, name: str, dtype: DataType, dictionary: Dictionary,
                  vids: np.ndarray) -> "BitmapColumn":
        """Build from a pre-encoded vid array (row order): a counting
        order (:func:`~repro.bitmap.batch.counting_order`) groups the
        row positions by vid, one batched constructor builds every
        value's bitmap.  The column keeps a copy of ``vids`` in the
        narrowest unsigned dtype (1–2 B a row for most columns), so
        its first read decodes nothing."""
        nrows = len(vids)
        narrow = _narrowed(vids, len(dictionary))
        order = counting_order(narrow, len(dictionary))
        bounds = np.concatenate(
            ([0], np.cumsum(np.bincount(vids, minlength=len(dictionary))))
        )
        bitmaps = batch_from_positions(order, bounds, nrows)
        return cls(name, dtype, dictionary, bitmaps, nrows, narrow)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def nrows(self) -> int:
        return self._nrows

    @property
    def distinct_count(self) -> int:
        return len(self._dictionary)

    @property
    def dictionary(self) -> Dictionary:
        return self._dictionary

    @property
    def bitmaps(self) -> PackedBitmaps:
        """The packed per-vid bitmaps: a read-only sequence whose
        items are ``WAHBitmap`` views over the column's word buffer."""
        return self._bitmaps

    def bitmap_for_vid(self, vid: int):
        """The bitmap of ``vid``: a view over its words."""
        return self._bitmaps[vid]

    def value_counts(self) -> np.ndarray:
        """Occurrences of each value, by vid — compressed-domain counts."""
        return self._bitmaps.counts

    def get(self, row: int):
        """Value at a single row (slow; for display and tests)."""
        if row < 0 or row >= self._nrows:
            raise StorageError(f"row {row} out of range")
        for vid, bitmap in enumerate(self._bitmaps):
            if bitmap.get(row):
                return self._dictionary.value(vid)
        return None  # pragma: no cover - only with corrupted bitmaps

    # ------------------------------------------------------------------
    # Materialization ("decompression") — the expensive path
    # ------------------------------------------------------------------

    def vids(self) -> np.ndarray:
        """The row-order vid array (read-only ``int64``) every reader
        of the column shares: the kept copy, widened once, or else one
        :meth:`decode_vids` on first use."""
        vids = self._vids
        if vids is None or vids.dtype != np.int64:
            vids = (
                self.decode_vids() if vids is None
                else vids.astype(np.int64)
            )
            vids.flags.writeable = False
            self._vids = vids
        return vids

    def held_vids(self) -> np.ndarray:
        """The row-order vids as the column holds them — its narrow
        copy, or the ``int64`` array a reader widened — else one
        :meth:`decode_vids`; the slot is left as it is.  For a writer
        that reads a column once on its way out (a fold)."""
        vids = self._vids
        return self.decode_vids() if vids is None else vids

    def decode_vids(self) -> np.ndarray:
        """Materialize the row-ordered vid array, uncached.

        This is what the paper calls decompression: ``O(nrows)`` work and
        memory.  CODS algorithms only call it where the paper's
        algorithms also scan sequentially (e.g. mergence pass 2), and
        the query-level baselines pay it on every read; the read path
        goes through :meth:`vids`.
        """
        if self._nrows == 0:
            return np.empty(0, dtype=np.int64)
        try:
            return batch_decode_vids(self._bitmaps, self._nrows)
        except StorageError as exc:
            raise StorageError(
                f"column {self.name!r}: {exc} (NULLs or corruption)"
            ) from exc

    def to_values(self) -> list:
        """Materialize the row-ordered Python values."""
        return self._dictionary.decode(self.decode_vids())

    # ------------------------------------------------------------------
    # Structural operations used by evolution
    # ------------------------------------------------------------------

    def select(self, sorted_positions: np.ndarray, compact: bool = True
               ) -> "BitmapColumn":
        """Bitmap-filter every value's bitmap to ``sorted_positions``.

        Implements the paper's "bitmap filtering" for one column: the new
        column has ``len(sorted_positions)`` rows and bit ``i`` of value
        ``u`` is set iff row ``sorted_positions[i]`` held ``u``.  With
        ``compact=True`` values that vanish are dropped from the
        dictionary (PARTITION needs this; DECOMPOSE keys keep all).
        """
        filtered, counts = batch_select(self._bitmaps, sorted_positions)
        return self._filtered(
            filtered, counts if compact else None, len(sorted_positions)
        )

    def split(self, mask) -> tuple["BitmapColumn", "BitmapColumn"]:
        """PARTITION's two-way bitmap filtering in one pass: the rows
        where the dense boolean ``mask`` (or its :class:`RowSplit`) is
        set and the rows where it is not, each as
        ``select(..., compact=True)`` would return them."""
        split = RowSplit.of(mask)
        (true_bitmaps, true_counts), (false_bitmaps, false_counts) = (
            batch_split(self._bitmaps, split)
        )
        return (
            self._filtered(true_bitmaps, true_counts, split.ntrue),
            self._filtered(
                false_bitmaps, false_counts, len(split.mask) - split.ntrue
            ),
        )

    def _filtered(self, bitmaps: PackedBitmaps, counts, nrows: int
                  ) -> "BitmapColumn":
        """This column over ``nrows`` filtered rows; with ``counts`` (set
        bits per bitmap) the values that vanished are dropped."""
        dictionary = self._dictionary
        if counts is not None:
            kept = np.flatnonzero(counts)
            if len(kept) < len(counts):
                dictionary = dictionary.subset(kept.tolist())
                bitmaps = bitmaps.take(kept)
        return BitmapColumn(self.name, self.dtype, dictionary, bitmaps, nrows)

    def concat(self, other: "BitmapColumn") -> "BitmapColumn":
        """Concatenate rows of two columns (UNION TABLES).

        Bitmaps of shared values are concatenated; values present on only
        one side get a zero-extension on the other.  The left side's
        words are spliced, not decoded (:func:`batch_concat_positions`),
        and the right dictionary is mapped in one call.  When both sides
        hold their vids (an insert-only compaction fold), the result
        keeps theirs, joined.
        """
        if self.dtype != other.dtype:
            raise StorageError(
                f"cannot union column {self.name!r}: type mismatch "
                f"{self.dtype} vs {other.dtype}"
            )
        dictionary, right_target = self._dictionary.extended(
            other._dictionary
        )
        bitmaps = batch_concat_positions(
            self._bitmaps, other._bitmaps, right_target,
            self._nrows, other._nrows,
        )
        vids = None
        if self._vids is not None and other._vids is not None:
            vids = _narrowed(
                np.concatenate((self._vids, right_target[other._vids])),
                len(dictionary),
            )
        return BitmapColumn(
            self.name, self.dtype, dictionary, bitmaps,
            self._nrows + other._nrows, vids,
        )

    def renamed(self, new_name: str) -> "BitmapColumn":
        """Same data under a new column name (shares bitmaps and the
        vids held so far)."""
        return BitmapColumn(
            new_name, self.dtype, self._dictionary, self._bitmaps,
            self._nrows, self._vids,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def same_content(self, other: "BitmapColumn") -> bool:
        """Row-by-row logical equality (dictionary order independent)."""
        if self._nrows != other._nrows or self.dtype != other.dtype:
            return False
        mine = self.to_values()
        theirs = other.to_values()
        return mine == theirs

    def __repr__(self) -> str:
        return (
            f"BitmapColumn({self.name!r}, {self.dtype}, rows={self._nrows}, "
            f"distinct={self.distinct_count})"
        )


def _narrowed(vids: np.ndarray, nvids: int) -> np.ndarray:
    """A copy of ``vids`` in the narrowest unsigned dtype that holds
    every vid below ``nvids``."""
    return vids.astype(np.min_scalar_type(max(nvids - 1, 0)))
