"""Word-Aligned Hybrid (WAH) compressed bitmaps.

WAH [Wu, Otoo, Shoshani, TODS 2006] is the compression scheme the CODS
paper adopts for its bitmap-encoded columns.  This module implements a
32-bit WAH codec whose operations are NumPy-vectorized and, crucially for
the paper's claims, run in time proportional to the *compressed* size of
the bitmap (plus the number of set bits for position extraction) — never
in time proportional to the number of rows for sparse bitmaps.

Word format (32-bit words, 31-bit groups):

* **Literal word** — bit 31 is ``0``; bits ``0..30`` hold 31 bitmap bits
  (bit ``i`` of the word is bit ``group_start + i`` of the bitmap).
* **Fill word** — bit 31 is ``1``; bit 30 is the fill bit value; bits
  ``0..29`` hold the run length measured in 31-bit groups (``>= 1``).

Canonical encoding invariants, enforced by :func:`_encode_runs` — the one
encoder every constructor writes its words through:

* every maximal run of all-zero / all-one *complete* groups is a single
  fill word (so two equal bitmaps have identical word arrays);
* a partial trailing group (``nbits % 31 != 0``) is always a literal and
  its padding bits are zero;
* fill lengths never exceed :data:`MAX_FILL_GROUPS`.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.errors import BitmapError, SerializationError

GROUP_BITS = 31
"""Number of bitmap bits carried by one 32-bit WAH word."""

FULL_GROUP = np.uint32(0x7FFFFFFF)
"""A literal group with all 31 bits set."""

FILL_FLAG = np.uint32(0x80000000)
"""MSB marking a fill word."""

ONE_FILL_FLAG = np.uint32(0xC0000000)
"""MSB plus fill-value bit: a fill word of ones."""

FILL_LEN_MASK = np.uint32(0x3FFFFFFF)
"""Low 30 bits of a fill word: the run length in groups."""

MAX_FILL_GROUPS = (1 << 30) - 1
"""Maximum group count representable by a single fill word (~33 Gbit)."""

_BIT_INDEX = np.arange(GROUP_BITS, dtype=np.uint32)
_BIT_MASKS = (np.uint32(1) << _BIT_INDEX).astype(np.uint32)

_MAGIC = b"WAH1"


def _as_uint32(array: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(array, dtype=np.uint32)


def _groups_for(nbits: int) -> int:
    """Number of 31-bit groups needed to hold ``nbits`` bits."""
    return (nbits + GROUP_BITS - 1) // GROUP_BITS


def _encode_runs(start, length, word, bounds, nbits: int) -> tuple:
    """The canonical words of one ``nbits``-bit bitmap per segment of
    pieces, in one ``uint32`` buffer: ``(buffer, word_bounds)``, bitmap
    ``i`` being ``buffer[word_bounds[i]:word_bounds[i + 1]]``.

    Segment ``i`` is pieces ``bounds[i]`` to ``bounds[i + 1]``, sorted
    and disjoint.  Piece ``k`` covers groups ``start[k]`` up to
    ``start[k] + length[k]``: a literal (one group, the non-zero group
    word ``word[k]``) or a run of all-one groups (``word[k] ==
    FULL_GROUP``); ``length=None`` means every piece is one group.

    The one writer of the word format: touching one-runs merge into one
    one-fill, the groups between pieces become zero fills, and a partial
    trailing group stays a literal, zero when no piece holds it.
    """
    ngroups = _groups_for(nbits)
    if ngroups > MAX_FILL_GROUPS:
        raise BitmapError("bitmap too long for a single fill word")
    partial = nbits % GROUP_BITS != 0
    bounds = np.asarray(bounds, dtype=np.int64)
    occupied = bounds[1:] > bounds[:-1]
    end = start + 1 if length is None else start + length

    # Runs: touching one-runs of a segment merge into one one-fill;
    # every literal is a run of its own.
    full = word == FULL_GROUP
    run_first = np.ones(len(word), dtype=bool)
    run_first[1:] = ~(full[1:] & full[:-1] & (start[1:] == end[:-1]))
    run_first[bounds[:-1][occupied]] = True
    run_at = np.flatnonzero(run_first)
    run_start = start[run_at]
    run_end = end[np.append(run_at, len(word))[1:] - 1]
    run_bounds = np.searchsorted(run_at, bounds)

    # Zero-fill gap in front of each run, and each segment's tail: a
    # zero fill up to the end, the partial trailing group kept literal.
    prev_end = np.zeros(len(run_at), dtype=np.int64)
    prev_end[1:] = run_end[:-1]
    prev_end[run_bounds[:-1][occupied]] = 0
    gap = run_start - prev_end
    has_gap = gap > 0
    tail = np.full(len(occupied), ngroups, dtype=np.int64)
    tail[occupied] -= run_end[run_bounds[1:][occupied] - 1]
    tail_fill = tail - partial
    has_tail_fill = tail_fill > 0
    tail_words = has_tail_fill.astype(np.int64) + ((tail > 0) & partial)

    # Buffer layout: per segment, its runs (gap fill + payload), then
    # its tail words.
    run_cum = np.concatenate(([0], np.cumsum(1 + has_gap)))
    tail_cum = np.concatenate(([0], np.cumsum(tail_words)))
    out_bounds = run_cum[run_bounds] + tail_cum
    run_out = run_cum[:-1] + np.repeat(tail_cum[:-1], np.diff(run_bounds))
    buffer = np.zeros(int(out_bounds[-1]), dtype=np.uint32)
    buffer[run_out[has_gap]] = FILL_FLAG | gap[has_gap].astype(np.uint32)
    buffer[run_out + has_gap] = np.where(
        full[run_at],
        ONE_FILL_FLAG | (run_end - run_start).astype(np.uint32),
        word[run_at],
    )
    tail_at = out_bounds[1:] - tail_words
    buffer[tail_at[has_tail_fill]] = FILL_FLAG | tail_fill[
        has_tail_fill
    ].astype(np.uint32)
    # Partial-tail literals are zero words; the buffer is zero-initialized.
    return buffer, out_bounds


class WAHBitmap:
    """An immutable WAH-compressed bitmap of ``nbits`` bits.

    Instances are value objects: all mutating-style operations return new
    bitmaps.  Two bitmaps holding the same bits compare equal and have
    identical word arrays (canonical encoding).
    """

    __slots__ = ("_words", "_nbits", "_count")

    def __init__(self, words: np.ndarray, nbits: int, _count: int | None = None):
        self._words = _as_uint32(words)
        self._nbits = int(nbits)
        self._count = _count
        if self._nbits < 0:
            raise BitmapError("nbits must be non-negative")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def _from_pieces(cls, start, length, word, nbits: int,
                     count: int | None = None) -> "WAHBitmap":
        """One bitmap of :func:`_encode_runs` pieces."""
        words, _ = _encode_runs(start, length, word, (0, len(start)), nbits)
        return cls(words, nbits, _count=count)

    @classmethod
    def _from_group_words(cls, group_words: np.ndarray, nbits: int,
                          count: int | None = None) -> "WAHBitmap":
        """Encode the full array of 31-bit group words; its non-zero
        groups are the pieces."""
        nonzero = np.flatnonzero(group_words)
        return cls._from_pieces(
            nonzero, None, group_words[nonzero], nbits, count
        )

    @classmethod
    def zeros(cls, nbits: int) -> "WAHBitmap":
        """All-zero bitmap of ``nbits`` bits."""
        return cls._from_group_words(np.empty(0, dtype=np.uint32), nbits, 0)

    @classmethod
    def ones(cls, nbits: int) -> "WAHBitmap":
        """All-one bitmap of ``nbits`` bits."""
        return cls.from_intervals([0], [nbits], nbits)

    @classmethod
    def from_dense(cls, bits) -> "WAHBitmap":
        """Compress a dense boolean array (or any 0/1 sequence)."""
        dense = np.asarray(bits, dtype=bool)
        nbits = len(dense)
        ngroups = _groups_for(nbits)
        padded = np.zeros(ngroups * GROUP_BITS, dtype=bool)
        padded[:nbits] = dense
        matrix = padded.reshape(ngroups, GROUP_BITS).astype(np.uint32)
        group_words = (matrix * _BIT_MASKS).sum(axis=1, dtype=np.uint32)
        return cls._from_group_words(group_words, nbits, int(dense.sum()))

    @classmethod
    def from_positions(cls, positions, nbits: int) -> "WAHBitmap":
        """Build from a sorted array of set-bit positions.

        Runs in ``O(len(positions))`` — independent of ``nbits`` — which is
        what makes rebuilding filtered bitmaps cheap for high-cardinality
        columns.  The one-segment case of
        :func:`repro.bitmap.batch.batch_from_positions`.
        """
        from repro.bitmap.batch import _build_words

        pos = np.asarray(positions, dtype=np.int64)
        words, _, _ = _build_words(pos, (0, len(pos)), nbits)
        return cls(words, nbits, _count=len(pos))

    @classmethod
    def from_intervals(cls, starts, ends, nbits: int) -> "WAHBitmap":
        """Build from disjoint, sorted, half-open set intervals.

        ``starts[i] <= ends[i] <= starts[i+1]``; empty intervals are
        ignored and touching ones meet in one run.  Runs in
        ``O(len(starts))``.
        """
        lo = np.asarray(starts, dtype=np.int64)
        hi = np.asarray(ends, dtype=np.int64)
        if len(lo) != len(hi):
            raise BitmapError("starts and ends must have equal length")
        keep = hi > lo
        lo, hi = lo[keep], hi[keep]
        if len(lo) and (lo[0] < 0 or hi[-1] > nbits):
            raise BitmapError("interval out of range")
        if np.any(lo[1:] < hi[:-1]):
            raise BitmapError("intervals must be disjoint and sorted")

        # Each interval is up to three pieces, in bit order: a head
        # fragment (the whole interval when it sits inside one group),
        # the whole groups it covers, and a tail fragment.
        first_edge = -(-lo // GROUP_BITS) * GROUP_BITS
        last_edge = hi // GROUP_BITS * GROUP_BITS
        head_end = np.minimum(first_edge, hi)
        piece_lo = np.column_stack(
            (lo, first_edge, np.maximum(last_edge, head_end))
        ).ravel()
        piece_hi = np.column_stack((head_end, last_edge, hi)).ravel()
        keep = piece_hi > piece_lo
        piece_lo, piece_hi = piece_lo[keep], piece_hi[keep]
        width = piece_hi - piece_lo
        start = piece_lo // GROUP_BITS
        # A fragment's mask; whole groups come out as FULL_GROUP.
        word = (
            ((1 << np.minimum(width, GROUP_BITS)) - 1)
            << (piece_lo - start * GROUP_BITS)
        ).astype(np.uint32)
        length = np.maximum(width // GROUP_BITS, 1)

        # Fragments of neighbouring intervals that share a group OR-merge.
        first = np.ones(len(start), dtype=bool)
        first[1:] = start[1:] != start[:-1]
        at = np.flatnonzero(first)
        return cls._from_pieces(
            start[at], length[at], np.bitwise_or.reduceat(word, at), nbits,
            int(width.sum()),
        )

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------

    @property
    def nbits(self) -> int:
        """Total number of bits (rows) represented."""
        return self._nbits

    @property
    def words(self) -> np.ndarray:
        """The raw WAH word array (read-only view)."""
        view = self._words.view()
        view.flags.writeable = False
        return view

    @property
    def word_count(self) -> int:
        """Number of 32-bit words in the compressed representation."""
        return len(self._words)

    @property
    def nbytes(self) -> int:
        """Compressed size in bytes (words only, excluding Python object)."""
        return self._words.nbytes

    def __len__(self) -> int:
        return self._nbits

    def __repr__(self) -> str:
        return (
            f"WAHBitmap(nbits={self._nbits}, words={self.word_count}, "
            f"count={self.count()})"
        )

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------

    def _word_fields(self):
        """Per-word (is_fill, fill_value, groups_per_word) arrays."""
        words = self._words
        is_fill = (words & FILL_FLAG) != 0
        fill_value = (words & np.uint32(0x40000000)) != 0
        groups = np.where(is_fill, words & FILL_LEN_MASK, 1).astype(np.int64)
        return is_fill, fill_value, groups

    def group_words(self) -> np.ndarray:
        """Decompress to the full array of 31-bit group words.

        This is ``O(nbits / 31)`` and is deliberately *not* used by the
        evolution algorithms on a per-value basis; it exists for logical
        operations, dense export and tests.
        """
        if self.word_count == 0:
            return np.empty(0, dtype=np.uint32)
        is_fill, fill_value, groups = self._word_fields()
        values = np.where(
            is_fill,
            np.where(fill_value, FULL_GROUP, np.uint32(0)),
            self._words & FULL_GROUP,
        ).astype(np.uint32)
        return np.repeat(values, groups)

    def to_dense(self) -> np.ndarray:
        """Decompress to a dense boolean array of length ``nbits``."""
        gw = self.group_words()
        if len(gw) == 0:
            return np.zeros(0, dtype=bool)
        matrix = (gw[:, None] >> _BIT_INDEX) & np.uint32(1)
        return matrix.reshape(-1).astype(bool)[: self._nbits]

    def positions(self) -> np.ndarray:
        """Sorted positions of all set bits.

        Cost is ``O(word_count + count)`` — proportional to the compressed
        size plus the output, not to ``nbits``.  This is the batched
        extraction kernel (:meth:`repro.bitmap.batch.WordDirectory.positions`)
        over this one bitmap.
        """
        from repro.bitmap.batch import WordDirectory

        return WordDirectory([self]).positions()[0]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def count(self) -> int:
        """Number of set bits.  ``O(word_count)``; cached."""
        if self._count is None:
            if self.word_count == 0:
                self._count = 0
            else:
                is_fill, fill_value, groups = self._word_fields()
                fills = int(groups[is_fill & fill_value].sum()) * GROUP_BITS
                lits = int(np.bitwise_count(self._words[~is_fill]).sum())
                self._count = fills + lits
        return self._count

    def first_set(self) -> int:
        """Position of the first set bit, or ``-1`` if empty.

        This is the compressed-domain primitive behind the paper's
        *distinction* step: one scan over words, stopping at the first
        one-fill or non-zero literal.
        """
        if self.word_count == 0:
            return -1
        is_fill, fill_value, groups = self._word_fields()
        interesting = (is_fill & fill_value) | (~is_fill & (self._words != 0))
        hits = np.flatnonzero(interesting)
        if len(hits) == 0:
            return -1
        word = int(hits[0])
        group_offset = int(groups[:word].sum())
        base = group_offset * GROUP_BITS
        if is_fill[word]:
            return base
        literal = int(self._words[word])
        return base + (literal & -literal).bit_length() - 1

    def get(self, position: int) -> bool:
        """Value of a single bit (``O(word_count)``; for tests and demo)."""
        if position < 0 or position >= self._nbits:
            raise BitmapError(f"bit {position} out of range [0, {self._nbits})")
        group = position // GROUP_BITS
        bit = position % GROUP_BITS
        is_fill, fill_value, groups = self._word_fields()
        cum = np.cumsum(groups)
        word = int(np.searchsorted(cum, group, side="right"))
        if is_fill[word]:
            return bool(fill_value[word])
        return bool((int(self._words[word]) >> bit) & 1)

    # ------------------------------------------------------------------
    # Logical operations
    # ------------------------------------------------------------------

    def _check_aligned(self, other: "WAHBitmap") -> None:
        if self._nbits != other._nbits:
            raise BitmapError(
                f"bitmap length mismatch: {self._nbits} vs {other._nbits}"
            )

    def __and__(self, other: "WAHBitmap") -> "WAHBitmap":
        self._check_aligned(other)
        gw = self.group_words() & other.group_words()
        return WAHBitmap._from_group_words(gw, self._nbits)

    def __or__(self, other: "WAHBitmap") -> "WAHBitmap":
        self._check_aligned(other)
        gw = self.group_words() | other.group_words()
        return WAHBitmap._from_group_words(gw, self._nbits)

    def __xor__(self, other: "WAHBitmap") -> "WAHBitmap":
        self._check_aligned(other)
        gw = self.group_words() ^ other.group_words()
        return WAHBitmap._from_group_words(gw, self._nbits)

    def invert(self) -> "WAHBitmap":
        """Bitwise NOT (respecting ``nbits``; padding stays zero)."""
        gw = (~self.group_words()) & FULL_GROUP
        tail = self._nbits % GROUP_BITS
        if len(gw) and tail:
            gw = gw.copy()
            gw[-1] &= (np.uint32(1) << np.uint32(tail)) - np.uint32(1)
        return WAHBitmap._from_group_words(gw, self._nbits)

    # ------------------------------------------------------------------
    # Equality
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WAHBitmap):
            return NotImplemented
        return self._nbits == other._nbits and np.array_equal(
            self._words, other._words
        )

    def __hash__(self) -> int:
        return hash((self._nbits, self._words.tobytes()))

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize to a self-describing byte string."""
        header = _MAGIC + struct.pack("<QI", self._nbits, self.word_count)
        return header + self._words.tobytes()

    @classmethod
    def from_bytes(cls, data: bytes) -> "WAHBitmap":
        """Inverse of :meth:`to_bytes`."""
        if data[:4] != _MAGIC:
            raise SerializationError("not a WAH bitmap: bad magic")
        nbits, nwords = struct.unpack_from("<QI", data, 4)
        expected = 4 + 12 + 4 * nwords
        if len(data) < expected:
            raise SerializationError("truncated WAH bitmap")
        words = np.frombuffer(data, dtype=np.uint32, count=nwords, offset=16)
        return cls(words.copy(), nbits)
