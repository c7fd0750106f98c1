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

Canonical encoding invariants (enforced by every constructor):

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


def _encode_group_words(group_words: np.ndarray, nbits: int) -> np.ndarray:
    """Run-compress an array of 31-bit group words into WAH words.

    The trailing partial group (if any) is forced to stay a literal so
    that one-fills never cover padding bits.
    """
    ngroups = _groups_for(nbits)
    if len(group_words) != ngroups:
        raise BitmapError(
            f"group word count {len(group_words)} does not match nbits "
            f"{nbits} (expected {ngroups} groups)"
        )
    if ngroups == 0:
        return np.empty(0, dtype=np.uint32)

    gw = _as_uint32(group_words)
    partial_tail = nbits % GROUP_BITS != 0

    # Classify each group: 0 = zero fill, 1 = one fill, 2 = literal.
    cls = np.full(ngroups, 2, dtype=np.int8)
    cls[gw == 0] = 0
    cls[gw == FULL_GROUP] = 1
    if partial_tail:
        cls[-1] = 2  # a partial group is always a literal

    # Maximal runs of equal class.
    if ngroups == 1:
        starts = np.array([0], dtype=np.int64)
        ends = np.array([1], dtype=np.int64)
    else:
        change = np.flatnonzero(cls[1:] != cls[:-1]).astype(np.int64) + 1
        starts = np.concatenate(([0], change))
        ends = np.concatenate((change, [ngroups]))
    run_cls = cls[starts]
    run_len = ends - starts

    # Output word count per run: one word per fill run (split if over-long),
    # run_len words per literal run.
    is_fill = run_cls != 2
    fill_words = np.zeros(len(starts), dtype=np.int64)
    fill_words[is_fill] = (run_len[is_fill] + MAX_FILL_GROUPS - 1) // MAX_FILL_GROUPS
    out_per_run = np.where(is_fill, fill_words, run_len)
    offsets = np.concatenate(([0], np.cumsum(out_per_run)))
    out = np.zeros(offsets[-1], dtype=np.uint32)

    # Emit fill words.  Over-long fills are split into MAX_FILL_GROUPS
    # chunks; in practice a single fill word nearly always suffices.
    fill_runs = np.flatnonzero(is_fill)
    simple = fill_runs[fill_words[fill_runs] == 1]
    if len(simple):
        header = FILL_FLAG | (run_cls[simple].astype(np.uint32) << np.uint32(30))
        out[offsets[simple]] = header | run_len[simple].astype(np.uint32)
    for run in fill_runs[fill_words[fill_runs] > 1]:  # pragma: no cover - huge
        remaining = int(run_len[run])
        header = FILL_FLAG | (np.uint32(run_cls[run]) << np.uint32(30))
        position = offsets[run]
        while remaining > 0:
            chunk = min(remaining, MAX_FILL_GROUPS)
            out[position] = header | np.uint32(chunk)
            remaining -= chunk
            position += 1

    # Emit literal words: scatter the original group words into place.
    lit_groups = np.flatnonzero(cls == 2)
    if len(lit_groups):
        run_of_group = np.searchsorted(starts, lit_groups, side="right") - 1
        target = offsets[run_of_group] + (lit_groups - starts[run_of_group])
        out[target] = gw[lit_groups]
    return out


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
    def zeros(cls, nbits: int) -> "WAHBitmap":
        """All-zero bitmap of ``nbits`` bits."""
        if nbits == 0:
            return cls(np.empty(0, dtype=np.uint32), 0, _count=0)
        ngroups = _groups_for(nbits)
        partial = nbits % GROUP_BITS != 0
        words: list[int] = []
        remaining = ngroups - 1 if partial else ngroups
        while remaining > 0:
            chunk = min(remaining, MAX_FILL_GROUPS)
            words.append(int(FILL_FLAG) | chunk)
            remaining -= chunk
        if partial:
            words.append(0)
        return cls(np.array(words, dtype=np.uint32), nbits, _count=0)

    @classmethod
    def ones(cls, nbits: int) -> "WAHBitmap":
        """All-one bitmap of ``nbits`` bits."""
        if nbits == 0:
            return cls(np.empty(0, dtype=np.uint32), 0, _count=0)
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
        count = int(dense.sum())
        return cls(_encode_group_words(group_words, nbits), nbits, _count=count)

    @classmethod
    def from_positions(cls, positions, nbits: int) -> "WAHBitmap":
        """Build from a sorted array of set-bit positions.

        Runs in ``O(len(positions))`` — independent of ``nbits`` — which is
        what makes rebuilding filtered bitmaps cheap for high-cardinality
        columns.
        """
        pos = np.asarray(positions, dtype=np.int64)
        if len(pos) == 0:
            return cls.zeros(nbits)
        if pos[0] < 0 or pos[-1] >= nbits:
            raise BitmapError("position out of range")
        if np.any(pos[1:] <= pos[:-1]):
            raise BitmapError("positions must be strictly increasing")

        group = pos // GROUP_BITS
        bit = (pos % GROUP_BITS).astype(np.uint32)
        unique_groups, first_index = np.unique(group, return_index=True)
        boundaries = first_index.astype(np.int64)
        words_per_group = np.bitwise_or.reduceat(
            (np.uint32(1) << bit).astype(np.uint32), boundaries
        )
        return cls._from_sparse_groups(
            unique_groups, words_per_group, nbits, count=len(pos)
        )

    @classmethod
    def from_intervals(cls, starts, ends, nbits: int) -> "WAHBitmap":
        """Build from disjoint, sorted, half-open set intervals.

        ``starts[i] <= ends[i] <= starts[i+1]``; adjacent or empty
        intervals are tolerated and merged.  Runs in ``O(len(starts))``.
        """
        lo = np.asarray(starts, dtype=np.int64)
        hi = np.asarray(ends, dtype=np.int64)
        if len(lo) != len(hi):
            raise BitmapError("starts and ends must have equal length")
        keep = hi > lo
        lo, hi = lo[keep], hi[keep]
        if len(lo) == 0:
            return cls.zeros(nbits)
        if lo[0] < 0 or hi[-1] > nbits:
            raise BitmapError("interval out of range")
        if np.any(lo[1:] < hi[:-1]):
            raise BitmapError("intervals must be disjoint and sorted")
        # Merge touching intervals so boundary groups are handled once.
        if np.any(lo[1:] == hi[:-1]):
            gap = np.concatenate(([True], lo[1:] > hi[:-1]))
            lo = lo[gap]
            hi = hi[np.concatenate((np.flatnonzero(gap)[1:] - 1, [len(hi) - 1]))]
        count = int((hi - lo).sum())

        # Split each interval into: an optional head fragment (partial
        # first group), a run of fully covered groups (one-fill), and an
        # optional tail fragment (partial last group).  Intervals living
        # inside a single group are pure fragments.
        g0 = lo // GROUP_BITS
        g1 = (hi - 1) // GROUP_BITS
        single = g0 == g1
        frag_groups = []
        frag_words = []

        def _mask(start_bit: np.ndarray, end_bit: np.ndarray) -> np.ndarray:
            start = start_bit.astype(np.uint32)
            width = (end_bit - start_bit).astype(np.uint32)
            return np.where(
                width >= GROUP_BITS,
                FULL_GROUP,
                ((np.uint32(1) << width) - np.uint32(1)) << start,
            ).astype(np.uint32)

        # Single-group intervals narrower than a full group.
        narrow = single & ((hi - lo) < GROUP_BITS)
        if np.any(narrow):
            frag_groups.append(g0[narrow])
            frag_words.append(_mask(lo[narrow] % GROUP_BITS, hi[narrow] - g0[narrow] * GROUP_BITS))

        head = ~single & (lo % GROUP_BITS != 0)
        if np.any(head):
            frag_groups.append(g0[head])
            frag_words.append(
                _mask(lo[head] % GROUP_BITS, np.full(int(head.sum()), GROUP_BITS))
            )

        tail = ~single & (hi % GROUP_BITS != 0)
        if np.any(tail):
            frag_groups.append(g1[tail])
            frag_words.append(_mask(np.zeros(int(tail.sum()), dtype=np.int64), hi[tail] % GROUP_BITS))

        # Fully covered groups (including exactly-one-group intervals).
        full_lo = np.where(single, g0, -(-lo // GROUP_BITS))
        full_hi = np.where(single, g0 + 1, hi // GROUP_BITS)
        full_keep = ~narrow & (full_hi > full_lo)
        full_lo = full_lo[full_keep]
        full_hi = full_hi[full_keep]

        # Aggregate fragments that landed in the same group.
        if frag_groups:
            fg = np.concatenate(frag_groups)
            fw = np.concatenate(frag_words)
            order = np.argsort(fg, kind="stable")
            fg, fw = fg[order], fw[order]
            ug, first = np.unique(fg, return_index=True)
            agg = np.bitwise_or.reduceat(fw, first.astype(np.int64))
        else:
            ug = np.empty(0, dtype=np.int64)
            agg = np.empty(0, dtype=np.uint32)

        return cls._from_segments(full_lo, full_hi, ug, agg, nbits, count)

    @classmethod
    def from_runs(cls, runs, nbits: int) -> "WAHBitmap":
        """Build from ``[(value, length_in_bits), ...]`` alternating runs.

        Runs may have arbitrary values/lengths; they are converted to set
        intervals.  ``sum(lengths)`` may be less than ``nbits`` (the rest
        is zero).
        """
        starts = []
        ends = []
        cursor = 0
        for value, length in runs:
            if length < 0:
                raise BitmapError("run length must be non-negative")
            if value:
                starts.append(cursor)
                ends.append(cursor + length)
            cursor += length
        if cursor > nbits:
            raise BitmapError("runs exceed nbits")
        return cls.from_intervals(starts, ends, nbits)

    @classmethod
    def _from_sparse_groups(
        cls,
        groups: np.ndarray,
        group_values: np.ndarray,
        nbits: int,
        count: int | None = None,
    ) -> "WAHBitmap":
        """Build from (sorted unique group index, group word) pairs.

        Groups not listed are zero.  Runs in ``O(len(groups))``.
        """
        empty = np.empty(0, dtype=np.int64)
        return cls._from_segments(
            empty, empty, groups, group_values, nbits, count
        )

    @classmethod
    def _from_segments(
        cls,
        fill_lo: np.ndarray,
        fill_hi: np.ndarray,
        lit_groups: np.ndarray,
        lit_words: np.ndarray,
        nbits: int,
        count: int | None,
    ) -> "WAHBitmap":
        """Assemble WAH words from one-fill group ranges plus literal groups.

        The ranges ``[fill_lo, fill_hi)`` and the literal groups must be
        mutually disjoint.  Zero gaps are synthesized between segments.
        The result is canonicalized (adjacent fills merged, all-zero /
        all-one literals folded into fills) by a final tidy pass.
        """
        ngroups = _groups_for(nbits)
        # Represent every segment as (start_group, end_group, kind, payload).
        seg_start = np.concatenate((fill_lo, lit_groups))
        seg_end = np.concatenate((fill_hi, lit_groups + 1))
        seg_is_fill = np.concatenate(
            (np.ones(len(fill_lo), dtype=bool), np.zeros(len(lit_groups), dtype=bool))
        )
        seg_word = np.concatenate(
            (np.zeros(len(fill_lo), dtype=np.uint32), _as_uint32(lit_words))
        )
        order = np.argsort(seg_start, kind="stable")
        seg_start = seg_start[order]
        seg_end = seg_end[order]
        seg_is_fill = seg_is_fill[order]
        seg_word = seg_word[order]

        if len(seg_start) and (
            np.any(seg_start[1:] < seg_end[:-1])
            or (len(seg_end) and seg_end[-1] > ngroups)
        ):
            raise BitmapError("segments overlap or exceed bitmap length")

        # Gap (zero-fill) before each segment and after the last one.
        prev_end = np.concatenate(([0], seg_end[:-1])) if len(seg_start) else np.empty(
            0, dtype=np.int64
        )
        gaps = seg_start - prev_end
        tail_gap = ngroups - (seg_end[-1] if len(seg_end) else 0)

        words_per_seg = 1 + (gaps > 0).astype(np.int64)
        offsets = np.concatenate(([0], np.cumsum(words_per_seg)))

        partial_tail = nbits % GROUP_BITS != 0
        tail_words = 0
        if tail_gap > 0:
            # A partial trailing group must stay a literal; a zero gap
            # reaching it is emitted as (fill, literal-0) so that no
            # canonicalization pass is needed afterwards.
            tail_words = 2 if (partial_tail and tail_gap > 1) else 1
        total = int(offsets[-1]) + tail_words
        out = np.zeros(total, dtype=np.uint32)

        if len(seg_start):
            gap_positions = offsets[:-1][gaps > 0]
            out[gap_positions] = FILL_FLAG | gaps[gaps > 0].astype(np.uint32)
            seg_positions = offsets[:-1] + (gaps > 0)
            fill_len = (seg_end - seg_start).astype(np.uint32)
            payload = np.where(seg_is_fill, ONE_FILL_FLAG | fill_len, seg_word)
            out[seg_positions] = payload.astype(np.uint32)
        if tail_gap > 0:
            if partial_tail:
                if tail_gap > 1:
                    out[-2] = FILL_FLAG | np.uint32(tail_gap - 1)
                out[-1] = 0  # literal partial tail group
            else:
                out[-1] = FILL_FLAG | np.uint32(tail_gap)

        bitmap = cls(out, nbits, _count=count)
        return bitmap._canonicalized()

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

    def group_offsets(self) -> np.ndarray:
        """Starting group index of each word."""
        _, _, groups = self._word_fields()
        return np.concatenate(([0], np.cumsum(groups)[:-1])).astype(np.int64)

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

    def one_intervals(self) -> tuple[np.ndarray, np.ndarray]:
        """Maximal intervals ``[start, end)`` of consecutive set bits.

        Fill words yield whole-group intervals directly; literal words are
        expanded only locally.  Adjacent intervals are merged, so the
        result is the canonical run representation of the set bits.
        """
        if self.count() == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        is_fill, fill_value, groups = self._word_fields()
        group_offset = np.concatenate(([0], np.cumsum(groups)[:-1]))

        starts_parts = []
        ends_parts = []
        order_keys = []

        fill_idx = np.flatnonzero(is_fill & fill_value)
        if len(fill_idx):
            fs = group_offset[fill_idx] * GROUP_BITS
            fe = fs + groups[fill_idx] * GROUP_BITS
            starts_parts.append(fs)
            ends_parts.append(fe)
            order_keys.append(fs)

        lit_idx = np.flatnonzero(~is_fill)
        if len(lit_idx):
            lw = self._words[lit_idx]
            matrix = ((lw[:, None] >> _BIT_INDEX) & np.uint32(1)).astype(bool)
            padded = np.zeros((len(lit_idx), GROUP_BITS + 2), dtype=bool)
            padded[:, 1:-1] = matrix
            rising = padded[:, 1:] & ~padded[:, :-1]
            falling = ~padded[:, 1:] & padded[:, :-1]
            row_r, bit_r = np.nonzero(rising)
            row_f, bit_f = np.nonzero(falling)
            base = group_offset[lit_idx] * GROUP_BITS
            ls = base[row_r] + bit_r
            le = base[row_f] + bit_f
            starts_parts.append(ls)
            ends_parts.append(le)
            order_keys.append(ls)

        starts = np.concatenate(starts_parts)
        ends = np.concatenate(ends_parts)
        order = np.argsort(np.concatenate(order_keys), kind="stable")
        starts, ends = starts[order], ends[order]

        # Merge intervals that touch (end == next start).
        if len(starts) > 1:
            keep = np.concatenate(([True], starts[1:] != ends[:-1]))
            group_id = np.cumsum(keep) - 1
            merged_starts = starts[keep]
            merged_ends = np.zeros(group_id[-1] + 1, dtype=np.int64)
            merged_ends[group_id] = ends  # last write per group wins
            starts, ends = merged_starts, merged_ends
        return starts, ends

    def runs(self) -> list[tuple[int, int]]:
        """All maximal ``(bit_value, length)`` runs, covering every bit."""
        starts, ends = self.one_intervals()
        result: list[tuple[int, int]] = []
        cursor = 0
        for s, e in zip(starts.tolist(), ends.tolist()):
            if s > cursor:
                result.append((0, s - cursor))
            result.append((1, e - s))
            cursor = e
        if cursor < self._nbits:
            result.append((0, self._nbits - cursor))
        return result

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
    # The paper's structural operations
    # ------------------------------------------------------------------

    def select(self, sorted_positions: np.ndarray) -> "WAHBitmap":
        """Bitmap filtering: keep only the bits at ``sorted_positions``.

        Returns a bitmap of length ``len(sorted_positions)`` whose bit
        ``i`` equals ``self.get(sorted_positions[i])``.  This is the
        "shrink their bitmap by only taking the bits specified in the
        position list" operation of Section 2.4, executed on the interval
        (run) representation: each set-interval of the old bitmap maps to
        a rank-space interval of the new one via binary search, so the
        cost is ``O(intervals * log |P|)`` with no per-row work.
        """
        pos = np.asarray(sorted_positions, dtype=np.int64)
        starts, ends = self.one_intervals()
        lo = np.searchsorted(pos, starts, side="left")
        hi = np.searchsorted(pos, ends, side="left")
        return WAHBitmap.from_intervals(lo, hi, len(pos))

    def concat(self, other: "WAHBitmap") -> "WAHBitmap":
        """Concatenate two bitmaps (``self`` first).

        Works on the interval representation, so fills stay fills; only
        the boundary groups are re-encoded.
        """
        s1, e1 = self.one_intervals()
        s2, e2 = other.one_intervals()
        starts = np.concatenate((s1, s2 + self._nbits))
        ends = np.concatenate((e1, e2 + self._nbits))
        return WAHBitmap.from_intervals(starts, ends, self._nbits + other._nbits)

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
        return WAHBitmap(_encode_group_words(gw, self._nbits), self._nbits)

    def __or__(self, other: "WAHBitmap") -> "WAHBitmap":
        self._check_aligned(other)
        gw = self.group_words() | other.group_words()
        return WAHBitmap(_encode_group_words(gw, self._nbits), self._nbits)

    def __xor__(self, other: "WAHBitmap") -> "WAHBitmap":
        self._check_aligned(other)
        gw = self.group_words() ^ other.group_words()
        return WAHBitmap(_encode_group_words(gw, self._nbits), self._nbits)

    def invert(self) -> "WAHBitmap":
        """Bitwise NOT (respecting ``nbits``; padding stays zero)."""
        gw = (~self.group_words()) & FULL_GROUP
        tail = self._nbits % GROUP_BITS
        if len(gw) and tail:
            gw = gw.copy()
            gw[-1] &= (np.uint32(1) << np.uint32(tail)) - np.uint32(1)
        return WAHBitmap(_encode_group_words(gw, self._nbits), self._nbits)

    # ------------------------------------------------------------------
    # Equality & canonical form
    # ------------------------------------------------------------------

    def _canonicalized(self) -> "WAHBitmap":
        """Canonicalize word-level: merge adjacent same-value fills and
        fold fill-shaped literals, without expanding to groups.

        Runs in ``O(word_count)``; constructors that assemble words
        directly rely on it to guarantee that equal bitmaps share
        identical word arrays.
        """
        words = self._words
        n = len(words)
        if n == 0:
            return self
        is_fill = (words & FILL_FLAG) != 0
        partial = self._nbits % GROUP_BITS != 0
        if partial and bool(is_fill[-1]):
            # A fill covering the partial tail group: constructors avoid
            # this; fall back to the full re-encode for safety.
            return WAHBitmap(
                _encode_group_words(self.group_words(), self._nbits),
                self._nbits,
                _count=self._count,
            )

        kind = np.full(n, 2, dtype=np.int8)
        kind[is_fill & ((words >> np.uint32(30)) & np.uint32(1) == 0)] = 0
        kind[is_fill & ((words >> np.uint32(30)) & np.uint32(1) == 1)] = 1
        kind[~is_fill & (words == 0)] = 0
        kind[~is_fill & (words == FULL_GROUP)] = 1
        if partial:
            kind[-1] = 2  # the trailing partial group stays a literal

        foldable = ~is_fill & (kind != 2)
        adjacent = (
            bool(np.any((kind[1:] == kind[:-1]) & (kind[1:] != 2)))
            if n > 1
            else False
        )
        if not foldable.any() and not adjacent:
            return self

        lengths = np.where(
            is_fill, (words & FILL_LEN_MASK).astype(np.int64), 1
        )
        change = np.ones(n, dtype=bool)
        change[1:] = (kind[1:] != kind[:-1]) | (kind[1:] == 2)
        starts = np.flatnonzero(change)
        run_kind = kind[starts]
        run_groups = np.add.reduceat(lengths, starts)

        oversize = (run_kind != 2) & (run_groups > MAX_FILL_GROUPS)
        if np.any(oversize):  # pragma: no cover - ~33 Gbit runs
            return WAHBitmap(
                _encode_group_words(self.group_words(), self._nbits),
                self._nbits,
                _count=self._count,
            )

        out = np.empty(len(starts), dtype=np.uint32)
        fills = run_kind != 2
        out[fills] = (
            FILL_FLAG
            | (run_kind[fills].astype(np.uint32) << np.uint32(30))
            | run_groups[fills].astype(np.uint32)
        )
        out[~fills] = words[starts[~fills]]
        return WAHBitmap(out, self._nbits, _count=self._count)

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
