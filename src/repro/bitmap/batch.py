"""Batched (column-level) kernels over a column's packed WAH words.

A bitmap-encoded column holds one compressed bitmap per distinct value —
up to hundreds of thousands of them — and keeps them *packed*
(:class:`PackedBitmaps`): one ``uint32`` buffer with every value's words
back to back, one ``int64`` word offset per value plus one, and each
value's set-bit count.  The operations the evolution algorithms perform
across *all* value bitmaps of a column (distinction's first-set-bit,
cardinality counts, full position decode, and building, filtering and
concatenating every bitmap) are single vectorized passes that read and
write that packed form: no Python object is made per value.  A
:class:`~repro.bitmap.wah.WAHBitmap` exists only when a caller asks for
one value's bitmap, as a view over its slice of the buffer.  The
semantics are identical to looping over ``WAHBitmap`` methods; tests
assert equivalence.

Every bitmap of a column spans the same ``ceil(nbits / 31)`` groups, so
one kernel (:func:`_column_positions`) extracts positions in
*column-wide* position space, the bitmaps laid end to end: a word's
place is the running sum of the groups before it, and a position
modulo the span is the row — no map from words to bitmaps.  Positions,
decoded vids, first set bits and one value's ``positions()`` all come
from it.  It peels set bits off the literal words — the lowest set bit
of every live word per round — so it costs the bits it returns plus
the words, never a bit matrix.  Column builds group their rows by vid
in a counting order (:func:`counting_order`).  Concatenation does not
extract its left side at all: the left bitmaps' words up to their
partial tail group are spliced into the output as they are, and only
that tail group and the right side are rebuilt.
"""

from __future__ import annotations

import struct
from typing import NamedTuple

import numpy as np

from repro.bitmap.wah import (
    _MAGIC,
    FILL_FLAG,
    FILL_LEN_MASK,
    GROUP_BITS,
    MAX_FILL_GROUPS,
    ONE_FILL_FLAG,
    WAHBitmap,
    _encode_runs,
    _groups_for,
)
from repro.errors import BitmapError, SerializationError

#: 32-bit words of a stored bitmap block before its WAH words: the block's
#: byte length, then ``WAHBitmap.to_bytes``' magic, bit count (low and
#: high word) and word count.
_BLOCK_HEADER_WORDS = 5
_MAGIC_WORD = int.from_bytes(_MAGIC, "little")


def _exclusive_cumsum(values) -> np.ndarray:
    """``[0, v0, v0 + v1, ...]``: the offsets of segments of these sizes."""
    out = np.zeros(len(values) + 1, dtype=np.int64)
    np.cumsum(values, out=out[1:])
    return out


def counting_order(keys: np.ndarray, nkeys: int) -> np.ndarray:
    """Indices of ``keys`` (each in ``[0, nkeys)``) grouped by key,
    ascending within a key: a stable argsort on the narrowest unsigned
    key, which NumPy radix-sorts when it is 8 or 16 bits wide.  Past
    65 536 keys, two 16-bit passes, low half first (LSD)."""
    if nkeys <= 1 << 8:
        return np.argsort(keys.astype(np.uint8, copy=False), kind="stable")
    low = np.argsort(keys.astype(np.uint16, copy=False), kind="stable")
    if nkeys <= 1 << 16:
        return low
    high = (keys[low] >> 16).astype(np.uint16)
    return low[np.argsort(high, kind="stable")]


class PackedBitmaps:
    """The ``nbits``-bit WAH bitmaps of one column in one word buffer.

    Bitmap ``i`` is ``words[offsets[i]:offsets[i + 1]]`` and has
    ``counts[i]`` set bits.  Every batched kernel takes and returns this
    form.  As a sequence it is read-only: ``len``, indexing, slicing and
    iteration hand out :class:`WAHBitmap` views over the buffer, made
    on request.
    """

    __slots__ = ("words", "offsets", "_counts", "nbits")

    def __init__(self, words: np.ndarray, offsets: np.ndarray,
                 counts: np.ndarray | None, nbits: int):
        """``counts=None`` leaves the set bits to be counted from the
        words on first use."""
        self.words = words
        self.offsets = offsets
        self._counts = counts
        self.nbits = int(nbits)

    @property
    def counts(self) -> np.ndarray:
        """Set bits of each bitmap."""
        if self._counts is None:
            before = _exclusive_cumsum(_word_layout(self.words)[1])
            self._counts = before[self.offsets[1:]] - before[self.offsets[:-1]]
        return self._counts

    @classmethod
    def pack(cls, bitmaps, nbits: int | None = None) -> "PackedBitmaps":
        """``bitmaps`` in packed form: a :class:`PackedBitmaps` as it
        is, a sequence of :class:`WAHBitmap` copied into one buffer.
        Raises :class:`BitmapError` unless every bitmap has ``nbits``
        bits (by default, the first one's)."""
        if isinstance(bitmaps, PackedBitmaps):
            if nbits is not None and bitmaps.nbits != nbits:
                raise BitmapError(
                    f"{bitmaps.nbits}-bit bitmaps where {nbits} bits are "
                    "expected"
                )
            return bitmaps
        bitmaps = list(bitmaps)
        if nbits is None:
            nbits = bitmaps[0].nbits if bitmaps else 0
        wrong = {bm.nbits for bm in bitmaps} - {nbits}
        if wrong:
            raise BitmapError(
                f"a bitmap of {min(wrong)} bits among {nbits}-bit ones"
            )
        arrays = [bm._words for bm in bitmaps]
        if len(arrays) == 1:
            words = arrays[0]
        else:
            words = (
                np.concatenate(arrays) if arrays
                else np.empty(0, dtype=np.uint32)
            )
        return cls(
            words, _exclusive_cumsum([len(a) for a in arrays]), None, nbits
        )

    @classmethod
    def zeros(cls, count: int, nbits: int) -> "PackedBitmaps":
        """``count`` all-zero ``nbits``-bit bitmaps."""
        none = np.empty(0, dtype=np.int64)
        words, offsets = _encode_runs(
            none, None, none.astype(np.uint32),
            np.zeros(count + 1, dtype=np.int64), nbits,
        )
        return cls(words, offsets, np.zeros(count, dtype=np.int64), nbits)

    def take(self, index) -> "PackedBitmaps":
        """The bitmaps under ``index``, in that order, gathered into a
        buffer of their own."""
        index = np.asarray(index, dtype=np.int64)
        starts = self.offsets[index]
        lengths = self.offsets[index + 1] - starts
        offsets = _exclusive_cumsum(lengths)
        gather = np.arange(offsets[-1]) + np.repeat(
            starts - offsets[:-1], lengths
        )
        return PackedBitmaps(
            self.words[gather], offsets, self.counts[index], self.nbits
        )

    def to_blocks(self) -> bytes:
        """Every bitmap as ``u32 byte length | WAHBitmap.to_bytes()``,
        the bytes a loop over the bitmaps would write, laid out in one
        pass over the buffer.  Every field of a block is a 32-bit word:
        its byte length, the magic, the bit count (low and high word),
        the word count, then the words."""
        lengths = np.diff(self.offsets)
        heads = self.offsets[:-1] + _BLOCK_HEADER_WORDS * np.arange(
            len(lengths)
        )
        out = np.empty(
            len(self.words) + _BLOCK_HEADER_WORDS * len(lengths), dtype="<u4"
        )
        out[heads] = 16 + 4 * lengths
        out[heads + 1] = _MAGIC_WORD
        out[heads + 2] = self.nbits & 0xFFFFFFFF
        out[heads + 3] = self.nbits >> 32
        out[heads + 4] = lengths
        is_word = np.ones(len(out), dtype=bool)
        is_word[heads[:, None] + np.arange(_BLOCK_HEADER_WORDS)] = False
        out[is_word] = self.words
        return out.tobytes()

    @classmethod
    def from_blocks(cls, data: bytes, start: int, count: int, nbits: int
                    ) -> tuple["PackedBitmaps", int]:
        """Inverse of :meth:`to_blocks`: ``count`` blocks of ``data``
        from offset ``start``, read straight into one word buffer, and
        the offset just past them.  Only the walk from block to block
        is a Python loop; the headers are checked and the words
        gathered in one vectorized pass.  Raises
        :class:`SerializationError` on a truncated or foreign block and
        :class:`BitmapError` on one that is not ``nbits`` long."""
        heads = []
        end = start
        for _ in range(count):
            if end + 4 > len(data):
                raise SerializationError("truncated WAH bitmap block")
            heads.append(end)
            end += 4 + struct.unpack_from("<I", data, end)[0]
        if end > len(data):
            raise SerializationError("truncated WAH bitmap block")
        if (end - start) % 4:
            raise SerializationError("a WAH bitmap block of a partial word")
        section = np.frombuffer(
            data, dtype="<u4", count=(end - start) // 4, offset=start
        )
        heads = (np.array(heads, dtype=np.int64) - start) // 4
        if len(heads) and heads[-1] + _BLOCK_HEADER_WORDS > len(section):
            raise SerializationError("truncated WAH bitmap")
        if np.any(section[heads + 1] != _MAGIC_WORD):
            raise SerializationError("not a WAH bitmap: bad magic")
        lengths = section[heads + 4].astype(np.int64)
        if np.any(section[heads] != 16 + 4 * lengths):
            raise SerializationError(
                "a WAH bitmap block whose length is not its words'"
            )
        widths = section[heads + 2] | (
            section[heads + 3].astype(np.uint64) << np.uint64(32)
        )
        wrong = widths[widths != nbits]
        if len(wrong):
            raise BitmapError(
                f"a bitmap of {int(wrong.min())} bits among {nbits}-bit ones"
            )
        offsets = _exclusive_cumsum(lengths)
        words = section[
            np.arange(offsets[-1])
            + np.repeat(heads + _BLOCK_HEADER_WORDS - offsets[:-1], lengths)
        ].astype(np.uint32, copy=False)
        return cls(words, offsets, None, nbits), end

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        vid = range(len(self))[index]
        return WAHBitmap(
            self.words[self.offsets[vid]:self.offsets[vid + 1]],
            self.nbits, _count=int(self.counts[vid]),
        )

    def __iter__(self):
        edges = self.offsets.tolist()
        for lo, hi, count in zip(edges, edges[1:], self.counts.tolist()):
            yield WAHBitmap(self.words[lo:hi], self.nbits, _count=count)

    def __repr__(self) -> str:
        return (
            f"PackedBitmaps({len(self)} bitmaps of {self.nbits} bits, "
            f"{len(self.words)} words)"
        )


def _span(nbits: int) -> int:
    """Bits one ``nbits``-bit bitmap spans in column-wide position
    space: its groups' bits."""
    return _groups_for(nbits) * GROUP_BITS


def _word_layout(words: np.ndarray) -> tuple:
    """Where each word of a column's packed buffer starts in
    column-wide position space, and how many bits it sets.

    Every bitmap of an ``nbits``-bit column spans exactly
    ``ceil(nbits / 31)`` groups, so its bitmaps laid end to end put
    bitmap ``i``'s bit ``b`` at column-wide position ``i * span + b``
    (:func:`_span`): a word starts at 31 times the groups of all words
    before it, with no per-bitmap bookkeeping, and a column-wide
    position modulo ``span`` is the row.  Returns ``(start, set_bits,
    literals, one_fills)``: per word its first position and its set
    bits (a literal's popcount, a one-fill's groups times 31, none for
    a zero fill), then the indices of the non-zero literals and of the
    one-fills.
    """
    literal = words < FILL_FLAG
    groups = np.where(literal, 1, words & FILL_LEN_MASK)
    start = _exclusive_cumsum(groups)[:-1]
    start *= GROUP_BITS
    set_bits = np.bitwise_count(words) * literal
    literals = np.flatnonzero(set_bits)
    one_fills = np.flatnonzero(words >= ONE_FILL_FLAG)
    if len(one_fills):
        set_bits = set_bits.astype(np.int64)
        set_bits[one_fills] = groups[one_fills] * np.int64(GROUP_BITS)
    return start, set_bits, literals, one_fills


def _column_positions(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every set bit of a column's packed words, in column-wide
    position space (:func:`_word_layout`), ascending: ``(positions,
    out_offsets)``, word ``k``'s bits being
    ``positions[out_offsets[k]:out_offsets[k + 1]]``.  The one
    extraction kernel behind :func:`batch_positions`,
    :func:`batch_decode_vids` and :meth:`WAHBitmap.positions`.

    A one-fill's bits are a range; a literal's are peeled off
    (:func:`_peel_literals`).  The work is the words plus the bits
    returned.
    """
    start, set_bits, literals, one_fills = _word_layout(words)
    out_offsets = _exclusive_cumsum(set_bits)
    positions = np.empty(out_offsets[-1], dtype=np.int64)
    if len(one_fills):
        # Fill k's bits are positions[out[k] + j] = start[k] + j.
        lengths = set_bits[one_fills]
        first = out_offsets[one_fills]
        dest = np.arange(int(lengths.sum()), dtype=np.int64) + np.repeat(
            first - _exclusive_cumsum(lengths)[:-1], lengths
        )
        positions[dest] = dest + np.repeat(start[one_fills] - first, lengths)
    _peel_literals(
        words[literals], out_offsets[literals], start[literals], positions
    )
    return positions, out_offsets


def _peel_literals(words, dest, base, out) -> None:
    """Write the set bits of literal ``words`` into ``out``: the ``n``-th
    set bit ``b`` of word ``k`` lands at ``out[dest[k] + n]`` as
    ``base[k] + b``.  Updates ``words`` and ``dest`` in place.

    Each round drops the words that are empty, takes the lowest set bit
    of every other word (``w & -w``; its index is the popcount below
    it) and clears it — the work is the set bits plus the words.
    """
    while True:
        live = np.flatnonzero(words)
        if not len(live):
            return
        if len(live) < len(words):
            words, dest, base = words[live], dest[live], base[live]
        low = words & -words
        out[dest] = base + np.bitwise_count(low - np.uint32(1))
        words ^= low
        dest += 1


def batch_first_set(bitmaps) -> np.ndarray:
    """First set bit of each bitmap (-1 when empty), one pass over the
    words: each bitmap's first word that sets a bit, placed in
    column-wide position space (:func:`_word_layout`) and made local."""
    packed = PackedBitmaps.pack(bitmaps)
    words, offsets = packed.words, packed.offsets
    start, set_bits, _, _ = _word_layout(words)
    hits = np.flatnonzero(set_bits)
    first = np.searchsorted(hits, offsets[:-1])
    found = first < len(hits)
    found[found] = hits[first[found]] < offsets[1:][found]
    at = hits[first[found]]
    word = words[at]
    # A literal's lowest set bit; a one-fill sets its first bit.
    low_bit = np.bitwise_count((word & -word) - np.uint32(1))
    low_bit[word >= FILL_FLAG] = 0
    result = np.full(len(packed), -1, dtype=np.int64)
    result[found] = (start[at] + low_bit) % _span(packed.nbits)
    return result


def batch_positions(bitmaps) -> tuple[np.ndarray, np.ndarray]:
    """All set-bit positions of all bitmaps, one vectorized pass.

    Returns ``(positions, boundaries)`` where positions of bitmap ``i``
    are ``positions[boundaries[i]:boundaries[i+1]]``, sorted.  The
    column-wide positions of :func:`_column_positions`, made local by
    one subtraction of ``i`` spans (a remainder).
    """
    packed = PackedBitmaps.pack(bitmaps)
    positions, out_offsets = _column_positions(packed.words)
    positions %= _span(packed.nbits)
    return positions, out_offsets[packed.offsets]


def batch_decode_vids(bitmaps, nrows: int) -> np.ndarray:
    """Row-order vid array of a whole column, one pass.

    Equivalent to scattering ``positions()`` of every bitmap; this is
    the column "sequential scan" (decompression) primitive.  Each
    column-wide position (:func:`_column_positions`) divides into its
    bitmap's vid and its row, so no per-bitmap boundaries are needed.
    """
    packed = PackedBitmaps.pack(bitmaps)
    positions, _ = _column_positions(packed.words)
    if len(positions) != nrows:
        from repro.errors import StorageError

        raise StorageError(
            f"bitmaps cover {len(positions)} rows of {nrows}"
        )
    vid, row = np.divmod(positions, _span(packed.nbits))
    vids = np.empty(nrows, dtype=np.int64)
    vids[row] = vid
    return vids


def batch_validate(bitmaps, nbits: int) -> None:
    """Raise :class:`BitmapError` unless every bitmap is a well-formed
    ``nbits``-bit word array, checked in one pass over the packed
    words: its length is ``nbits``, its words cover exactly
    ``ceil(nbits / 31)`` groups, no fill is empty and, when the last
    group is partial, the last word is a literal with no padding bit
    set.  The load-time guard of words read from a file."""
    packed = PackedBitmaps.pack(bitmaps, nbits)
    words, offsets = packed.words, packed.offsets
    lengths = np.diff(offsets)
    ngroups = (nbits + GROUP_BITS - 1) // GROUP_BITS
    if not lengths.all():
        # Only bitmaps of no groups have no words (and then all do).
        if ngroups or lengths.any():
            raise BitmapError(f"a bitmap without words among {nbits}-bit ones")
        return
    groups = np.where(words >= FILL_FLAG, words & FILL_LEN_MASK, 1)
    if not groups.all():
        raise BitmapError("a fill word of zero groups")
    covered = np.add.reduceat(groups, offsets[:-1], dtype=np.int64)
    wrong = np.flatnonzero(covered != ngroups)
    if len(wrong):
        raise BitmapError(
            f"bitmap {wrong[0]}'s words cover {covered[wrong[0]]} groups, "
            f"not {ngroups}"
        )
    tail_bits = nbits % GROUP_BITS
    # A fill's flag bit, like a padding bit, lies above the tail bits.
    if tail_bits and np.any(words[offsets[1:] - 1] >> tail_bits):
        raise BitmapError(
            "a partial last group that is not a literal with zero padding"
        )


def batch_from_positions(flat_positions, bounds, nbits: int
                         ) -> PackedBitmaps:
    """One ``nbits``-bit WAH bitmap per segment of ``flat_positions``,
    every word of every bitmap assembled in one vectorized pass.

    Segment ``i`` is ``flat_positions[bounds[i]:bounds[i + 1]]``, the
    strictly increasing set positions of bitmap ``i`` (the layout
    :func:`batch_positions` returns).  The canonical words go into one
    packed buffer, with no per-bitmap Python work.  This is the one
    constructor behind bulk load, bitmap filtering, concatenation,
    delta encoding, PARTITION and DECOMPOSE's key column (one
    single-position segment per key: a column of unit bitmaps).  The
    positions become literal groups here; :func:`_encode_runs` writes
    the words.
    """
    flat = np.asarray(flat_positions)
    bounds = np.asarray(bounds, dtype=np.int64)
    counts = np.diff(bounds)
    # One flag per position, true at each segment's first position:
    # first "exceeds its predecessor", then "opens a new literal word".
    first = np.ones(len(flat), dtype=bool)
    seg_first = bounds[:-1][counts > 0]
    if len(flat):
        if flat.min() < 0 or flat.max() >= nbits:
            raise BitmapError("position out of range")
        np.greater(flat[1:], flat[:-1], out=first[1:])
        first[seg_first] = True
        if not first.all():
            raise BitmapError("positions must be strictly increasing")
    if nbits <= np.iinfo(np.int32).max:
        flat = flat.astype(np.int32, copy=False)

    # Literal words: one per (segment, 31-bit group) holding a set bit.
    group = flat // GROUP_BITS
    bit_of = np.uint32(1) << (flat - group * GROUP_BITS).astype(np.uint32)
    np.not_equal(group[1:], group[:-1], out=first[1:])
    first[seg_first] = True
    word_at = np.flatnonzero(first)
    word_group = group[word_at].astype(np.int64)
    word_value = np.bitwise_or.reduceat(bit_of, word_at)
    word_bounds = np.searchsorted(word_at, bounds)
    del flat, group, bit_of, first, word_at
    words, offsets = _encode_runs(
        word_group, None, word_value, word_bounds, nbits
    )
    return PackedBitmaps(words, offsets, counts, nbits)


def batch_from_intervals(starts, ends, bounds, nbits: int
                         ) -> PackedBitmaps:
    """One ``nbits``-bit WAH bitmap per segment of set intervals, every
    word of every bitmap assembled in one vectorized pass.

    Segment ``i`` is the half-open intervals ``[starts[k], ends[k])``
    for ``bounds[i] <= k < bounds[i + 1]``: disjoint and sorted within
    the segment (``starts[k] <= ends[k] <= starts[k + 1]``); empty
    intervals are ignored and touching ones meet in one run.  Runs in
    ``O(len(starts))``, independent of ``nbits``.  General MERGE builds
    its interval-shaped columns here; ``WAHBitmap.from_intervals`` is
    the one-segment case.
    """
    lo = np.asarray(starts, dtype=np.int64)
    hi = np.asarray(ends, dtype=np.int64)
    if len(lo) != len(hi):
        raise BitmapError("starts and ends must have equal length")
    keep = hi > lo
    bounds = _exclusive_cumsum(keep)[np.asarray(bounds, dtype=np.int64)]
    lo, hi = lo[keep], hi[keep]
    if len(lo) and (lo.min() < 0 or hi.max() > nbits):
        raise BitmapError("interval out of range")
    overlap = lo[1:] < hi[:-1]
    inner = bounds[1:-1]
    overlap[inner[(inner > 0) & (inner < len(lo))] - 1] = False
    if overlap.any():
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
    bounds = _exclusive_cumsum(keep)[3 * bounds]
    piece_lo, piece_hi = piece_lo[keep], piece_hi[keep]
    width = piece_hi - piece_lo
    start = piece_lo // GROUP_BITS
    # A fragment's mask; whole groups come out as FULL_GROUP.
    word = (
        ((1 << np.minimum(width, GROUP_BITS)) - 1)
        << (piece_lo - start * GROUP_BITS)
    ).astype(np.uint32)
    length = np.maximum(width // GROUP_BITS, 1)

    # Fragments of neighbouring intervals of a segment that share a
    # group OR-merge.
    first = np.ones(len(start), dtype=bool)
    first[1:] = start[1:] != start[:-1]
    first[bounds[:-1][bounds[:-1] < len(start)]] = True
    at = np.flatnonzero(first)
    words, offsets = _encode_runs(
        start[at], length[at], np.bitwise_or.reduceat(word, at),
        np.searchsorted(at, bounds), nbits,
    )
    width_before = _exclusive_cumsum(width)
    return PackedBitmaps(
        words, offsets, width_before[bounds[1:]] - width_before[bounds[:-1]],
        nbits,
    )


def batch_select(bitmaps, sorted_positions) -> tuple:
    """Bitmap-filter every bitmap of a column in one vectorized pass.

    Bit ``i`` of output bitmap ``k`` is bit ``sorted_positions[i]`` of
    ``bitmaps[k]`` (a position past the end reads as zero; positions
    are sorted and distinct).  Returns ``(the filtered bitmaps, their
    set-bit counts)``, packed: all set positions are extracted once
    (:func:`batch_positions`), each one's rank under
    ``sorted_positions`` is read from one dense row → rank array (-1
    for rows not picked; :func:`batch_split` takes the same step), and
    all output bitmaps are built by one :func:`batch_from_positions`.
    """
    packed = PackedBitmaps.pack(bitmaps)
    picks = np.asarray(sorted_positions, dtype=np.int64)
    inside = picks[:np.searchsorted(picks, packed.nbits)]
    row_rank = np.full(packed.nbits, -1, dtype=np.int64)
    row_rank[inside] = np.arange(len(inside))
    flat, bounds = batch_positions(packed)
    rank = row_rank[flat]
    del flat, row_rank
    kept = np.flatnonzero(rank >= 0)
    selected = batch_from_positions(
        rank[kept], np.searchsorted(kept, bounds), len(picks)
    )
    return selected, selected.counts


class RowSplit(NamedTuple):
    """PARTITION's division of the rows, made once per operator and
    read by every column's :func:`batch_split`: the dense boolean row
    ``mask``, every row's ``rank`` among the rows of its own side, and
    the number of rows where the mask is set."""

    mask: np.ndarray
    rank: np.ndarray
    ntrue: int

    @classmethod
    def of(cls, mask) -> "RowSplit":
        """A :class:`RowSplit` as it is; a dense boolean row ``mask``,
        split."""
        if isinstance(mask, RowSplit):
            return mask
        mask = np.asarray(mask, dtype=bool)
        ones_before = np.cumsum(mask)
        rank = np.where(
            mask, ones_before - 1, np.arange(len(mask)) - ones_before
        )
        return cls(mask, rank, int(ones_before[-1]) if len(mask) else 0)


def batch_split(bitmaps, mask) -> tuple:
    """Bitmap-filter a column both ways in one pass (PARTITION).

    ``mask`` is a dense boolean row vector, or its :class:`RowSplit`
    when many columns split alike.  Returns ``batch_select``'s result
    for the rows where it is set and for the rows where it is not,
    extracting the column's positions only once and reading each one's
    side and rank from the split's row maps.
    """
    split = RowSplit.of(mask)
    flat, bounds = batch_positions(bitmaps)
    side = split.mask[flat]
    rank = split.rank[flat]
    del flat
    true_bounds = _exclusive_cumsum(side)[bounds]
    true = batch_from_positions(rank[side], true_bounds, split.ntrue)
    false = batch_from_positions(
        rank[~side], bounds - true_bounds, len(split.mask) - split.ntrue
    )
    return (true, true.counts), (false, false.counts)


def batch_concat_positions(
    left_bitmaps, right_bitmaps, right_target, left_nbits: int,
    right_nbits: int,
) -> PackedBitmaps:
    """Concatenate column bitmaps (UNION) in one vectorized pass.

    Output value ``i`` continues left bitmap ``i`` (zeros beyond the
    left side's values) with the right bitmap ``j`` that has
    ``right_target[j] == i`` (zeros when there is none).  The left side
    is never decoded: each left bitmap's words before its partial tail
    group — all of them when ``left_nbits % 31 == 0`` — are spliced in
    as they are, straight from the packed buffer.  Only the rest is
    rebuilt, by one pass of the batched constructor: the bits of that
    tail group (fewer than 31 per value) followed by the right side's
    positions, shifted by ``left_nbits % 31``.  Where a spliced fill
    meets a rebuilt fill of the same bit value the two become one fill,
    so every output is the canonical encoding.
    """
    right_target = np.asarray(right_target, dtype=np.int64)
    left = PackedBitmaps.pack(left_bitmaps, left_nbits)
    right = PackedBitmaps.pack(right_bitmaps, right_nbits)
    nleft = len(left)
    nout = max(nleft, int(right_target.max()) + 1 if len(right_target) else 0)
    nbits = left_nbits + right_nbits
    if (nbits + GROUP_BITS - 1) // GROUP_BITS > MAX_FILL_GROUPS:
        raise BitmapError("bitmap too long for a single fill word")
    tail_bits = left_nbits % GROUP_BITS
    left_words, left_offsets = left.words, left.offsets
    left_counts = np.zeros(nout, dtype=np.int64)
    left_counts[:nleft] = left.counts
    if nout > nleft:
        # Values only the right side holds start from a zero bitmap.
        pad = PackedBitmaps.zeros(nout - nleft, left_nbits)
        left_words = np.concatenate((left_words, pad.words))
        left_offsets = np.concatenate(
            (left_offsets, left_offsets[-1] + pad.offsets[1:])
        )
    left_start = left_offsets[:-1]
    left_end = left_offsets[1:]
    left_len = left_end - left_start

    # The rebuilt part of output value i, counted from its tail group's
    # first bit: the left tail bits, then the right positions.
    tail_words = (
        left_words[left_end - 1] if tail_bits
        else np.zeros(nout, dtype=np.uint32)
    )
    tail_counts = np.bitwise_count(tail_words).astype(np.int64)
    right_flat, right_bounds = batch_positions(right)
    right_counts = np.zeros(nout, dtype=np.int64)
    right_counts[right_target] = np.diff(right_bounds)
    bounds = _exclusive_cumsum(tail_counts + right_counts)
    rebuilt_flat = np.empty(int(bounds[-1]), dtype=np.int64)
    _peel_literals(
        tail_words, bounds[:-1].copy(), np.zeros(nout, dtype=np.int64),
        rebuilt_flat,
    )
    # Each right segment moves as a block to its slot after the tail.
    right_shift = (
        bounds[right_target] + tail_counts[right_target] - right_bounds[:-1]
    )
    rebuilt_flat[
        np.arange(len(right_flat))
        + np.repeat(right_shift, np.diff(right_bounds))
    ] = right_flat + tail_bits
    del right_flat
    rebuilt = batch_from_positions(rebuilt_flat, bounds, tail_bits + right_nbits)
    rebuilt_bounds = rebuilt.offsets

    # Splice, per output value: the left words before the tail group,
    # then the rebuilt words.  ``source``'s last word, a zero literal,
    # stands in for an empty side's word at the seam.
    prefix_len = left_len - int(tail_bits > 0)
    rebuilt_len = np.diff(rebuilt_bounds)
    source = np.concatenate(
        (left_words, rebuilt.words, np.zeros(1, dtype=np.uint32))
    )
    nothing = len(source) - 1
    rebuilt_start = len(left_words) + rebuilt_bounds[:-1]
    last = source[np.where(prefix_len > 0, left_start + prefix_len - 1,
                           nothing)]
    first = source[np.where(rebuilt_len > 0, rebuilt_start, nothing)]
    # Same two top bits after a fill's: a fill of the same bit value.
    join = ((last & FILL_FLAG) != 0) & (
        (last >> np.uint32(30)) == (first >> np.uint32(30))
    )
    lengths = np.column_stack((prefix_len, rebuilt_len - join)).ravel()
    starts = np.column_stack((left_start, rebuilt_start + join)).ravel()
    ends = np.cumsum(lengths)
    words = source[
        np.arange(int(ends[-1]) if len(ends) else 0)
        + np.repeat(starts - ends + lengths, lengths)
    ]
    words[ends[0::2][join] - 1] += first[join] & FILL_LEN_MASK
    return PackedBitmaps(
        words, _exclusive_cumsum(lengths[0::2] + lengths[1::2]),
        left_counts + right_counts, nbits,
    )
