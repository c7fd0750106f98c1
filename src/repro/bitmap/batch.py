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

Position extraction peels set bits off the literal words — the lowest
set bit of every live word per round — so it costs the bits it returns
plus the words, never a bit matrix.  Concatenation does not extract its
left side at all: the left bitmaps' words up to their partial tail
group are spliced into the output as they are, and only that tail group
and the right side are rebuilt.
"""

from __future__ import annotations

import struct

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
            before = _exclusive_cumsum(_set_bits(self.words))
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


class WordDirectory:
    """The packed words of many bitmaps, with segment maps.

    Precomputes, for every word: its owning segment (bitmap index), fill
    flags, groups spanned, and its group offset *within its segment*.
    """

    __slots__ = (
        "words", "seg_of_word", "seg_word_start", "is_fill", "fill_value",
        "groups", "group_offset", "nbitmaps",
    )

    def __init__(self, bitmaps):
        packed = PackedBitmaps.pack(bitmaps)
        counts = np.diff(packed.offsets)
        self.nbitmaps = len(packed)
        self.words = words = packed.words
        self.seg_word_start = packed.offsets
        self.seg_of_word = np.repeat(
            np.arange(self.nbitmaps, dtype=np.int64), counts
        )
        self.is_fill = (words & FILL_FLAG) != 0
        self.fill_value = (words & np.uint32(0x40000000)) != 0
        self.groups = np.where(
            self.is_fill, words & FILL_LEN_MASK, 1
        ).astype(np.int64)
        # Group offset within each bitmap: global running sum minus the
        # segment's base.
        global_offset = _exclusive_cumsum(self.groups)
        self.group_offset = (
            global_offset[:-1]
            - global_offset[self.seg_word_start[:-1]][self.seg_of_word]
        )

    def positions(self) -> tuple[np.ndarray, np.ndarray]:
        """All set-bit positions of every bitmap: ``(positions,
        boundaries)``, those of bitmap ``i`` being
        ``positions[boundaries[i]:boundaries[i+1]]``, sorted.  The one
        extraction kernel behind :func:`batch_positions` and
        :meth:`WAHBitmap.positions`."""
        one_fill = self.is_fill & self.fill_value
        literal = ~self.is_fill
        out_per_word = np.where(
            self.is_fill, self.groups * GROUP_BITS * self.fill_value,
            np.bitwise_count(self.words),
        )
        out_offsets = _exclusive_cumsum(out_per_word)
        positions = np.empty(out_offsets[-1], dtype=np.int64)

        fill_idx = np.flatnonzero(one_fill)
        if len(fill_idx):
            lengths = out_per_word[fill_idx]
            starts = self.group_offset[fill_idx] * GROUP_BITS
            total = int(lengths.sum())
            base = np.repeat(starts, lengths)
            run_start = np.repeat(np.cumsum(lengths) - lengths, lengths)
            within = np.arange(total, dtype=np.int64) - run_start
            positions[np.repeat(out_offsets[fill_idx], lengths) + within] = (
                base + within
            )

        lit_idx = np.flatnonzero(literal)
        _peel_literals(
            self.words[lit_idx], out_offsets[lit_idx],
            self.group_offset[lit_idx] * GROUP_BITS, positions,
        )

        # Per-bitmap boundaries in the flat positions array.
        return positions, out_offsets[self.seg_word_start]


def _peel_literals(words, dest, base, out) -> None:
    """Write the set bits of literal ``words`` into ``out``: the ``n``-th
    set bit ``b`` of word ``k`` lands at ``out[dest[k] + n]`` as
    ``base[k] + b``.

    Each round takes the lowest set bit of every live word (``w & -w``;
    its index is the popcount below it), clears it, and drops the words
    it empties — the work is the set bits plus the words.
    """
    words = np.array(words, dtype=np.uint32)
    dest = np.array(dest, dtype=np.int64)
    base = np.asarray(base, dtype=np.int64)
    live = words != 0
    while True:
        if not live.all():
            words, dest, base = words[live], dest[live], base[live]
        if not len(words):
            return
        low = words & -words
        out[dest] = base + np.bitwise_count(low - np.uint32(1))
        words ^= low
        dest += 1
        live = words != 0


def _set_bits(words: np.ndarray) -> np.ndarray:
    """Set bits carried by each WAH word: a literal's popcount, a
    one-fill's groups times 31, none for a zero fill."""
    per_word = np.bitwise_count(words).astype(np.int64)
    per_word[(words & FILL_FLAG) != 0] = 0
    one_fill = (words & ONE_FILL_FLAG) == ONE_FILL_FLAG
    per_word[one_fill] = (
        words[one_fill] & FILL_LEN_MASK
    ).astype(np.int64) * GROUP_BITS
    return per_word


def batch_count(bitmaps) -> np.ndarray:
    """Set-bit count of each bitmap: the packed counts."""
    return PackedBitmaps.pack(bitmaps).counts


def batch_first_set(bitmaps) -> np.ndarray:
    """First set bit of each bitmap (-1 when empty), one pass."""
    directory = WordDirectory(bitmaps)
    interesting = (directory.is_fill & directory.fill_value) | (
        ~directory.is_fill & (directory.words != 0)
    )
    result = np.full(directory.nbitmaps, -1, dtype=np.int64)
    hits = np.flatnonzero(interesting)
    if len(hits) == 0:
        return result
    seg_of_hit = directory.seg_of_word[hits]
    first_per_seg_mask = np.concatenate(
        ([True], seg_of_hit[1:] != seg_of_hit[:-1])
    )
    first_hits = hits[first_per_seg_mask]
    segs = seg_of_hit[first_per_seg_mask]
    base = directory.group_offset[first_hits] * GROUP_BITS
    words = directory.words[first_hits].astype(np.int64)
    lowest = words & -words
    bit = np.bitwise_count((lowest - 1).astype(np.uint32)).astype(np.int64)
    positions = np.where(directory.is_fill[first_hits], base, base + bit)
    result[segs] = positions
    return result


def batch_positions(bitmaps) -> tuple[np.ndarray, np.ndarray]:
    """All set-bit positions of all bitmaps, one vectorized pass.

    Returns ``(positions, boundaries)`` where positions of bitmap ``i``
    are ``positions[boundaries[i]:boundaries[i+1]]``, sorted.
    """
    return WordDirectory(bitmaps).positions()


def batch_decode_vids(bitmaps, nrows: int) -> np.ndarray:
    """Row-order vid array of a whole column, one pass.

    Equivalent to scattering ``positions()`` of every bitmap; this is
    the column "sequential scan" (decompression) primitive.
    """
    positions, boundaries = batch_positions(bitmaps)
    if len(positions) != nrows:
        from repro.errors import StorageError

        raise StorageError(
            f"bitmaps cover {len(positions)} rows of {nrows}"
        )
    vids = np.empty(nrows, dtype=np.int64)
    vids[positions] = np.repeat(
        np.arange(len(boundaries) - 1, dtype=np.int64), np.diff(boundaries)
    )
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


def batch_split(bitmaps, mask: np.ndarray) -> tuple:
    """Bitmap-filter a column both ways in one pass (PARTITION).

    ``mask`` is a dense boolean row vector.  Returns ``batch_select``'s
    result for the rows where it is set and for the rows where it is
    not, extracting the column's positions only once.
    """
    mask = np.asarray(mask, dtype=bool)
    flat, bounds = batch_positions(bitmaps)
    # Every row's rank among the rows of its own side.
    ones_before = np.cumsum(mask)
    ntrue = int(ones_before[-1]) if len(mask) else 0
    row_rank = np.where(
        mask, ones_before - 1, np.arange(len(mask)) - ones_before
    )
    side = mask[flat]
    rank = row_rank[flat]
    del flat, row_rank, ones_before
    true_bounds = _exclusive_cumsum(side)[bounds]
    true = batch_from_positions(rank[side], true_bounds, ntrue)
    false = batch_from_positions(
        rank[~side], bounds - true_bounds, len(mask) - ntrue
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
        tail_words, bounds[:-1], np.zeros(nout, dtype=np.int64),
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
