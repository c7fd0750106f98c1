"""Batched (column-level) kernels over many WAH bitmaps.

A bitmap-encoded column holds one compressed bitmap per distinct value —
up to hundreds of thousands of them.  Per-bitmap Python calls would
dominate runtime at high cardinality, so the operations the evolution
algorithms perform across *all* value bitmaps of a column (distinction's
first-set-bit, cardinality counts, full position decode, and building,
filtering and concatenating every bitmap) are implemented here as single
vectorized passes over the concatenation of all word arrays.  The
semantics are identical to looping over
:class:`~repro.bitmap.wah.WAHBitmap` methods; tests assert equivalence.

Position extraction peels set bits off the literal words — the lowest
set bit of every live word per round — so it costs the bits it returns
plus the words, never a bit matrix.  Concatenation does not extract its
left side at all: the left bitmaps' words up to their partial tail
group are spliced into the output as they are, and only that tail group
and the right side are rebuilt.
"""

from __future__ import annotations

import numpy as np

from repro.bitmap.wah import (
    FILL_FLAG,
    FILL_LEN_MASK,
    GROUP_BITS,
    MAX_FILL_GROUPS,
    ONE_FILL_FLAG,
    WAHBitmap,
    _encode_runs,
)
from repro.errors import BitmapError


class WordDirectory:
    """The concatenated word arrays of many bitmaps, with segment maps.

    Precomputes, for every word: its owning segment (bitmap index), fill
    flags, groups spanned, and its group offset *within its segment*.
    """

    __slots__ = (
        "words", "seg_of_word", "seg_word_start", "is_fill", "fill_value",
        "groups", "group_offset", "nbitmaps",
    )

    def __init__(self, bitmaps):
        arrays = [bm._words for bm in bitmaps]
        counts = np.array([len(a) for a in arrays], dtype=np.int64)
        self.nbitmaps = len(arrays)
        self.words = (
            np.concatenate(arrays) if arrays else np.empty(0, dtype=np.uint32)
        )
        self.seg_word_start = np.concatenate(([0], np.cumsum(counts)))
        self.seg_of_word = np.repeat(
            np.arange(self.nbitmaps, dtype=np.int64), counts
        )
        words = self.words
        self.is_fill = (words & FILL_FLAG) != 0
        self.fill_value = (words & np.uint32(0x40000000)) != 0
        self.groups = np.where(
            self.is_fill, words & FILL_LEN_MASK, 1
        ).astype(np.int64)
        # Group offset within each bitmap: global running sum minus the
        # segment's base.
        global_offset = np.concatenate(
            ([0], np.cumsum(self.groups)[:-1])
        ).astype(np.int64)
        seg_base = np.zeros(self.nbitmaps, dtype=np.int64)
        nonempty = counts > 0
        seg_base[nonempty] = global_offset[
            self.seg_word_start[:-1][nonempty]
        ]
        self.group_offset = global_offset - seg_base[self.seg_of_word]

    def positions(self) -> tuple[np.ndarray, np.ndarray]:
        """All set-bit positions of every bitmap: ``(positions,
        boundaries)``, those of bitmap ``i`` being
        ``positions[boundaries[i]:boundaries[i+1]]``, sorted.  The one
        extraction kernel behind :func:`batch_positions` and
        :meth:`WAHBitmap.positions`."""
        one_fill = self.is_fill & self.fill_value
        literal = ~self.is_fill

        out_per_word = np.zeros(len(self.words), dtype=np.int64)
        out_per_word[one_fill] = self.groups[one_fill] * GROUP_BITS
        out_per_word[literal] = np.bitwise_count(self.words[literal])
        out_offsets = np.concatenate(([0], np.cumsum(out_per_word)))
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
        boundaries = np.empty(self.nbitmaps + 1, dtype=np.int64)
        boundaries[0] = 0
        boundaries[1:] = out_offsets[self.seg_word_start[1:]]
        return positions, boundaries


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
    """Set-bit count of each bitmap, in one vectorized pass."""
    directory = WordDirectory(bitmaps)
    counts = np.zeros(directory.nbitmaps, dtype=np.int64)
    np.add.at(counts, directory.seg_of_word, _set_bits(directory.words))
    return counts


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
    vids = np.empty(nrows, dtype=np.int64)
    counts = np.diff(boundaries)
    vid_per_position = np.repeat(
        np.arange(len(bitmaps), dtype=np.int64), counts
    )
    if len(positions) != nrows:
        from repro.errors import StorageError

        raise StorageError(
            f"bitmaps cover {len(positions)} rows of {nrows}"
        )
    vids[positions] = vid_per_position
    return vids


def batch_validate(bitmaps, nbits: int) -> None:
    """Raise :class:`BitmapError` unless every bitmap is a well-formed
    ``nbits``-bit word array, checked in one pass over all their words:
    its header length is ``nbits``, its words cover exactly
    ``ceil(nbits / 31)`` groups, no fill is empty and, when the last
    group is partial, the last word is a literal with no padding bit
    set.  The load-time guard of words read from a file."""
    wrong_nbits = {bm._nbits for bm in bitmaps} - {nbits}
    if wrong_nbits:
        raise BitmapError(
            f"a bitmap of {min(wrong_nbits)} bits among {nbits}-bit ones"
        )
    arrays = [bm._words for bm in bitmaps]
    lengths = np.fromiter(map(len, arrays), dtype=np.int64, count=len(arrays))
    ngroups = (nbits + GROUP_BITS - 1) // GROUP_BITS
    if not lengths.all():
        # Only bitmaps of no groups have no words (and then all do).
        if ngroups or lengths.any():
            raise BitmapError(f"a bitmap without words among {nbits}-bit ones")
        return
    words = np.concatenate(arrays) if arrays else np.empty(0, np.uint32)
    groups = np.where(words >= FILL_FLAG, words & FILL_LEN_MASK, 1)
    if not groups.all():
        raise BitmapError("a fill word of zero groups")
    ends = np.cumsum(lengths)
    covered = np.add.reduceat(groups, ends - lengths, dtype=np.int64)
    wrong = np.flatnonzero(covered != ngroups)
    if len(wrong):
        raise BitmapError(
            f"bitmap {wrong[0]}'s words cover {covered[wrong[0]]} groups, "
            f"not {ngroups}"
        )
    tail_bits = nbits % GROUP_BITS
    # A fill's flag bit, like a padding bit, lies above the tail bits.
    if tail_bits and np.any(words[ends - 1] >> tail_bits):
        raise BitmapError(
            "a partial last group that is not a literal with zero padding"
        )


def _build_words(flat_positions, bounds, nbits: int) -> tuple:
    """The canonical words of one ``nbits``-bit bitmap per segment of
    ``flat_positions``, in one ``uint32`` buffer.

    Returns ``(buffer, word_bounds, counts)``: bitmap ``i`` is
    ``buffer[word_bounds[i]:word_bounds[i + 1]]`` with ``counts[i]`` set
    bits.  The raw-buffer form of :func:`batch_from_positions`, for
    callers that splice the words before making bitmaps of them.  The
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
    buffer, out_bounds = _encode_runs(
        word_group, None, word_value, word_bounds, nbits
    )
    return buffer, out_bounds, counts


def _bitmaps(buffer, word_bounds, counts, nbits: int) -> list:
    """One ``nbits``-bit bitmap per slice ``buffer[word_bounds[i]:
    word_bounds[i + 1]]``, holding ``counts[i]`` set bits."""
    edges = word_bounds.tolist()
    return [
        WAHBitmap(buffer[lo:hi], nbits, _count=count)
        for lo, hi, count in zip(edges, edges[1:], counts.tolist())
    ]


def batch_from_positions(flat_positions, bounds, nbits: int) -> list:
    """One ``nbits``-bit WAH bitmap per segment of ``flat_positions``,
    every word of every bitmap assembled in one vectorized pass.

    Segment ``i`` is ``flat_positions[bounds[i]:bounds[i + 1]]``, the
    strictly increasing set positions of bitmap ``i`` (the layout
    :func:`batch_positions` returns).  The canonical words go into one
    ``uint32`` buffer that is sliced per bitmap, so the only per-bitmap
    Python work is object creation.  This is the one constructor behind
    bulk load, bitmap filtering, concatenation, delta encoding,
    PARTITION and DECOMPOSE's key column (one single-position segment
    per key: a column of unit bitmaps).
    """
    return _bitmaps(*_build_words(flat_positions, bounds, nbits), nbits)


def batch_select(bitmaps, sorted_positions) -> tuple[list, np.ndarray]:
    """Bitmap-filter every bitmap of a column in one vectorized pass.

    Bit ``i`` of output bitmap ``k`` is bit ``sorted_positions[i]`` of
    ``bitmaps[k]`` (a position past the end reads as zero).  Returns
    ``(the filtered bitmaps, their set-bit counts)``: all set positions
    are extracted once (:func:`batch_positions`), their survival and
    rank under ``sorted_positions`` is one ``searchsorted``, and all
    output bitmaps are built by one :func:`batch_from_positions`.
    """
    picks = np.asarray(sorted_positions, dtype=np.int64)
    flat, bounds = batch_positions(bitmaps)
    if len(picks) == 0:
        flat = flat[:0]  # nothing survives; keeps picks[rank] in range
    rank = np.searchsorted(picks, flat)
    rank[rank == len(picks)] = 0
    kept = np.flatnonzero(picks[rank] == flat)
    del flat
    new_bounds = np.searchsorted(kept, bounds)
    return (
        batch_from_positions(rank[kept], new_bounds, len(picks)),
        np.diff(new_bounds),
    )


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
    true_bounds = np.concatenate(([0], np.cumsum(side)))[bounds]
    false_bounds = bounds - true_bounds
    return (
        (
            batch_from_positions(rank[side], true_bounds, ntrue),
            np.diff(true_bounds),
        ),
        (
            batch_from_positions(
                rank[~side], false_bounds, len(mask) - ntrue
            ),
            np.diff(false_bounds),
        ),
    )


def batch_concat_positions(
    left_bitmaps, right_bitmaps, right_target, left_nbits: int,
    right_nbits: int,
) -> list:
    """Concatenate column bitmaps (UNION) in one vectorized pass.

    Output value ``i`` continues left bitmap ``i`` (zeros beyond the
    left side's values) with the right bitmap ``j`` that has
    ``right_target[j] == i`` (zeros when there is none).  The left side
    is never decoded: each left bitmap's words before its partial tail
    group — all of them when ``left_nbits % 31 == 0`` — are spliced in
    as they are.  Only the rest is rebuilt, by one raw-buffer pass of
    the batched constructor: the bits of that tail group (fewer than 31
    per value) followed by the right side's positions, shifted by
    ``left_nbits % 31``.  Where a spliced fill meets a rebuilt fill of
    the same bit value the two become one fill, so every output is the
    canonical encoding.
    """
    right_target = np.asarray(right_target, dtype=np.int64)
    left = list(left_bitmaps)
    nleft = len(left)
    nout = max(nleft, int(right_target.max()) + 1 if len(right_target) else 0)
    nbits = left_nbits + right_nbits
    if (nbits + GROUP_BITS - 1) // GROUP_BITS > MAX_FILL_GROUPS:
        raise BitmapError("bitmap too long for a single fill word")
    tail_bits = left_nbits % GROUP_BITS
    if nout > nleft:
        left += [WAHBitmap.zeros(left_nbits)] * (nout - nleft)
    left_len = np.array([len(bm._words) for bm in left], dtype=np.int64)
    left_words = (
        np.concatenate([bm._words for bm in left])
        if left else np.empty(0, dtype=np.uint32)
    )
    left_end = np.cumsum(left_len)
    left_start = left_end - left_len
    bits_before = np.concatenate(([0], np.cumsum(_set_bits(left_words))))
    left_counts = bits_before[left_end] - bits_before[left_start]

    # The rebuilt part of output value i, counted from its tail group's
    # first bit: the left tail bits, then the right positions.
    tail_words = (
        left_words[left_end - 1] if tail_bits
        else np.zeros(nout, dtype=np.uint32)
    )
    tail_counts = np.bitwise_count(tail_words).astype(np.int64)
    right_flat, right_bounds = batch_positions(list(right_bitmaps))
    right_counts = np.zeros(nout, dtype=np.int64)
    right_counts[right_target] = np.diff(right_bounds)
    bounds = np.concatenate(([0], np.cumsum(tail_counts + right_counts)))
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
    rebuilt, rebuilt_bounds, _ = _build_words(
        rebuilt_flat, bounds, tail_bits + right_nbits
    )

    # Splice, per output value: the left words before the tail group,
    # then the rebuilt words.  ``source``'s last word, a zero literal,
    # stands in for an empty side's word at the seam.
    prefix_len = left_len - int(tail_bits > 0)
    rebuilt_len = np.diff(rebuilt_bounds)
    source = np.concatenate(
        (left_words, rebuilt, np.zeros(1, dtype=np.uint32))
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
    return _bitmaps(
        words, np.concatenate(([0], ends[1::2])),
        left_counts + right_counts, nbits,
    )
