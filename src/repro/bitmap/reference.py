"""Pure-Python reference WAH codec.

A deliberately simple, word-by-word implementation of the same canonical
WAH-32 encoding as :mod:`repro.bitmap.wah`.  It exists so the test suite
can cross-validate the vectorized codec against an independent
implementation: for every input, ``encode_reference(bits)`` must produce
*bit-identical words* to every ``WAHBitmap`` constructor given the same
bits.
"""

from __future__ import annotations

from repro.bitmap.wah import (
    FILL_FLAG,
    FILL_LEN_MASK,
    GROUP_BITS,
    MAX_FILL_GROUPS,
)

_FULL = 0x7FFFFFFF


def _group_words(bits: list[int]) -> list[int]:
    """Pack a bit list into 31-bit group words (zero-padded tail)."""
    words = []
    for start in range(0, len(bits), GROUP_BITS):
        word = 0
        for offset, bit in enumerate(bits[start : start + GROUP_BITS]):
            if bit:
                word |= 1 << offset
        words.append(word)
    return words


def encode_reference(bits) -> list[int]:
    """Encode a 0/1 sequence into canonical WAH words (as Python ints)."""
    bits = [1 if b else 0 for b in bits]
    nbits = len(bits)
    groups = _group_words(bits)
    partial_tail = nbits % GROUP_BITS != 0

    words: list[int] = []
    index = 0
    while index < len(groups):
        group = groups[index]
        is_last = index == len(groups) - 1
        fill_value = None
        if group == 0:
            fill_value = 0
        elif group == _FULL:
            fill_value = 1
        if fill_value is not None and not (is_last and partial_tail):
            run = 1
            while index + run < len(groups):
                nxt = groups[index + run]
                nxt_last = index + run == len(groups) - 1
                if nxt_last and partial_tail:
                    break
                if (fill_value == 0 and nxt == 0) or (
                    fill_value == 1 and nxt == _FULL
                ):
                    run += 1
                else:
                    break
            remaining = run
            while remaining > 0:
                chunk = min(remaining, MAX_FILL_GROUPS)
                words.append(int(FILL_FLAG) | (fill_value << 30) | chunk)
                remaining -= chunk
            index += run
        else:
            words.append(group)
            index += 1
    return words


def decode_reference(words, nbits: int) -> list[int]:
    """Decode WAH words (Python ints) back to a bit list of length nbits."""
    bits: list[int] = []
    for word in words:
        if word & int(FILL_FLAG):
            value = (word >> 30) & 1
            length = word & int(FILL_LEN_MASK)
            bits.extend([value] * (length * GROUP_BITS))
        else:
            bits.extend((word >> offset) & 1 for offset in range(GROUP_BITS))
    return bits[:nbits]
