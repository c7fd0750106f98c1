"""Dense ids for tuples of vid columns: one combined code per row.

A row's vids over several dictionary-encoded columns fold into one
mixed-radix ``int64`` code, the first column most significant, so the
codes sort like the vid tuples and grouping rows takes a 1-D
``bincount`` (or, where the code space is sparse next to the rows, a
1-D ``np.unique``) — never a sort of rows as records.  GROUP BY
(``repro.exec.aggregate``, cached there per generation), the FD check
(``repro.fd.discovery``), composite distinction and composite MERGE
all group rows here.
"""

from __future__ import annotations

import numpy as np

#: Largest code space a mixed-radix code may span: the running code is
#: re-densified before a multiply would pass it, so every code stays
#: inside int64.
CODE_LIMIT = 2**62


def combine(codes, space: int, vids, size: int, steps: list):
    """``codes * size + vids``: one more column's vids (radix ``size``)
    appended to mixed-radix ``codes`` of radix ``space``.  When the
    product would pass :data:`CODE_LIMIT` the codes are first
    re-densified to the ranks of the distinct codes present, which
    never exceed the row count.  The step is appended to ``steps`` for
    :func:`split_codes`; returns ``(codes, space)``."""
    dense = None
    if space * size > CODE_LIMIT:
        dense, codes = np.unique(codes, return_inverse=True)
        space = len(dense)
    steps.append((size, dense))
    return codes * size + vids, space * size


def combine_columns(columns, radices, nrows: int) -> tuple:
    """``(codes, space, steps)``: one code per row for the equal-length
    vid arrays ``columns``, column ``i``'s vids in ``[0, radices[i])``,
    folded by :func:`combine`.  With no columns every one of the
    ``nrows`` rows has code 0: a read-only stride-0 view, no bytes."""
    if not columns:
        return np.broadcast_to(np.int64(0), nrows), 1, []
    codes = np.asarray(columns[0], dtype=np.int64)
    space, steps = max(1, int(radices[0])), []
    for vids, size in zip(columns[1:], radices[1:]):
        codes, space = combine(codes, space, vids, max(1, int(size)), steps)
    return codes, space, steps


def table_codes(table, attrs) -> tuple:
    """:func:`combine_columns` over the vids of ``table``'s columns
    ``attrs`` (each decoded from its bitmaps)."""
    return combine_columns(
        [table.column(attr).decode_vids() for attr in attrs],
        [table.column(attr).distinct_count for attr in attrs],
        table.nrows,
    )


def split_codes(codes, steps) -> list[np.ndarray]:
    """Invert :func:`combine`: the vids each code combines, first
    column first.  Per step, last first, a ``divmod`` peels off that
    column's vids and the step's re-densified codes (if any) map the
    quotient back to the code before it."""
    parts = []
    for size, dense in reversed(steps):
        codes, vids = np.divmod(codes, size)
        parts.append(vids)
        if dense is not None:
            codes = dense[codes]
    parts.append(codes)
    return parts[::-1]


def _histogram_pays(space: int, nrows: int) -> bool:
    """An array over a code space small next to the rows beats
    ``np.unique``'s sort by a wide margin."""
    return space <= 4 * nrows + 1024


def nonzero_counts(codes, space: int):
    """``(unique values, counts)`` of an int code array."""
    if _histogram_pays(space, len(codes)):
        histogram = np.bincount(codes, minlength=space)
        present = np.flatnonzero(histogram)
        return present, histogram[present]
    return np.unique(codes, return_counts=True)


def dense_ids(codes, space: int):
    """``(present, inverse)``: the distinct codes in ascending order and
    each row's index among them — a dense group id per row."""
    if _histogram_pays(space, len(codes)):
        seen = np.zeros(space, dtype=bool)
        seen[codes] = True
        rank = np.cumsum(seen) - 1
        return np.flatnonzero(seen), rank[codes]
    return np.unique(codes, return_inverse=True)


def first_rows(codes, space: int):
    """``(present, first)``: the distinct codes in ascending order and
    the first row holding each."""
    nrows = len(codes)
    if _histogram_pays(space, nrows):
        first = np.full(space, nrows, dtype=np.int64)
        np.minimum.at(first, codes, np.arange(nrows, dtype=np.int64))
        present = np.flatnonzero(first < nrows)
        return present, first[present]
    return np.unique(codes, return_index=True)
