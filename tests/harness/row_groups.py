"""Reference grouping of rows by several vid columns.

The engine groups rows by one combined code per row
(``repro.storage.codes``).  This is the row sort that grouping
replaced — ``np.unique`` over the stacked vid matrix, rows compared as
records — kept as the independent oracle the codes must agree with.
"""

from __future__ import annotations

import numpy as np


def unique_rows(columns, nrows: int) -> tuple:
    """``(rows, first, inverse)`` of the ``nrows`` rows of the vid
    arrays ``columns``: the distinct vid tuples in lexicographic order
    (one row of ``rows`` each), the first row holding each, and each
    row's index among them."""
    matrix = (
        np.stack(columns, axis=1) if columns
        else np.empty((nrows, 0), dtype=np.int64)
    )
    rows, first, inverse = np.unique(
        matrix, axis=0, return_index=True, return_inverse=True
    )
    return rows, first, inverse.reshape(-1)
