"""The "bitmap filtering" step of decomposition (Section 2.4, step 2).

Given the witness position list produced by distinction, shrink every
bitmap of the changed table's attributes to exactly those positions —
directly on the compressed representation.  The result is the changed
output table, never materialized as tuples.
"""

from __future__ import annotations

import numpy as np

from repro.core.status import EvolutionStatus
from repro.storage.column import BitmapColumn


def filter_column(
    column: BitmapColumn,
    positions: np.ndarray,
    status: EvolutionStatus,
    compact: bool = True,
) -> BitmapColumn:
    """Bitmap-filter one column to the given sorted positions."""
    status.filtered_bitmaps(column.distinct_count)
    return column.select(positions, compact)
