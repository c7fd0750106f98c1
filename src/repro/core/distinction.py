"""The "distinction" step of decomposition (paper Section 2.4, step 1).

For every distinct value of the changed output table's key attributes,
find one witness tuple position in the input table.  Property 2
guarantees any witness works: the non-key attributes are functionally
determined by the key, so all rows sharing a key value agree on them.

Two strategies:

* **bitmap** (single key attribute, the paper's headline path): the
  first set bit of each value's compressed bitmap, found without
  decompressing anything — ``O(Σ words)`` over the value bitmaps.
* **scan** (composite keys): decode the key columns to vid arrays,
  fold each row's vids into one combined code
  (:mod:`repro.storage.codes`) and take the first row of each distinct
  code — a histogram pass, or a 1-D ``np.unique`` where the code space
  is sparse.  The demo paper defers composite keys to the tech report;
  this is our reconstruction, and Property 2 makes the first
  occurrence as good a witness as any other.
"""

from __future__ import annotations

import numpy as np

from repro.bitmap.batch import batch_first_set
from repro.core.status import EvolutionStatus
from repro.errors import EvolutionError
from repro.storage.codes import first_rows, table_codes


def distinction_with_ranks(
    column, status: EvolutionStatus
) -> tuple[np.ndarray, np.ndarray]:
    """Witness positions plus the rank each vid's witness occupies.

    Returns ``(positions, rank_of_vid)``: ``positions`` is the sorted
    witness list (one per distinct value), and ``rank_of_vid[v]`` is the
    index of vid ``v``'s witness within it.  The ranks let decomposition
    build the changed table's key column directly — each value's new
    bitmap is the unit bitmap at its rank — without any filtering.
    """
    firsts = batch_first_set(column.bitmaps)
    if np.any(firsts < 0):
        stale = int(np.flatnonzero(firsts < 0)[0])
        raise EvolutionError(
            f"column {column.name!r}: value id {stale} has an empty "
            "bitmap; dictionary is stale"
        )
    order = np.argsort(firsts, kind="stable")
    positions = firsts[order]
    rank_of_vid = np.empty(len(order), dtype=np.int64)
    rank_of_vid[order] = np.arange(len(order), dtype=np.int64)
    status.emit(
        "distinction",
        f"{column.distinct_count} distinct values of ({column.name}) "
        "located via first-set-bit on compressed bitmaps",
    )
    return positions, rank_of_vid


def distinction_bitmap(column, status: EvolutionStatus) -> np.ndarray:
    """Witness positions for each distinct value of one column.

    Operates purely on the compressed bitmaps (first-set-bit per value);
    returns sorted positions, one per distinct value.
    """
    positions, _ranks = distinction_with_ranks(column, status)
    return positions


def distinction_scan(table, key_attrs, status: EvolutionStatus) -> np.ndarray:
    """Witness positions for distinct combinations of several columns."""
    codes, space, _steps = table_codes(table, key_attrs)
    status.decompressed_column(len(key_attrs))
    positions = np.sort(first_rows(codes, space)[1])
    status.emit(
        "distinction",
        f"{len(positions)} distinct combinations of "
        f"({', '.join(key_attrs)}) located via vid-array scan",
    )
    return positions


def distinction(table, key_attrs, status: EvolutionStatus) -> np.ndarray:
    """Dispatch on key arity: bitmap path for one attribute, scan for
    composites.  Returns sorted witness positions."""
    key_attrs = list(key_attrs)
    if not key_attrs:
        raise EvolutionError("distinction requires at least one key attribute")
    if len(key_attrs) == 1:
        return distinction_bitmap(table.column(key_attrs[0]), status)
    return distinction_scan(table, key_attrs, status)
