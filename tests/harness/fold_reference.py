"""Reference compaction fold: merge one column by bitmap filtering.

The main store's surviving rows are kept by filtering every value's
bitmap (``BitmapColumn.select(keep, compact=True)``, which drops the
values that vanish), the cutoff-live buffered values are
dictionary-encoded into a column of their own, and the two are
concatenated (``BitmapColumn.concat``).  No vid array is read.
``MutableTable._merge_column`` must produce the same words, offsets,
counts and dictionary; the fold property tests compare the two.
"""

from __future__ import annotations

import numpy as np

from repro.storage.column import BitmapColumn
from repro.storage.dictionary import Dictionary


def delta_column(name, dtype, values) -> BitmapColumn:
    """Encode plain row-ordered (already coerced) values into per-value
    bitmaps: dictionary-encode, then the bulk-load constructor."""
    dictionary = Dictionary()
    vids = dictionary.encode(values)
    return BitmapColumn.from_vids(name, dtype, dictionary, vids)


def reference_merge_column(main, delta, name: str, run) -> BitmapColumn:
    """Column ``name`` of the fold ``run`` (a ``_CompactionRun`` over
    ``main`` and ``delta``): the kept main rows, bitmap-filtered, then
    the buffered values live at the run's cutoff."""
    main_part = main.column(name)
    if len(run.keep) != main.nrows:
        main_part = main_part.select(run.keep, compact=True)
    values = [delta.columns[name][i] for i in run.live_cutoff]
    delta_part = delta_column(name, main_part.dtype, values)
    if delta_part.nrows:
        return main_part.concat(delta_part)
    return main_part


def column_differences(got: BitmapColumn, want: BitmapColumn) -> list[str]:
    """What differs between two columns, bit for bit: row count, word
    buffer, word offsets, per-value counts, dictionary values (with
    their types, in vid order) and the decoded values."""
    differences = []
    if got.nrows != want.nrows:
        differences.append(f"nrows {got.nrows} != {want.nrows}")
    for part in ("words", "offsets", "counts"):
        if not np.array_equal(
            getattr(got.bitmaps, part), getattr(want.bitmaps, part)
        ):
            differences.append(part)

    def typed(values):
        return [(type(value), value) for value in values]

    if typed(got.dictionary.values()) != typed(want.dictionary.values()):
        differences.append(
            f"dictionary {got.dictionary.values()!r} != "
            f"{want.dictionary.values()!r}"
        )
    if got.to_values() != want.to_values():
        differences.append("decoded values")
    return differences
