"""Key–foreign-key mergence (paper Section 2.5.1).

``S ⋈ T -> R`` where the join attributes form the key of ``T``: the
output has exactly ``S``'s rows, so every column of ``S`` is **reused**
by reference, and only ``T``'s non-key columns are generated.

The paper first sketches a per-value algorithm (for each value ``u`` of
a ``T`` attribute, OR together the ``S``-bitmaps of the key values
co-occurring with ``u``) and then observes that a single *sequential
scan* of ``S``'s key column produces the same result with better
locality.  We implement the sequential-scan variant, vectorized: decode
``S``'s key column once, map each row's key to its (unique) ``T`` row,
and gather ``T``'s attribute values — then rebuild compressed bitmaps
per value.
"""

from __future__ import annotations

import numpy as np

from repro.core.status import EvolutionStatus
from repro.errors import EvolutionError
from repro.smo.ops import MergeTables
from repro.storage.codes import combine_columns, dense_ids
from repro.storage.column import BitmapColumn
from repro.storage.schema import TableSchema
from repro.storage.table import Table


def keys_all_present(s_col: BitmapColumn, t_col: BitmapColumn) -> bool:
    """Cheap referential-integrity probe on dictionaries only: every join
    value of ``S`` appears in ``T``."""
    return bool(np.all(t_col.dictionary.lookup(s_col.dictionary) >= 0))


def _t_row_of_svid_single(s_col: BitmapColumn, t_col: BitmapColumn
                          ) -> np.ndarray:
    """Map each S-vid of the join attribute to its unique T row.

    Uses only compressed-domain operations on ``T``: the key property
    means each value's bitmap in ``T`` has exactly one set bit, located
    with ``first_set``; the S values are looked up in ``T``'s
    dictionary in one call.
    """
    from repro.bitmap.batch import batch_first_set

    counts = t_col.value_counts()
    if np.any(counts != 1):
        bad_vid = int(np.flatnonzero(counts != 1)[0])
        raise EvolutionError(
            f"join attribute {t_col.name!r} is not a key of the right "
            f"table: value {t_col.dictionary.value(bad_vid)!r} occurs "
            f"{int(counts[bad_vid])} times"
        )
    t_first = batch_first_set(t_col.bitmaps)
    tvids = t_col.dictionary.lookup(s_col.dictionary)
    rows = np.full(len(tvids), -1, dtype=np.int64)
    found = tvids >= 0
    rows[found] = t_first[tvids[found]]
    return rows


def join_codes(left: Table, right: Table, join_attrs,
               status: EvolutionStatus) -> tuple:
    """``(codes, space, steps, t_rows)`` of a composite join: one
    combined code (:mod:`repro.storage.codes`) per row of ``left``,
    then one per row ``t_rows`` of ``right`` — its rows whose join
    values all occur in ``left``, since no other can match.  ``right``'s
    vids are remapped into ``left``'s dictionaries, so the radices are
    ``left``'s distinct counts and equal combinations share a code."""
    s_columns, t_columns = [], []
    t_valid = np.ones(right.nrows, dtype=bool)
    for attr in join_attrs:
        s_col = left.column(attr)
        t_col = right.column(attr)
        s_columns.append(s_col.decode_vids())
        remap = s_col.dictionary.lookup(t_col.dictionary)
        t_columns.append(remap[t_col.decode_vids()])
        status.decompressed_column(2)
        t_valid &= t_columns[-1] >= 0
    t_rows = np.flatnonzero(t_valid)
    codes, space, steps = combine_columns(
        [np.concatenate((s, t[t_rows])) for s, t in zip(s_columns, t_columns)],
        [left.column(attr).distinct_count for attr in join_attrs],
        left.nrows + len(t_rows),
    )
    return codes, space, steps, t_rows


def _t_row_per_s_row(
    left: Table, right: Table, join_attrs, status: EvolutionStatus
) -> np.ndarray:
    """For every row of ``left``, the matching (unique) row of ``right``.

    Returns -1 where the key has no match (caller decides policy).
    """
    if len(join_attrs) == 1:
        attr = join_attrs[0]
        s_col = left.column(attr)
        t_col = right.column(attr)
        t_row_of_svid = _t_row_of_svid_single(s_col, t_col)
        s_vids = s_col.decode_vids()
        status.decompressed_column()
        return t_row_of_svid[s_vids]

    codes, space, _steps, t_rows = join_codes(left, right, join_attrs, status)
    present, groups = dense_ids(codes, space)
    t_group = groups[left.nrows :]
    if np.any(np.bincount(t_group, minlength=len(present)) > 1):
        raise EvolutionError(
            f"join attributes {list(join_attrs)} are not a key of the "
            "right table (duplicate combinations found)"
        )
    group_row = np.full(len(present), -1, dtype=np.int64)
    group_row[t_group] = t_rows
    return group_row[groups[: left.nrows]]


def merge_key_fk(
    left: Table,
    right: Table,
    op: MergeTables,
    join_attrs,
    status: EvolutionStatus,
) -> Table:
    """Merge where ``join_attrs`` is a key of ``right``.

    ``left``'s columns are reused; one new column is generated per
    non-key attribute of ``right``.
    """
    join = tuple(join_attrs)
    t_rows = _t_row_per_s_row(left, right, join, status)
    if np.any(t_rows < 0):
        missing = int(np.count_nonzero(t_rows < 0))
        raise EvolutionError(
            f"key–foreign-key mergence requires every key of {left.name!r} "
            f"to exist in {right.name!r}; {missing} rows dangle"
        )

    with status.step(
        "column reuse",
        f"{op.out_name} adopts all {len(left.schema.columns)} columns of "
        f"{left.name} unchanged",
    ):
        status.reuse_columns(len(left.schema.columns))
        status.reuse_bitmaps(
            sum(left.column(a).distinct_count for a in left.column_names)
        )
        columns = {name: left.column(name) for name in left.column_names}

    new_schemas = []
    for column_schema in right.schema.columns:
        if column_schema.name in join:
            continue
        t_col = right.column(column_schema.name)
        with status.step(
            "sequential scan",
            f"generating {column_schema.name!r} by scanning "
            f"{left.name}'s key column against {right.name}",
        ):
            t_vids = t_col.decode_vids()
            status.decompressed_column()
            out_vids = t_vids[t_rows]
            new_column = BitmapColumn.from_vids(
                column_schema.name,
                column_schema.dtype,
                t_col.dictionary,
                out_vids,
            )
            status.created_bitmaps(new_column.distinct_count)
        columns[column_schema.name] = new_column
        new_schemas.append(column_schema)

    schema = TableSchema(
        op.out_name,
        left.schema.columns + tuple(new_schemas),
        left.schema.primary_key,
        left.schema.candidate_keys,
    )
    return Table(schema, columns, left.nrows)
