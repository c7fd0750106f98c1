"""General mergence: the two-pass equi-join algorithm (Section 2.5.2).

Neither input is reusable.  The algorithm never materializes the output
tuples; it computes, for every value of every output column, *where* its
bits land, from arithmetic on occurrence counts:

**Pass 1** — count the occurrences ``n1(v)``, ``n2(v)`` of each distinct
join value in ``S`` and ``T``.  A value appearing in both sides occupies
``n1·n2`` rows of ``R``; clustering ``R`` by join value makes every join
attribute's bitmap a single one-fill interval, derived purely from the
counts (for single-attribute joins the counts come straight from the
compressed bitmaps — no decompression).

**Pass 2** — place the non-join values.  Within value ``v``'s block
(offset ``o``, sized ``n1·n2``), the pairing of ``S``-occurrence ``p``
with ``T``-occurrence ``q`` sits at row ``o + p·n2 + q``.  Hence:

* ``S``'s non-join value at occurrence ``p`` covers the *consecutive*
  run ``[o + p·n2, o + (p+1)·n2)`` — an interval per source row;
* ``T``'s non-join value at occurrence ``q`` covers the *strided* set
  ``{o + p·n2 + q : 0 <= p < n1}`` — "non-consecutive but with the same
  distance" in the paper's words.

Both position sets are generated arithmetically and fed to the
compressed-bitmap constructors; building ``R``'s S-side columns costs
``O(|S| log |S|)`` regardless of ``|R|``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bitmap.batch import (
    batch_from_intervals,
    batch_from_positions,
    counting_order,
)
from repro.core.merge_kfk import join_codes
from repro.core.status import EvolutionStatus
from repro.smo.ops import MergeTables
from repro.storage.codes import dense_ids, split_codes
from repro.storage.column import BitmapColumn
from repro.storage.schema import TableSchema
from repro.storage.table import Table


@dataclass
class _JoinGroups:
    """Output of pass 1: the aligned join-value groups.

    ``C`` common join values (groups), each with counts ``n1``/``n2``
    and a block ``[offsets[c], offsets[c] + n1[c] * n2[c])`` in ``R``.
    ``s_cid``/``t_cid`` give each input row's group (or -1 if dropped).
    ``group_value_vids[attr]`` maps group -> vid *in S's dictionary*.
    """

    n1: np.ndarray
    n2: np.ndarray
    offsets: np.ndarray
    s_cid: np.ndarray
    t_cid: np.ndarray
    group_value_vids: dict
    total_rows: int


def _pass1_single(left: Table, right: Table, attr: str,
                  status: EvolutionStatus) -> _JoinGroups:
    """Pass 1 for a single join attribute.

    Counts come from the compressed bitmaps (``value_counts``); only the
    row->group assignment needed by pass 2 decodes the join columns.
    """
    s_col = left.column(attr)
    t_col = right.column(attr)
    s_counts = s_col.value_counts()
    t_counts = t_col.value_counts()

    # The common join values, in S's vid order: one dictionary probe.
    tvid_of_svid = t_col.dictionary.lookup(s_col.dictionary)
    group_svids = np.flatnonzero(tvid_of_svid >= 0)
    group_tvids = tvid_of_svid[group_svids]
    cids = np.arange(len(group_svids), dtype=np.int64)
    svid_to_cid = np.full(s_col.distinct_count, -1, dtype=np.int64)
    tvid_to_cid = np.full(t_col.distinct_count, -1, dtype=np.int64)
    svid_to_cid[group_svids] = cids
    tvid_to_cid[group_tvids] = cids
    n1 = s_counts[group_svids].astype(np.int64)
    n2 = t_counts[group_tvids].astype(np.int64)
    sizes = n1 * n2
    offsets = np.concatenate(([0], np.cumsum(sizes)))[:-1]
    status.emit(
        "merge pass 1",
        f"{len(n1)} common join values counted on compressed bitmaps "
        f"({attr}); output has {int(sizes.sum())} rows",
    )

    s_cid = svid_to_cid[s_col.decode_vids()]
    t_cid = tvid_to_cid[t_col.decode_vids()]
    status.decompressed_column(2)
    return _JoinGroups(
        n1, n2, offsets, s_cid, t_cid,
        {attr: group_svids},
        int(sizes.sum()),
    )


def _pass1_composite(left: Table, right: Table, join_attrs,
                     status: EvolutionStatus) -> _JoinGroups:
    """Pass 1 for composite join attributes: the groups are the
    distinct combined codes of S's rows and T's matchable rows
    (:func:`~repro.core.merge_kfk.join_codes`), in the vid tuples'
    lexicographic order."""
    codes, space, steps, t_rows = join_codes(left, right, join_attrs, status)
    present, inverse = dense_ids(codes, space)
    s_group = inverse[: left.nrows]
    t_group_valid = inverse[left.nrows :]
    n_groups = len(present)
    n1_all = np.bincount(s_group, minlength=n_groups)
    n2_all = np.bincount(t_group_valid, minlength=n_groups)
    common = (n1_all > 0) & (n2_all > 0)
    cid_of_group = np.full(n_groups, -1, dtype=np.int64)
    cid_of_group[common] = np.arange(int(common.sum()), dtype=np.int64)

    n1 = n1_all[common].astype(np.int64)
    n2 = n2_all[common].astype(np.int64)
    sizes = n1 * n2
    offsets = np.concatenate(([0], np.cumsum(sizes)))[:-1]
    status.emit(
        "merge pass 1",
        f"{int(common.sum())} common join combinations of "
        f"({', '.join(join_attrs)}); output has {int(sizes.sum())} rows",
    )

    s_cid = cid_of_group[s_group]
    t_cid = np.full(right.nrows, -1, dtype=np.int64)
    t_cid[t_rows] = cid_of_group[t_group_valid]
    group_value_vids = dict(
        zip(join_attrs, split_codes(present[common], steps))
    )
    return _JoinGroups(
        n1, n2, offsets, s_cid, t_cid, group_value_vids, int(sizes.sum())
    )


def _grouped_rank(cids: np.ndarray, n_groups: int) -> np.ndarray:
    """Occurrence rank of each row within its group, in row order.

    Rows with ``cid == -1`` get rank -1.
    """
    ranks = np.full(len(cids), -1, dtype=np.int64)
    kept_idx = np.flatnonzero(cids >= 0)
    if not len(kept_idx):
        return ranks
    kept_cids = cids[kept_idx]
    order = counting_order(kept_cids, n_groups)
    sizes = np.bincount(kept_cids, minlength=n_groups)
    group_start = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    kept_ranks = np.empty(len(order), dtype=np.int64)
    kept_ranks[order] = np.arange(len(order), dtype=np.int64) - np.repeat(
        group_start, sizes
    )
    ranks[kept_idx] = kept_ranks
    return ranks


def _interval_column(column: BitmapColumn, vids, starts, ends,
                     total: int) -> BitmapColumn:
    """A ``total``-row column of ``column``'s values in which value
    ``vids[k]`` holds rows ``[starts[k], ends[k])``: the intervals are
    grouped by value, in vid order, and every value's bitmap is built
    by one batched call."""
    order = np.lexsort((starts, vids))
    sorted_vids = vids[order]
    firsts = np.flatnonzero(np.diff(sorted_vids, prepend=-1))
    return BitmapColumn(
        column.name, column.dtype,
        column.dictionary.subset(sorted_vids[firsts].tolist()),
        batch_from_intervals(
            starts[order], ends[order], np.append(firsts, len(order)), total
        ),
        total,
    )


def _build_join_column(
    column: BitmapColumn,
    groups: _JoinGroups,
    attr: str,
    total: int,
) -> BitmapColumn:
    """R's join-attribute column: per group one pure interval fill."""
    return _interval_column(
        column, groups.group_value_vids[attr], groups.offsets,
        groups.offsets + groups.n1 * groups.n2, total,
    )


def _build_s_side_column(
    column: BitmapColumn,
    groups: _JoinGroups,
    s_rank: np.ndarray,
    total: int,
    status: EvolutionStatus,
) -> BitmapColumn:
    """R's S-side non-join column: one interval per source row."""
    vids = column.decode_vids()
    status.decompressed_column()
    kept = groups.s_cid >= 0
    cids = groups.s_cid[kept]
    starts = groups.offsets[cids] + s_rank[kept] * groups.n2[cids]
    result = _interval_column(
        column, vids[kept], starts, starts + groups.n2[cids], total
    )
    status.created_bitmaps(result.distinct_count)
    return result


def _build_t_side_column(
    column: BitmapColumn,
    groups: _JoinGroups,
    t_rank: np.ndarray,
    total: int,
    status: EvolutionStatus,
) -> BitmapColumn:
    """R's T-side non-join column: a stride-``n2`` progression per source
    row ("non-consecutive but with the same distance")."""
    vids = column.decode_vids()
    status.decompressed_column()
    kept = groups.t_cid >= 0
    cids = groups.t_cid[kept]
    ranks = t_rank[kept]
    kept_vids = vids[kept]

    repeats = groups.n1[cids]            # each T row pairs with n1 S rows
    strides = groups.n2[cids]
    bases = groups.offsets[cids] + ranks
    total_positions = int(repeats.sum())
    row_of_position = np.repeat(np.arange(len(cids)), repeats)
    first_of_row = np.concatenate(([0], np.cumsum(repeats)))[:-1]
    p_index = (
        np.arange(total_positions, dtype=np.int64)
        - np.repeat(first_of_row, repeats)
    )
    positions = (
        np.repeat(bases, repeats) + p_index * np.repeat(strides, repeats)
    )
    vid_per_position = kept_vids[row_of_position]

    # Grouped by vid, strictly increasing within each group: one
    # batched constructor builds every value's bitmap.
    order = np.lexsort((positions, vid_per_position))
    sorted_vids = vid_per_position[order]
    starts = np.flatnonzero(np.diff(sorted_vids, prepend=-1))
    dictionary = column.dictionary.subset(sorted_vids[starts].tolist())
    bitmaps = batch_from_positions(
        positions[order], np.append(starts, len(order)), total
    )
    status.created_bitmaps(len(bitmaps))
    return BitmapColumn(column.name, column.dtype, dictionary, bitmaps, total)


def merge_general(
    left: Table,
    right: Table,
    op: MergeTables,
    join_attrs,
    status: EvolutionStatus,
) -> Table:
    """Execute the two-pass general mergence; returns the joined table.

    The output is clustered by join value (deterministic group order),
    with ``S``-occurrences consecutive and ``T``-occurrences strided
    inside each block.
    """
    join = tuple(join_attrs)
    if len(join) == 1:
        groups = _pass1_single(left, right, join[0], status)
    else:
        groups = _pass1_composite(left, right, join, status)
    total = groups.total_rows

    s_rank = _grouped_rank(groups.s_cid, len(groups.n1))
    t_rank = _grouped_rank(groups.t_cid, len(groups.n1))

    columns = {}
    with status.step(
        "merge pass 2",
        f"placing values into {total} clustered output rows",
    ):
        for attr in join:
            columns[attr] = _build_join_column(
                left.column(attr), groups, attr, total
            )
            status.created_bitmaps(columns[attr].distinct_count)
        for column_schema in left.schema.columns:
            if column_schema.name in join:
                continue
            columns[column_schema.name] = _build_s_side_column(
                left.column(column_schema.name), groups, s_rank, total, status
            )
        for column_schema in right.schema.columns:
            if column_schema.name in join:
                continue
            columns[column_schema.name] = _build_t_side_column(
                right.column(column_schema.name), groups, t_rank, total, status
            )

    out_columns = left.schema.columns + tuple(
        c for c in right.schema.columns if c.name not in join
    )
    schema = TableSchema(op.out_name, out_columns)
    return Table(schema, columns, total)
