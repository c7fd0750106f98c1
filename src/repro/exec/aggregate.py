"""Compressed-domain aggregation and the vid-level DISTINCT/ORDER BY.

The dictionary-plus-bitmaps layout makes three classic read-path
operations cheap *without decoding rows*:

* **GROUP BY / aggregates** — a :class:`~repro.exec.batch.TableBatch`
  groups by dictionary *vids*.  With no selection (no WHERE) a value's
  row count is its bitmap's popcount (``BitmapColumn.value_counts``)
  less the deleted rows' (a ``bincount`` of D vids): an ungrouped
  aggregate and a one-column GROUP BY's groups and COUNT(*) read those
  counts and touch no live row.  Otherwise every count is one
  histogram of codes cached per main generation — at the selected
  positions, or the whole table's (cached too) less the deleted
  rows' — where the group columns' vids combine into one mixed-radix
  code per row (:mod:`repro.storage.codes`), re-densified before a
  multiply could leave int64 (any number and cardinality of group
  columns folds here), and a value column's joint (group…, value)
  codes are the same code with its vids as the last step, 8 B per row
  per combination.  Each value column is one histogram whose (group,
  value vid) pairs feed one NumPy reduction per kind — SUM and AVG
  share one, MIN and MAX one rank gather — against the dictionary's
  values held as a typed array (``int64``, ``float64`` or ``object``,
  one code path for all three).  Group keys
  are read off each key column's dictionary at the groups' vids only,
  O(groups), and stay columns until the result: one rank array per key
  column and one ``np.lexsort`` order them.  Delta and values batches
  go through a row-wise hash aggregator that writes into the same
  slots, so main and delta partials merge epoch-consistently and a
  query sees exactly the main+delta state its scan pinned.
* **DISTINCT** — on a single dictionary-backed column, distinct values
  are the live vids; enumeration orders them by first selected
  position, reproducing the streaming-dedup row order exactly.  With
  no selection that order is each value's first row (its bitmap's
  first set bit, the paper's distinction), found once per main
  generation and cached — a value whose first row is deleted moves to
  its first live row or drops out; under a selection it is read from
  the column's vid array at the selected positions.
* **ORDER BY** — each value bitmap's positions (less the deleted
  ones) are an already-sorted run, so the main store emits one chunk
  per run in the dictionary's cached value order, with the sorted
  delta rows spliced between runs, instead of materializing and
  sorting the whole table.

There is one aggregation path per batch domain: every main-store
batch folds in the dictionary domain and every delta or values batch
row by row.  :func:`choose_aggregate_strategy` only says whether an
adapter's scans hand over compressed batches at all; the reason string
it returns is what EXPLAIN renders.
"""

from __future__ import annotations

import operator
from collections import Counter
from itertools import chain

import numpy as np

from repro.delta.snapshot import decoded_main_rows, generation_cached
from repro.errors import SqlExecutionError
from repro.exec.batch import (
    TableBatch,
    difference_positions,
    gather,
    intersect_positions,
    project_rows,
)
from repro.exec.operators import row_chunks
from repro.sql.ast import AGGREGATE_FUNCTIONS, Aggregate
from repro.storage import codes as vid_codes

__all__ = [
    "GroupAccumulator",
    "accumulate_batch",
    "aggregate_rows",
    "choose_aggregate_strategy",
    "distinct_chunks",
    "ordered_chunks",
    "validate_aggregate_select",
]

#: Sentinel for "no value seen yet" in MIN/MAX partials (``None`` is a
#: legal SQL value that aggregates must *skip*, so it cannot stand in).
_MISSING = object()


def validate_aggregate_select(select, schema) -> tuple:
    """Validate an aggregating SELECT against ``schema``; returns the
    ``(group_names, aggregates)`` pair execution uses.

    Rules match the usual SQL semantics for the supported subset: no
    aggregates over JOIN, ``SELECT *`` cannot be grouped, every bare
    select-list column must appear in GROUP BY, and every referenced
    column must exist.
    """
    if select.join is not None:
        raise SqlExecutionError("aggregates over JOIN are not supported")
    if select.distinct:
        raise SqlExecutionError(
            "DISTINCT cannot be combined with GROUP BY or aggregates"
        )
    if select.columns is None:
        raise SqlExecutionError(
            "SELECT * cannot be combined with GROUP BY or aggregates"
        )
    for name in select.group_by:
        if not schema.has_column(name):
            raise SqlExecutionError(
                f"no column {name!r} in table {select.table!r}"
            )
    aggregates = []
    for item in select.columns:
        if isinstance(item, Aggregate):
            if item.func not in AGGREGATE_FUNCTIONS:
                raise SqlExecutionError(
                    f"unknown aggregate function {item.func!r}"
                )
            if item.column is None and item.func != "count":
                raise SqlExecutionError(
                    f"{item.func.upper()}(*) is not supported"
                )
            if item.column is not None and not schema.has_column(item.column):
                raise SqlExecutionError(
                    f"no column {item.column!r} in table {select.table!r}"
                )
            aggregates.append(item)
        elif item not in select.group_by:
            raise SqlExecutionError(
                f"column {item!r} must appear in GROUP BY to be selected "
                "alongside aggregates"
            )
    return tuple(select.group_by), tuple(aggregates)


def aggregate_output_names(select) -> tuple[str, ...]:
    """Result column names in select-list order (aggregates labeled
    ``func(column)``)."""
    return tuple(
        item.label if isinstance(item, Aggregate) else item
        for item in select.columns
    )


def choose_aggregate_strategy(select, stats, pushdown=True) -> tuple[str, str]:
    """Pick ``compressed`` vs ``hash`` aggregation and say why.

    Main-store batches always fold in the dictionary domain, whatever
    the number or cardinality of the group columns; only an adapter
    whose scans decode to values (``pushdown=False``) has no compressed
    batch to fold.  ``select`` and ``stats`` (``None`` allowed) only
    shape the reason EXPLAIN renders.
    """
    if not pushdown:
        return "hash", "scan decodes to values (no compressed batches)"
    reason = (
        "main batches group by vid codes" if select.group_by
        else "main batches reduce per-vid counts"
    )
    if stats is not None:
        reason += f", delta share {stats.delta_share:.1%}"
    return "compressed", reason


# ----------------------------------------------------------------------
# Partial state
# ----------------------------------------------------------------------


class GroupAccumulator:
    """Running aggregate partials as columns by group slot.

    ``slots`` maps each decoded group-value tuple to its slot, numbered
    in first-seen order.  Per aggregate, ``values[i]`` holds one partial
    per slot: ``count`` → the running count; ``sum``/``avg`` → the
    running total, with the non-NULL count in ``nonnull[i]``;
    ``min``/``max`` → the best value seen or :data:`_MISSING`.  While
    the slots are one main batch's groups (:meth:`open_groups`),
    ``keys`` also holds them as one list per group column and ``order``
    sorts them, so :meth:`finalized_rows` need not transpose ``slots``.
    Compressed and hash batches both fold into these columns, which is
    what makes main-store partials and delta partials composable at any
    epoch.
    """

    __slots__ = (
        "aggs", "slots", "keys", "order", "values", "nonnull",
        "batches_compressed", "batches_hash",
    )

    def __init__(self, aggs):
        self.aggs = tuple(aggs)
        self.slots: dict[tuple, int] = {}
        self.keys = self.order = None
        self.values: list[list] = [[] for _ in self.aggs]
        self.nonnull: list = [
            [] if agg.func in ("sum", "avg") else None for agg in self.aggs
        ]
        self.batches_compressed = 0
        self.batches_hash = 0

    def open_slots(self, keys) -> list[int]:
        """The slot of each key, opening default partials for new keys."""
        slots = self.slots
        before = len(slots)
        target = [slots.setdefault(key, len(slots)) for key in keys]
        if len(slots) > before:
            self.keys = self.order = None
            self._grow(len(slots) - before)
        return target

    def open_groups(self, keys: list[list], order) -> range | list[int]:
        """:meth:`open_slots` for distinct keys given as one list per
        group column, ``order`` their positions in key order.  A fresh
        accumulator registers them as slots ``0..n-1`` in one step."""
        if self.slots:
            return self.open_slots(zip(*keys))
        self.slots = dict(zip(zip(*keys), range(len(order))))
        self.keys, self.order = keys, order
        self._grow(len(order))
        return range(len(order))

    def _grow(self, grown: int):
        for agg, column, nonnull in zip(self.aggs, self.values, self.nonnull):
            default = _MISSING if agg.func in ("min", "max") else 0
            column.extend([default] * grown)
            if nonnull is not None:
                nonnull.extend([0] * grown)

    def fold(self, index: int, target, values: list, nonnull=None,
             fresh: bool = False):
        """Merge one batch's per-group partials of aggregate ``index`` —
        lists aligned with ``target``, the groups' slots.  On a
        ``fresh`` accumulator the batch's groups are slots ``0..n-1``,
        so the handed-over lists become the columns as they are."""
        if fresh:
            self.values[index] = values
            if nonnull is not None:
                self.nonnull[index] = nonnull
            return
        func = self.aggs[index].func
        column = self.values[index]
        if func in ("min", "max"):
            for slot, value in zip(target, values):
                if value is not _MISSING:
                    _merge_minmax(column, slot, func, value)
        elif nonnull is None:
            for slot, n in zip(target, values):
                column[slot] += n
        else:
            counts = self.nonnull[index]
            for slot, total, n in zip(target, values, nonnull):
                if n:
                    column[slot] += total
                    counts[slot] += n

    def finalized_rows(self, select, group_names) -> list[tuple]:
        """Decode partials into result rows in select-list order.

        An ungrouped aggregate over zero rows still yields one row
        (COUNT = 0, the others NULL).  Groups are ordered by key (NULLs
        last) — one rank array per key column, one ``np.lexsort`` — so
        results are deterministic across strategies and backends.
        """
        if not self.slots:
            if group_names:
                return []
            return [tuple(
                0 if item.func == "count" else None
                for item in select.columns
            )]
        keys, order = self.keys, self.order
        if keys is None:
            keys = list(zip(*self.slots))
            if len(self.slots) > 1:
                order = np.lexsort([_key_rank(c) for c in reversed(keys)])
        out = []
        for item in select.columns:
            if isinstance(item, Aggregate):
                index = self.aggs.index(item)
                column = _finalized_column(
                    item, self.values[index], self.nonnull[index]
                )
            else:
                column = keys[group_names.index(item)]
            out.append(column)
        rows = list(zip(*out))
        if len(rows) < 2:
            return rows
        return list(operator.itemgetter(*order.tolist())(rows))


def _merge_minmax(column: list, slot: int, func: str, value):
    current = column[slot]
    if current is _MISSING or (
        value < current if func == "min" else value > current
    ):
        column[slot] = value


def _key_rank(values, inverse=None) -> np.ndarray:
    """Each group's rank in one key column's sorted distinct values,
    NULL last; slot (accumulation) order when the values do not
    compare.  With ``inverse``, ``values`` are the column's distinct
    values and ``inverse`` each group's index into them."""
    present = set(values)
    present.discard(None)
    try:
        ordered = sorted(present)
    except TypeError:
        return np.arange(len(values if inverse is None else inverse))
    rank = dict(zip(ordered, range(len(ordered))))
    rank[None] = len(ordered)
    ranks = np.fromiter(map(rank.__getitem__, values), np.int64, len(values))
    return ranks if inverse is None else ranks[inverse]


def _finalized_column(agg, values: list, nonnull) -> list:
    func = agg.func
    if func == "count":
        return values
    if func == "sum":
        return [total if n else None for total, n in zip(values, nonnull)]
    if func == "avg":
        return [total / n if n else None for total, n in zip(values, nonnull)]
    return [None if value is _MISSING else value for value in values]


def _require_numeric(agg, value):
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise SqlExecutionError(
            f"{agg.func.upper()}({agg.column}) requires a numeric column, "
            f"got {type(value).__name__}"
        )


# ----------------------------------------------------------------------
# Compressed-domain path (TableBatch)
# ----------------------------------------------------------------------

def _selected_value_counts(table, name: str, selection,
                           deleted=None) -> np.ndarray:
    """Per-vid selected-row counts of one main-store column: a
    ``bincount`` over the column's row-order vid array at the selected
    positions, else the bitmaps' popcounts less the ``bincount`` of the
    ``deleted`` rows — O(distinct + deleted)."""
    column = table.column(name)
    if selection is not None:
        return np.bincount(
            column.vids()[selection], minlength=column.distinct_count
        )
    counts = column.value_counts()
    if deleted is None:
        return counts
    return counts - np.bincount(
        column.vids()[deleted], minlength=column.distinct_count
    )


def _selected_histogram(batch: TableBatch, names, codes, space) -> tuple:
    """``(codes present, counts)`` of the generation's cached ``codes``
    (:func:`_group_codes` of ``names``) over the batch's rows: the
    histogram at the selected positions, else the whole table's,
    cached per generation, less that of the deleted rows — O(groups +
    deleted), with groups whose every row is deleted dropped."""
    if batch.selection is not None:
        return vid_codes.nonzero_counts(codes[batch.selection], space)

    def build():
        present, counts = vid_codes.nonzero_counts(codes, space)
        present.flags.writeable = counts.flags.writeable = False
        return present, counts

    present, counts = generation_cached(
        batch.table, ("histogram", *names), build
    )
    if batch.deleted is None:
        return present, counts
    gone, gone_counts = np.unique(codes[batch.deleted], return_counts=True)
    at = np.searchsorted(present, gone)
    counts = counts.copy()
    counts[at] -= gone_counts
    emptied = at[counts[at] == 0]
    if not len(emptied):
        return present, counts
    kept = np.ones(len(present), dtype=bool)
    kept[emptied] = False
    return present[kept], counts[kept]


class _TypedValues:
    """One column's dictionary as arrays indexed by vid — O(distinct),
    built once per immutable main table.

    ``objects`` holds the values themselves, for array takes (group
    keys, MIN/MAX results, DISTINCT).  ``summable`` holds each numeric
    value and 0 elsewhere, as ``int64`` when every non-NULL value is an
    ``int`` whose magnitude times the row count stays below 2**63 (so
    any sum is exact), as ``float64`` when every non-NULL value is a
    ``float``, and as ``object`` (Python arithmetic: big ints, mixed
    int/float) otherwise.  :meth:`ranked` orders the non-NULL values
    for MIN/MAX and ORDER BY over any orderable type."""

    __slots__ = ("values", "objects", "null", "numeric", "summable",
                 "_ranked")

    def __init__(self, values: list, nrows: int):
        self.values = values
        self.objects = np.empty(len(values), dtype=object)
        self.objects[:] = values
        self.null = np.array([value is None for value in values], bool)
        self.numeric = np.array(
            [
                isinstance(value, (int, float))
                and not isinstance(value, bool)
                for value in values
            ],
            bool,
        )
        present = [value for value in values if value is not None]
        if all(type(value) is int for value in present) and (
            max(map(abs, present), default=0) * max(1, nrows) < 2**63
        ):
            dtype = np.int64
        elif all(type(value) is float for value in present):
            dtype = np.float64
        else:
            dtype = object
        self.summable = np.array(
            [
                value if numeric else 0
                for value, numeric in zip(values, self.numeric.tolist())
            ],
            dtype=dtype,
        )
        self._ranked = None

    def ranked(self) -> tuple[np.ndarray, np.ndarray]:
        """``(order, rank)``: the non-NULL vids in value order, and each
        vid's index in it.  Sorted on first use."""
        if self._ranked is None:
            order = np.array(
                sorted(
                    np.flatnonzero(~self.null).tolist(),
                    key=self.values.__getitem__,
                ),
                dtype=np.int64,
            )
            rank = np.zeros(len(self.values), dtype=np.int64)
            rank[order] = np.arange(len(order))
            self._ranked = (order, rank)
        return self._ranked


def _typed_values(table, name: str) -> _TypedValues:
    return generation_cached(
        table,
        ("typed", name),
        lambda: _TypedValues(
            table.column(name).dictionary.values(), table.nrows
        ),
    )


def _radix(table, name: str) -> int:
    return max(1, table.column(name).distinct_count)


def _group_codes(table, group_names, value=None) -> tuple:
    """``(codes, space, steps)``: the whole table's group codes
    combining the group columns' vids (:mod:`repro.storage.codes`),
    their code space and the steps that decode them — cached per
    generation.  With ``value``, the joint (group…, value) codes: one
    more step on top of the cached group codes.  Either is one
    ``("codes", …)`` entry, 8 B per row."""
    def build():
        if value is None:
            codes, space, steps = vid_codes.combine_columns(
                [table.column(name).vids() for name in group_names],
                [_radix(table, name) for name in group_names],
                table.nrows,
            )
        else:
            codes, space, steps = _group_codes(table, group_names)
            steps = list(steps)
            codes, space = vid_codes.combine(
                codes, space, table.column(value).vids(),
                _radix(table, value), steps,
            )
        codes.flags.writeable = False
        return codes, space, steps

    names = group_names if value is None else (*group_names, value)
    return generation_cached(table, ("codes", *names), build)


def _keys_for_codes(table, group_names, codes, steps) -> tuple:
    """Decode group codes into ``(keys, order)``: one value list per
    group column and the groups' positions in key order.  Each column's
    vids (``split_codes``) are read off its dictionary at the
    distinct vids present only — O(groups), not O(dictionary) — and
    ranked in NumPy from those values' ranks."""
    keys, ranks = [], []
    for name, vids in zip(group_names, vid_codes.split_codes(codes, steps)):
        present, inverse = np.unique(vids, return_inverse=True)
        distinct = np.empty(len(present), dtype=object)
        distinct[:] = table.column(name).dictionary.values_at(present.tolist())
        keys.append(distinct[inverse].tolist())
        ranks.append(_key_rank(distinct.tolist(), inverse))
    return keys, np.lexsort(ranks[::-1])


def _value_partials(batch: TableBatch, name, group_names, group_codes,
                    aggs) -> dict:
    """Per-group partials of ``aggs``, the aggregates over value column
    ``name``: ``{func: (values, nonnull)}``, arrays over ``group_codes``,
    empty when no non-NULL value is selected.  The selected non-NULL
    values collapse to joint (group, value vid) counts sorted by group —
    per-vid counts ungrouped, else the histogram of the cached joint
    codes of ``(*group_names, name)`` (:func:`_group_codes`,
    :func:`_selected_histogram`), only their last step split off — and
    each kind of aggregate is one reduction
    of those pairs: SUM and AVG share one numeric check and one sum of
    value × count, MIN and MAX one gather of the value ranks."""
    table = batch.table
    typed = _typed_values(table, name)
    if not group_names:
        per_vid = _selected_value_counts(
            table, name, batch.selection, batch.deleted
        )
        vid = np.flatnonzero(per_vid)
        group, counts = np.zeros_like(vid), per_vid[vid]
    else:
        joint, space, steps = _group_codes(table, group_names, name)
        joint, counts = _selected_histogram(
            batch, (*group_names, name), joint, space
        )
        size, dense = steps[-1]
        group = joint // size
        vid = joint - group * size
        if dense is not None:
            group = dense[group]
    if typed.null.any():
        keep = ~typed.null[vid]
        group, vid, counts = group[keep], vid[keep], counts[keep]
    if not len(vid):
        return {}
    starts = np.flatnonzero(np.concatenate(([True], group[1:] != group[:-1])))
    slots = np.searchsorted(group_codes, group[starts])
    nonnull = np.zeros(len(group_codes), dtype=np.int64)
    nonnull[slots] = np.add.reduceat(counts, starts)
    partials = {"count": (nonnull, None)}
    summed = [agg for agg in aggs if agg.func in ("sum", "avg")]
    if summed:
        # An int64 or float64 ``summable`` holds only numeric values.
        if typed.summable.dtype == object:
            bad = np.flatnonzero(~typed.numeric[vid])
            if len(bad):
                _require_numeric(summed[0], typed.values[vid[bad[0]]])
        totals = np.zeros(len(group_codes), dtype=typed.summable.dtype)
        totals[slots] = np.add.reduceat(typed.summable[vid] * counts, starts)
        partials["sum"] = partials["avg"] = (totals, nonnull)
    ranks = None
    for func, reduce in (("min", np.minimum), ("max", np.maximum)):
        if any(agg.func == func for agg in aggs):
            order, rank = typed.ranked()
            ranks = rank[vid] if ranks is None else ranks
            best = np.full(len(group_codes), _MISSING, dtype=object)
            best[slots] = typed.objects[order[reduce.reduceat(ranks, starts)]]
            partials[func] = (best, None)
    return partials


def _accumulate_table(batch: TableBatch, group_names, acc: GroupAccumulator):
    """Fold one main-store batch in the dictionary domain.

    Groups and COUNT(*) are the histogram of the group columns' codes
    cached per generation (:func:`_group_codes`) over the batch's rows
    (:func:`_selected_histogram`) — the one group column's popcounts,
    less the deleted rows', when there is no selection — and their
    keys are read off the key columns' dictionaries at the
    groups' vids alone (:func:`_keys_for_codes`).  Each value column
    costs one histogram of its cached joint codes and one NumPy
    reduction per kind of aggregate over it (:func:`_value_partials`),
    the same calls for every value dtype, folded into the
    accumulator's columns whole.  The pairs are in joint-code order, so
    a float sum adds in the same order on every run; it may differ in
    the last ulp from a row-by-row sum, as any reordering of float
    additions can.
    """
    table = batch.table
    fresh = not acc.slots
    if group_names:
        if batch.selection is None and len(group_names) == 1:
            counts = _selected_value_counts(
                table, group_names[0], None, batch.deleted
            )
            group_codes = np.flatnonzero(counts)
            star_counts = counts[group_codes]
            steps = []
        else:
            codes, space, steps = _group_codes(table, group_names)
            group_codes, star_counts = _selected_histogram(
                batch, group_names, codes, space
            )
        target = acc.open_groups(
            *_keys_for_codes(table, group_names, group_codes, steps)
        )
    elif batch.selected_count:
        star_counts = np.array([batch.selected_count])
        group_codes = np.zeros(1, dtype=np.int64)
        target = acc.open_slots([()])
    else:
        return
    partials = {None: {"count": (star_counts, None)}}
    for index, agg in enumerate(acc.aggs):
        if agg.column not in partials:
            partials[agg.column] = _value_partials(
                batch, agg.column, group_names, group_codes,
                [other for other in acc.aggs if other.column == agg.column],
            )
        values, nonnull = partials[agg.column].get(agg.func, (None, None))
        if values is not None:
            acc.fold(
                index, target, values.tolist(),
                None if nonnull is None else nonnull.tolist(), fresh=fresh,
            )


def _accumulate_rows(batch, group_names, acc: GroupAccumulator):
    """The hash path: row-wise accumulation over any batch kind."""
    names = batch.column_names
    count_star_only = all(
        agg.func == "count" and agg.column is None for agg in acc.aggs
    )
    if count_star_only and len(group_names) == 1:
        # Single-column COUNT(*): project just the group column and
        # fold a Counter — no full-row tuples.  An unfiltered values
        # batch hands its vector to Counter directly (C speed).
        from repro.exec.batch import ValuesBatch

        if isinstance(batch, ValuesBatch) and batch.selection is None:
            counts = Counter(batch.columns[group_names[0]])
        else:
            index = names.index(group_names[0])
            counts = Counter(row[0] for row in batch.rows([index]))
        fresh = not acc.slots
        target = acc.open_slots([(value,) for value in counts])
        for position in range(len(acc.aggs)):
            acc.fold(position, target, list(counts.values()), fresh=fresh)
        return
    group_idx = [names.index(name) for name in group_names]
    agg_idx = [
        None if agg.column is None else names.index(agg.column)
        for agg in acc.aggs
    ]
    aggs = acc.aggs
    slots, columns, nonnulls = acc.slots, acc.values, acc.nonnull
    for row in batch.rows():
        key = tuple(row[i] for i in group_idx)
        slot = slots.get(key)
        if slot is None:
            (slot,) = acc.open_slots((key,))
        for index, agg in enumerate(aggs):
            source = agg_idx[index]
            if source is None:
                columns[index][slot] += 1
                continue
            value = row[source]
            if value is None:
                continue
            func = agg.func
            if func == "count":
                columns[index][slot] += 1
            elif func in ("sum", "avg"):
                _require_numeric(agg, value)
                columns[index][slot] += value
                nonnulls[index][slot] += 1
            else:
                _merge_minmax(columns[index], slot, func, value)


def accumulate_batch(
    batch, group_names, acc: GroupAccumulator, strategy: str = "compressed"
):
    """Fold one batch into the accumulator, in the cheapest domain the
    batch (and the chosen ``strategy``) supports."""
    if strategy == "compressed" and isinstance(batch, TableBatch):
        _accumulate_table(batch, group_names, acc)
        acc.batches_compressed += 1
    else:
        _accumulate_rows(batch, group_names, acc)
        acc.batches_hash += 1


def aggregate_rows(
    batches, select, schema, strategy: str = "compressed", stats=None
) -> list[tuple]:
    """Drain ``batches`` through the aggregation pipeline and return the
    finalized result rows (select-list order, sorted by group key)."""
    group_names, aggs = validate_aggregate_select(select, schema)
    acc = GroupAccumulator(aggs)
    for batch in batches:
        accumulate_batch(batch, group_names, acc, strategy)
    if stats is not None:
        stats.agg_batches_compressed += acc.batches_compressed
        stats.agg_batches_hash += acc.batches_hash
        stats.agg_groups += len(acc.slots)
    return acc.finalized_rows(select, group_names)


# ----------------------------------------------------------------------
# DISTINCT as live-vid enumeration
# ----------------------------------------------------------------------


def _by_first_occurrence(vids: np.ndarray, nvids: int) -> tuple:
    """``(order, firsts)``: the vids present in ``vids`` ordered by
    their first index, and those first indexes (ascending)."""
    first = np.full(nvids, len(vids), dtype=np.int64)
    # Fancy assignment keeps the last write per vid, so writing the
    # ascending indexes reversed leaves each vid's first in place.
    first[vids[::-1]] = np.arange(len(vids) - 1, -1, -1)
    live = np.flatnonzero(first < len(vids))
    live = live[np.argsort(first[live])]
    return live, first[live]


def _first_row_order(table, name: str) -> tuple:
    """``(order, firsts)``: the vids of ``name`` with a non-empty
    bitmap, ordered by their first row (their bitmap's first set bit),
    and those rows — the order streaming dedup meets them in an
    unselected scan.  Read off the column's vid array once per main
    generation; O(distinct) kept."""
    def build():
        column = table.column(name)
        order, firsts = _by_first_occurrence(
            column.vids(), column.distinct_count
        )
        order.flags.writeable = firsts.flags.writeable = False
        return order, firsts

    return generation_cached(table, ("first", name), build)


def _first_live_order(batch: TableBatch, name: str) -> np.ndarray:
    """:func:`_first_row_order` past the batch's deleted rows: a value
    whose first row is deleted moves to its first live row, read off its
    bitmap, or drops out when every row of it is deleted; every other
    value keeps its place.  O(distinct + deleted) plus one bitmap per
    moved value."""
    order, firsts = _first_row_order(batch.table, name)
    # ``firsts`` ascends, so the deleted ones are found by position.
    moved = np.searchsorted(firsts, intersect_positions(firsts, batch.deleted))
    if not len(moved):
        return order
    column = batch.table.column(name)
    vids, rows = [], []
    for vid in order[moved].tolist():
        live = difference_positions(
            column.bitmap_for_vid(vid).positions(), batch.deleted
        )
        if len(live):
            vids.append(vid)
            rows.append(live[0])
    by_row = np.argsort(rows)
    return np.insert(
        np.delete(order, moved),
        np.searchsorted(np.delete(firsts, moved), np.asarray(rows)[by_row]),
        np.asarray(vids, dtype=np.int64)[by_row],
    )


def _table_batch_distinct(batch: TableBatch, name: str) -> list:
    """Distinct values of one main-store column ordered by first
    *selected* position — the order streaming dedup would produce."""
    table = batch.table
    column = table.column(name)
    nvids = column.distinct_count
    if nvids == 0:
        return []
    if batch.selection is not None:
        live, _firsts = _by_first_occurrence(
            column.vids()[batch.selection], nvids
        )
    elif batch.deleted is not None:
        live = _first_live_order(batch, name)
    else:
        live = _first_row_order(table, name)[0]
    return _typed_values(table, name).objects[live].tolist()


def distinct_chunks(batches, name: str, stats=None):
    """DISTINCT on a single column: live-vid enumeration on main-store
    batches, value hashing on delta/values batches.  Yields one chunk
    of 1-tuples per batch, in global first-occurrence order (main
    first, then delta), matching
    :func:`repro.exec.operators.dedup_chunks` over the projected rows;
    ``stats`` counts each batch and the values decoded from it."""
    seen = set()
    for batch in batches:
        if isinstance(batch, TableBatch):
            values = rows = _table_batch_distinct(batch, name)  # once each
        else:
            rows = batch.rows([batch.column_names.index(name)])
            values = dict.fromkeys(row[0] for row in rows)
        if stats is not None:
            stats.batches += 1
            stats.rows_decoded += len(rows)
        chunk = [(value,) for value in values if value not in seen]
        seen.update(values)
        if chunk:
            yield chunk


# ----------------------------------------------------------------------
# ORDER BY as dictionary-order presorted runs
# ----------------------------------------------------------------------


def _table_batch_ordered(
    batch: TableBatch, name: str, ascending: bool, out_positions
):
    """Selected main-store rows in ``name`` order, emitted as one
    presorted chunk per dictionary value (positions within a value bitmap
    already ascend, preserving the stable-sort tie order).  The value
    order is the dictionary's cached rank, NULL last ascending and
    first descending.  Rows decode lazily, one value run at a time — a
    LIMIT stops the scan early."""
    column = batch.table.column(name)
    typed = _typed_values(batch.table, name)
    order, _rank = typed.ranked()
    nulls = np.flatnonzero(typed.null)
    vids = (
        np.concatenate((order, nulls)) if ascending
        else np.concatenate((nulls, order[::-1]))
    )
    selection, deleted = batch.selection, batch.deleted
    decoded = None
    for vid in vids.tolist():
        positions = column.bitmap_for_vid(vid).positions()
        if selection is not None:
            positions = intersect_positions(positions, selection)
        elif deleted is not None:
            positions = difference_positions(positions, deleted)
        if not len(positions):
            continue
        if decoded is None:
            decoded = decoded_main_rows(batch.table)
        yield project_rows(gather(decoded, positions), out_positions)


def ordered_chunks(batches, name: str, ascending: bool, out_positions,
                   out_index: int, stats=None):
    """ORDER BY without a global sort: the first batch, when it is the
    main store, yields one presorted chunk per dictionary value, and
    the remaining (small) delta/values batches are sorted once and
    spliced in front of the first run they do not follow.  Tie order
    matches the row path's stable sort — within a run rows keep scan
    order, and earlier batches win ties.  ``stats`` counts each batch
    and its rows as they decode (a LIMIT counts only what it read)."""
    def sort_key(row):
        value = row[out_index]
        return (value is None, value)

    batches = list(batches)
    runs = ()
    if batches and isinstance(batches[0], TableBatch):
        runs = _table_batch_ordered(
            batches.pop(0), name, ascending, out_positions
        )
        if stats is not None:
            stats.batches += 1
    rest = sorted(
        chain.from_iterable(row_chunks(batches, out_positions, stats)),
        key=sort_key,
        reverse=not ascending,
    )
    precedes = operator.lt if ascending else operator.gt
    taken = 0
    for run in runs:
        if stats is not None:
            stats.rows_decoded += len(run)
        key = sort_key(run[0])
        end = taken
        while end < len(rest) and precedes(sort_key(rest[end]), key):
            end += 1
        yield rest[taken:end] + run if end > taken else run
        taken = end
    if taken < len(rest):
        yield rest[taken:]
