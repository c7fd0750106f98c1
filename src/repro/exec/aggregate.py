"""Compressed-domain aggregation and the vid-level DISTINCT/ORDER BY.

The dictionary-plus-bitmaps layout makes three classic read-path
operations cheap *without decoding rows*:

* **GROUP BY / aggregates** — every main-store
  :class:`~repro.exec.batch.TableBatch` folds through one pipeline,
  and an ungrouped aggregate is a grouping by no column: one group 0
  that every row holds.  A batch's rows are a selection (WHERE), the
  whole table, or the whole table less D deleted rows, and every count
  is one histogram over such a row set (:func:`_histogram`) of codes
  cached per main generation: the group columns' vids combined into
  one mixed-radix code per row (:mod:`repro.storage.codes`,
  re-densified before a multiply could leave int64), and per value
  column the joint (group…, value) codes with its vids as the last
  step, 8 B per row per combination; the whole table's codes of one
  column are its vids, read off the bitmaps' popcounts.  With no
  selection the histograms are built once per generation into its
  **whole-table partials** — one entry per group-column tuple (the
  groups' codes, COUNT(*), decoded keys and key order) and one per
  value column (its pairs and each group's non-NULL count, exact sum
  and MIN/MAX value ranks) — so a warm statement folds them as they
  are, and D deleted rows subtract their own histogram in O(D), a
  group re-reducing from its slice of the pairs only where a float or
  object sum lost rows or its MIN/MAX value lost its last row.  Each
  value column's (group, value vid) pairs feed one NumPy reduction per
  kind — SUM and AVG share one, MIN and MAX one rank gather — against
  the dictionary's values held as a typed array (``int64``,
  ``float64`` or ``object``, one code path for all three).  Group keys
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
from itertools import chain, compress

import numpy as np

from repro.delta.snapshot import decoded_main_rows, generation_cached
from repro.errors import SqlExecutionError
from repro.exec.batch import (
    TableBatch,
    ValuesBatch,
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
        "batches_compressed", "batches_hash", "partials_reused",
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
        self.partials_reused = 0

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
        group column, ``order`` their positions in key order (with no
        group column, the one group ``()`` if any).  A fresh
        accumulator registers them as slots ``0..n-1`` in one step."""
        count = len(order)
        groups = zip(*keys) if keys else [()] * count
        if self.slots:
            return self.open_slots(groups)
        self.slots = dict(zip(groups, range(count)))
        self.keys, self.order = keys, order
        self._grow(count)
        return range(count)

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
        so the handed-over lists become the columns, a sum with no
        non-NULL row reset to the ``0`` a row-wise sum starts from."""
        if fresh:
            if nonnull is not None:
                self.nonnull[index] = nonnull
                if 0 in nonnull:
                    values = [v if n else 0 for v, n in zip(values, nonnull)]
            self.values[index] = values
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

class _TypedValues:
    """One column's dictionary as arrays indexed by vid — O(distinct),
    built once per immutable main table.

    ``objects`` holds the values themselves, for array takes (group
    keys, MIN/MAX results, DISTINCT).  ``summable`` holds each numeric
    value and 0 elsewhere, as ``int64`` when every non-NULL value is an
    ``int`` whose magnitude times the row count stays below 2**63 (so
    any sum is exact), as ``float64`` when every non-NULL value is a
    ``float``, and as ``object`` (Python arithmetic: big ints, mixed
    int/float) otherwise; ``nullable`` is whether NULL is a value.
    :meth:`ranked` orders the non-NULL values for MIN/MAX and ORDER BY
    over any orderable type."""

    __slots__ = ("values", "objects", "null", "nullable", "numeric",
                 "summable", "_ranked")

    def __init__(self, values: list, nrows: int):
        self.values = values
        self.objects = np.empty(len(values), dtype=object)
        self.objects[:] = values
        self.null = np.array([value is None for value in values], bool)
        self.nullable = bool(self.null.any())
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

    def ranked(self) -> tuple:
        """``(order, rank, by_rank)``: the non-NULL vids in value order,
        each vid's index in it, and the values in that order with
        :data:`_MISSING` last, at rank -1.  Sorted on first use."""
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
            by_rank = np.append(self.objects[order], [_MISSING])
            self._ranked = (order, rank, by_rank)
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
    ``("codes", …)`` entry, 8 B per row.  With no group column every
    row is group 0, a stride-0 view, and the joint codes are the value
    column's vids under one step: neither costs a byte."""
    if value is not None and not group_names:
        radix = _radix(table, value)
        return table.column(value).vids(), radix, [(radix, None)]

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


def _histogram(table, group_names, value=None, rows=None) -> tuple:
    """``(present, counts, steps)``: the codes of :func:`_group_codes`
    that the rows at positions ``rows`` hold — a selection, a batch's
    deleted rows, or with ``None`` the whole table — ascending, the
    rows holding each, and the steps that decode them.  The whole
    table's codes of one column are its vids, read off its bitmaps'
    popcounts without a vid array, and a one-code space is counted, not
    histogrammed."""
    names = group_names if value is None else (*group_names, value)
    if rows is None and len(names) == 1:
        per_vid = table.column(names[0]).value_counts()
        present = np.flatnonzero(per_vid)
        steps = [] if value is None else [(_radix(table, value), None)]
        return present, per_vid[present], steps
    codes, space, steps = _group_codes(table, group_names, value)
    nrows = table.nrows if rows is None else len(rows)
    if space == 1:
        present = np.zeros(min(1, nrows), dtype=np.int64)
        return present, present + nrows, steps
    if rows is not None:
        codes = codes[rows]
    return (*vid_codes.nonzero_counts(codes, space), steps)


def _keys_for_codes(table, group_names, codes, steps) -> tuple:
    """Decode group codes into ``(keys, order)``: one value list per
    group column and the groups' positions in key order.  Each column's
    vids (``split_codes``) are read off its dictionary at the
    distinct vids present only — O(groups), not O(dictionary) — and
    ranked in NumPy from those values' ranks.  With no group column
    there are no keys; one group, or none, is in order already."""
    keys, ranks = [], []
    for name, vids in zip(group_names, vid_codes.split_codes(codes, steps)):
        present, inverse = np.unique(vids, return_inverse=True)
        distinct = np.empty(len(present), dtype=object)
        distinct[:] = table.column(name).dictionary.values_at(present.tolist())
        keys.append(distinct[inverse].tolist())
        ranks.append(_key_rank(distinct.tolist(), inverse))
    if len(codes) < 2:
        return keys, np.arange(len(codes))
    return keys, np.lexsort(ranks[::-1])


def _split_value(joint, steps) -> tuple:
    """``(group codes, value vids)`` of ascending joint (group…, value)
    codes: only their last step split off.  Codes all below that step's
    radix are all in the first group and are the vids themselves."""
    size, dense = steps[-1]
    if len(joint) and joint[-1] < size:
        group, vid = np.zeros(len(joint), dtype=np.int64), joint
    else:
        group = joint // size
        vid = joint - group * size
    if dense is not None:
        group = dense[group]
    return group, vid


#: The partial each aggregate function reads: AVG is SUM over COUNT.
_KIND = {"count": "count", "sum": "sum", "avg": "sum", "min": "min",
         "max": "max"}


def _reduced(typed, kinds, starts, vid, counts) -> dict:
    """Per-group partials of one value column from its (group, value
    vid) pairs in group order, group ``i``'s from ``starts[i]`` on and
    pair ``j`` held by ``counts[j]`` rows: ``{kind: array over the
    groups}`` for each of ``kinds``, one NumPy reduction each, NULL
    values and pairs no row holds adding nothing.

    ``count`` is the non-NULL count; ``sum`` is ``(totals, bad)``,
    value × count added in pair order and each group's non-numeric row
    count (``None`` for an ``int64`` or ``float64`` ``summable``, which
    holds only numbers); ``min`` and ``max`` are each group's best value
    rank (:meth:`_TypedValues.ranked`), -1 for a group with none."""
    live = counts > 0
    if typed.nullable:
        live &= ~typed.null[vid]
    if live.all():
        live = None

    def only_live(values, fill):
        return values if live is None else np.where(live, values, fill)

    parts = {}
    if "count" in kinds:
        parts["count"] = np.add.reduceat(only_live(counts, 0), starts)
    if "sum" in kinds:
        summable = typed.summable
        bad = None
        if summable.dtype == object:
            bad = np.add.reduceat(
                only_live(counts * ~typed.numeric[vid], 0), starts
            )
        added = summable[vid] * counts
        if live is not None:
            added[~live] = 0
        parts["sum"] = (np.add.reduceat(added, starts), bad)
    ranks = None
    for kind, reduce, none in (
        ("min", np.minimum, len(typed.values)), ("max", np.maximum, -1),
    ):
        if kind in kinds:
            if ranks is None:
                ranks = typed.ranked()[1][vid]
            best = reduce.reduceat(only_live(ranks, none), starts)
            if live is not None:
                best[best == none] = -1
            parts[kind] = best
    return parts


def _first_non_numeric(typed, vid, counts):
    """The first value of the pairs ``vid`` that a row holds and SUM
    cannot add."""
    wrong = (counts > 0) & ~typed.numeric[vid] & ~typed.null[vid]
    return typed.values[vid[np.argmax(wrong)]]


def _selected_partials(batch: TableBatch, group_names, columns) -> tuple:
    """``(groups, COUNT(*) per group, {value column: partials})`` of a
    batch under a selection, per statement: the histogram of the group
    codes at the selected positions, keys decoded at its groups' vids
    (:func:`_keys_for_codes`), and per value column the histogram of
    its joint codes there, reduced by :func:`_reduced`: every selected
    group holds a pair, so the pairs' groups are the groups in order,
    and each group's pairs start where its code first appears."""
    table, selection = batch.table, batch.selection
    codes, star, steps = _histogram(table, group_names, rows=selection)
    keys, order = _keys_for_codes(table, group_names, codes, steps)
    partials = {}
    for name, (kinds, summed) in columns.items():
        typed = _typed_values(table, name)
        joint, counts, steps = _histogram(table, group_names, name, selection)
        group, vid = _split_value(joint, steps)
        starts = np.searchsorted(group, codes)
        parts = _reduced(typed, kinds, starts, vid, counts)
        bad = parts["sum"][1] if summed is not None else None
        if bad is not None and bad.any():
            _require_numeric(summed, _first_non_numeric(typed, vid, counts))
        partials[name] = parts
    return (keys, order), star, partials


# -- whole-table partials, cached per generation ------------------------


def _slice_pairs(entry, slots, at, gone) -> tuple:
    """``(starts, vid, counts)``: the whole-table pairs of ``entry``
    (:func:`_whole_value_partials`) of the groups at positions
    ``slots`` (ascending) only, less the deleted rows ``gone`` of the
    pairs ``at``; group ``slots[i]``'s pairs start at ``starts[i]``.
    O(those groups' pairs)."""
    bounds = entry["bounds"]
    present, counts = entry["present"], entry["counts"]
    low = bounds[slots]
    lengths = bounds[slots + 1] - low
    starts = np.cumsum(lengths) - lengths
    if len(slots) < len(bounds) - 1:
        index = np.arange(lengths.sum()) + np.repeat(low - starts, lengths)
        present, counts = present[index], counts[index]
        inside = np.minimum(np.searchsorted(index, at), len(index) - 1)
        hit = index[inside] == at
        counts[inside[hit]] -= gone[hit]
    else:
        counts = counts.copy()
        counts[at] -= gone
    return starts, _split_value(present, entry["steps"])[1], counts


def _less_deleted(table, group_names, name, typed, entry, kinds,
                  deleted) -> tuple:
    """``(parts, at, gone)``: the whole-table partials ``entry`` of
    value column ``name``, ``kinds`` of them, less the ``deleted``
    rows, and the deleted rows ``gone`` of the live pairs ``at`` among
    the entry's pairs.  The D rows' own pairs (their histogram) subtract
    their counts and integer sums, O(D); a group re-reduces from its
    slice of the pairs (:func:`_slice_pairs`) only where a float or
    object sum lost rows or where its MIN/MAX value lost its last
    row."""
    codes, gone, steps = _histogram(table, group_names, name, deleted)
    vid = _split_value(codes, steps)[1]
    if typed.nullable:
        live = ~typed.null[vid]
        codes, vid, gone = codes[live], vid[live], gone[live]
    at = np.searchsorted(entry["present"], codes)
    group = np.searchsorted(entry["bounds"][1:-1], at, side="right")
    whole = entry["counts"][at]
    parts = {kind: entry[kind] for kind in kinds}
    parts["count"] = parts["count"].copy()
    np.subtract.at(parts["count"], group, gone)
    redo = []
    if "sum" in kinds:
        totals, bad = parts["sum"]
        if bad is not None:
            bad = bad.copy()
            np.subtract.at(bad, group, gone * ~typed.numeric[vid])
        if totals.dtype == np.int64:
            totals = totals.copy()
            np.subtract.at(totals, group, typed.summable[vid] * gone)
        else:
            # A float or object sum re-adds its pairs in order instead.
            redo.append(("sum", group))
        parts["sum"] = (totals, bad)
    for kind in ("min", "max"):
        if kind in kinds:
            lost = (whole == gone) & (
                typed.ranked()[1][vid] == parts[kind][group]
            )
            redo.append((kind, group[lost]))
    slots = np.concatenate([touched for _kind, touched in redo] or [group[:0]])
    if len(slots):
        slots = np.unique(slots)
        fresh = _reduced(
            typed, [kind for kind, _touched in redo],
            *_slice_pairs(entry, slots, at, gone),
        )
        for kind, _touched in redo:
            if kind == "sum":
                totals = parts["sum"][0].copy()
                totals[slots] = fresh["sum"][0]
                parts["sum"] = (totals, parts["sum"][1])
            else:
                parts[kind] = parts[kind].copy()
                parts[kind][slots] = fresh[kind]
    return parts, at, gone


def _whole_value_partials(batch, group_names, codes, name, kinds, summed,
                          built) -> dict:
    """Value column ``name``'s partials over a batch with no selection,
    read off its whole-table entry of this generation — the pairs, as
    the joint codes ``present`` over the whole table and the rows
    ``counts`` holding each (:func:`_histogram`), with ``bounds``
    (group ``g``'s pairs are ``bounds[g]:bounds[g + 1]``), and each
    kind of partial, O(groups), added by the first statement that needs
    it — less the batch's deleted rows (:func:`_less_deleted`).  Every
    group of the table holds a pair, so the pairs' groups are the
    groups entry's, ``codes``, in order.  SUM/AVG raise while a
    non-numeric value is live."""
    table = batch.table
    typed = _typed_values(table, name)
    entry = generation_cached(table, ("partials", group_names, name), dict)
    missing = [kind for kind in kinds if kind not in entry]
    if missing:
        built.append(("partials", group_names, name))
        if not entry:
            present, counts, steps = _histogram(table, group_names, name)
            group, _vid = _split_value(present, steps)
            present.flags.writeable = counts.flags.writeable = False
            entry.update(
                present=present, counts=counts, steps=steps,
                bounds=np.append(np.searchsorted(group, codes), len(group)),
            )
        vid = _split_value(entry["present"], entry["steps"])[1]
        entry.update(_reduced(
            typed, missing, entry["bounds"][:-1], vid, entry["counts"]
        ))
    at = gone = np.zeros(0, dtype=np.int64)
    if batch.deleted is None:
        parts = {kind: entry[kind] for kind in kinds}
    else:
        parts, at, gone = _less_deleted(
            table, group_names, name, typed, entry, kinds, batch.deleted
        )
    bad = parts["sum"][1] if summed is not None else None
    if bad is not None and bad.any():
        _starts, vid, counts = _slice_pairs(
            entry, np.flatnonzero(bad)[:1], at, gone
        )
        _require_numeric(summed, _first_non_numeric(typed, vid, counts))
    return parts


def _whole_partials(batch: TableBatch, group_names, columns,
                    built: list) -> tuple:
    """:func:`_selected_partials` for a batch with no selection, read
    off the generation's whole-table entries: the groups of
    ``group_names`` with their COUNT(*) and decoded keys
    (:func:`_keys_for_codes`) and each value column's partials
    (:func:`_whole_value_partials`), each O(groups) and built by the
    first statement that needs it.  D deleted rows subtract their
    groups' counts (their histogram), and a group they empty drops
    out.  Each entry this call builds is noted in ``built``."""
    table, deleted = batch.table, batch.deleted

    def build():
        built.append(("groups", *group_names))
        codes, counts, steps = _histogram(table, group_names)
        keys, order = _keys_for_codes(table, group_names, codes, steps)
        for array in (codes, counts, order):
            array.flags.writeable = False
        return codes, counts, tuple(map(tuple, keys)), order

    group_codes, star, keys, order = generation_cached(
        table, ("groups", *group_names), build
    )
    groups, kept = (keys, order), None
    if deleted is not None:
        if len(star) == 1:  # the one group holds every deleted row
            star = star - len(deleted)
        else:
            codes, gone, _steps = _histogram(table, group_names, rows=deleted)
            star = star.copy()
            star[np.searchsorted(group_codes, codes)] -= gone
        if np.count_nonzero(star) < len(star):
            kept = star > 0
    partials = {
        name: _whole_value_partials(
            batch, group_names, group_codes, name, kinds, summed, built
        )
        for name, (kinds, summed) in columns.items()
    }
    if kept is not None:
        flags = kept.tolist()
        position = np.cumsum(kept) - 1
        groups = (
            [list(compress(column, flags)) for column in keys],
            position[order[kept[order]]],
        )
        star = star[kept]
        partials = {
            name: {
                kind: (part[0][kept], None) if kind == "sum" else part[kept]
                for kind, part in parts.items()
            }
            for name, parts in partials.items()
        }
    return groups, star, partials


def _accumulate_table(batch: TableBatch, group_names, acc: GroupAccumulator):
    """Fold one main-store batch in the dictionary domain.

    With no selection the batch reads the generation's whole-table
    groups and partials (:func:`_whole_partials`), adjusted by its
    deleted rows: O(groups + D) per statement once the entries exist.
    Under a selection every statement counts the selected positions
    (:func:`_selected_partials`).  Either way a group's partials fold
    into the accumulator's columns whole, the same calls for every
    value dtype and every number of group columns, none included.
    Pairs add in joint-code order, so a float sum adds in the same
    order on every run; it may differ in the last ulp from a row-by-row
    sum, as any reordering of float additions can.
    """
    columns: dict = {}
    for agg in acc.aggs:
        if agg.column is not None:
            kinds, summed = columns.get(agg.column, ({"count"}, None))
            kinds.add(_KIND[agg.func])
            if summed is None and agg.func in ("sum", "avg"):
                summed = agg
            columns[agg.column] = kinds, summed
    if batch.selection is None:
        built = []
        groups, star, partials = _whole_partials(
            batch, group_names, columns, built
        )
        # A bare COUNT(*) reads no keys and no value partials.
        if not built and (groups[0] or partials):
            acc.partials_reused += 1
    else:
        groups, star, partials = _selected_partials(
            batch, group_names, columns
        )
    fresh = not acc.slots
    target = acc.open_groups(*groups)
    for index, agg in enumerate(acc.aggs):
        nonnull = None
        if agg.column is None:
            values = star
        else:
            parts, kind = partials[agg.column], _KIND[agg.func]
            if kind == "count":
                values = parts["count"]
            elif kind == "sum":
                values, nonnull = parts["sum"][0], parts["count"]
            else:
                typed = _typed_values(batch.table, agg.column)
                values = typed.ranked()[2][parts[kind]]
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
    """Drain ``batches`` through the aggregation pipeline — the
    planner's aggregate stage — and return the finalized result rows
    (select-list order, sorted by group key), counted into ``stats``."""
    group_names, aggs = validate_aggregate_select(select, schema)
    acc = _drain(batches, group_names, aggs, strategy, stats)
    return acc.finalized_rows(select, group_names)


def _drain(batches, group_names, aggs, strategy, stats) -> GroupAccumulator:
    """Fold ``batches`` into one accumulator, counted into ``stats``,
    for a SELECT already validated into ``group_names`` and ``aggs``."""
    acc = GroupAccumulator(aggs)
    for batch in batches:
        accumulate_batch(batch, group_names, acc, strategy)
    if stats is not None:
        stats.agg_batches_compressed += acc.batches_compressed
        stats.agg_batches_hash += acc.batches_hash
        stats.agg_partials_reused += acc.partials_reused
        stats.agg_groups += len(acc.slots)
    return acc


# ----------------------------------------------------------------------
# DISTINCT as live-vid enumeration
# ----------------------------------------------------------------------


def _first_row_order(table, name: str) -> tuple:
    """``(order, firsts)``: the vids of ``name`` with a non-empty
    bitmap, ordered by their first row (their bitmap's first set bit),
    and those rows — the order streaming dedup meets them in an
    unselected scan.  Read off the column's vid array once per main
    generation; O(distinct) kept."""
    def build():
        column = table.column(name)
        present, first = vid_codes.first_rows(
            column.vids(), column.distinct_count
        )
        by_row = np.argsort(first)
        order, firsts = present[by_row], first[by_row]
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
        present, first = vid_codes.first_rows(
            column.vids()[batch.selection], nvids
        )
        live = present[np.argsort(first)]
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
    order = typed.ranked()[0]
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
