"""Compressed-domain aggregation and the vid-level DISTINCT/ORDER BY.

The dictionary-plus-bitmaps layout makes three classic read-path
operations cheap *without decoding rows*:

* **GROUP BY / aggregates** — a :class:`~repro.exec.batch.TableBatch`
  groups by dictionary *vids*.  Every count is a ``bincount`` over a
  column's cached row-order vid array (restricted to the selection):
  per vid for an ungrouped aggregate, per (group code, value vid) pair
  for a grouped one.  SUM/AVG/MIN/MAX are then NumPy reductions of
  those O(distinct) pair counts against the dictionary's values held
  as a typed array (``int64``, ``float64`` or ``object``, one code
  path for all three), so Python loops only over result groups.
  Delta and values batches fall back to a row-wise hash aggregator;
  both sides produce *partials* keyed by decoded group values that
  merge epoch-consistently, so a query sees exactly the main+delta
  state its scan pinned.
* **DISTINCT** — on a single dictionary-backed column, distinct values
  are the live vids; enumeration orders them by first selected
  position (from the first-set bits, or from the cached vid array
  under a selection), reproducing the streaming-dedup row order
  exactly.
* **ORDER BY** — each value bitmap's positions are an already-sorted
  run, so the main store emits dictionary-order presorted runs that
  merge (``heapq.merge``) with the sorted delta rows instead of
  materializing and sorting the whole table.

Strategy choice is statistics-driven: :func:`choose_aggregate_strategy`
consults :class:`~repro.storage.statistics.TableStats` (distinct
counts, delta share) and falls back to the hash aggregator when the
estimated group count approaches the row count — the reason string it
returns is what EXPLAIN renders.
"""

from __future__ import annotations

import heapq
import math
import weakref
from collections import Counter

import numpy as np

from repro.bitmap.batch import batch_first_set
from repro.errors import SqlExecutionError
from repro.exec.batch import TableBatch, gather, project_rows
from repro.sql.ast import AGGREGATE_FUNCTIONS, Aggregate

__all__ = [
    "GroupAccumulator",
    "accumulate_batch",
    "aggregate_rows",
    "choose_aggregate_strategy",
    "distinct_values",
    "ordered_rows",
    "validate_aggregate_select",
]

#: Sentinel for "no value seen yet" in MIN/MAX partials (``None`` is a
#: legal SQL value that aggregates must *skip*, so it cannot stand in).
_MISSING = object()

#: Estimated-groups floor below which compressed-domain aggregation is
#: always preferred (grouping cost is bounded by the dictionary size).
_COMPRESSED_MIN_GROUPS = 64


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

    The compressed path's grouping cost is bounded by the number of
    distinct group-key combinations (dictionary sizes), so it wins
    whenever that estimate stays well below the main-store row count;
    a high-cardinality GROUP BY degenerates to per-group bookkeeping
    and the row-wise hash aggregator is no worse.  Without statistics
    (a row-oriented backend) or compressed batches (an adapter whose
    scans decode to values, ``pushdown=False``) only the hash path
    exists.
    """
    if not pushdown:
        return "hash", "scan decodes to values (no compressed batches)"
    if stats is None:
        return "hash", "no table statistics (row-wise backend)"
    estimated = 1
    for name in select.group_by:
        column = stats.column(name)
        if column is None:
            return "hash", f"no statistics for group column {name!r}"
        estimated *= max(1, column.distinct)
    ceiling = max(_COMPRESSED_MIN_GROUPS, stats.main_rows // 8)
    if estimated > ceiling:
        return (
            "hash",
            f"estimated groups {estimated} > ceiling {ceiling} "
            f"(main_rows/8)",
        )
    return (
        "compressed",
        f"estimated groups {estimated} <= ceiling {ceiling}, "
        f"delta share {stats.delta_share:.1%}",
    )


# ----------------------------------------------------------------------
# Partial state
# ----------------------------------------------------------------------


class GroupAccumulator:
    """Running aggregate partials keyed by decoded group-value tuples.

    Per aggregate the partial state is: ``count`` → running count;
    ``sum``/``avg`` → ``[total, nonnull]``; ``min``/``max`` → the best
    value seen or :data:`_MISSING`.  Compressed and hash batches both
    merge into the same structure, which is what makes main-store
    partials and delta partials composable at any epoch.
    """

    __slots__ = ("aggs", "groups", "batches_compressed", "batches_hash")

    def __init__(self, aggs):
        self.aggs = tuple(aggs)
        self.groups: dict[tuple, list] = {}
        self.batches_compressed = 0
        self.batches_hash = 0

    def _new_state(self) -> list:
        state: list = []
        for agg in self.aggs:
            if agg.func == "count":
                state.append(0)
            elif agg.func in ("sum", "avg"):
                state.append([0, 0])
            else:
                state.append(_MISSING)
        return state

    def state(self, key: tuple) -> list:
        found = self.groups.get(key)
        if found is None:
            found = self._new_state()
            self.groups[key] = found
        return found

    def merge_minmax(self, state: list, index: int, func: str, value):
        current = state[index]
        if current is _MISSING:
            state[index] = value
        elif func == "min":
            if value < current:
                state[index] = value
        elif value > current:
            state[index] = value

    def finalized_rows(self, select, group_names) -> list[tuple]:
        """Decode partials into result rows in select-list order.

        An ungrouped aggregate over zero rows still yields one row
        (COUNT = 0, the others NULL).  Output is sorted by group key
        (NULLs last) so results are deterministic across strategies
        and backends.
        """
        groups = self.groups
        if not groups and not group_names:
            groups = {(): self._new_state()}
        layout = []
        for item in select.columns:
            if isinstance(item, Aggregate):
                layout.append(("agg", self.aggs.index(item)))
            else:
                layout.append(("key", group_names.index(item)))
        rows = []
        for key, state in groups.items():
            out = []
            for kind, index in layout:
                if kind == "key":
                    out.append(key[index])
                else:
                    out.append(_finalize_one(self.aggs[index], state[index]))
            rows.append((key, tuple(out)))
        try:
            rows.sort(key=lambda pair: tuple(
                (value is None, value) for value in pair[0]
            ))
        except TypeError:
            pass  # incomparable mixed keys: keep accumulation order
        return [out for _key, out in rows]


def _finalize_one(agg, state):
    func = agg.func
    if func == "count":
        return state
    if func == "sum":
        return state[0] if state[1] else None
    if func == "avg":
        return state[0] / state[1] if state[1] else None
    return None if state is _MISSING else state


def _require_numeric(agg, value):
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise SqlExecutionError(
            f"{agg.func.upper()}({agg.column}) requires a numeric column, "
            f"got {type(value).__name__}"
        )


# ----------------------------------------------------------------------
# Compressed-domain path (TableBatch)
# ----------------------------------------------------------------------

#: Per-(main-store table, key) arrays: row-order vid arrays keyed by
#: column name, typed dictionary values keyed by ``("typed", name)``.
#: Tables are immutable — mutation swaps in a fresh ``Table`` object —
#: so the weak keying doubles as invalidation, exactly like the
#: decoded-row cache in :mod:`repro.delta.snapshot`.
_COLUMN_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _cached(table, key, build):
    per_table = _COLUMN_CACHE.get(table)
    if per_table is None:
        per_table = {}
        _COLUMN_CACHE[table] = per_table
    found = per_table.get(key)
    if found is None:
        found = build()
        per_table[key] = found
    return found


def _decode_vids(table, name: str) -> np.ndarray:
    def build():
        vids = table.column(name).decode_vids()
        vids.flags.writeable = False
        return vids

    return _cached(table, name, build)


def _selected_value_counts(table, name: str, selection) -> np.ndarray:
    """Per-vid selected-row counts of one main-store column: a
    ``bincount`` over the cached row-order vid array, restricted to the
    selection's rows when there is one."""
    vids = _decode_vids(table, name)
    if selection is not None:
        vids = vids[selection.to_dense()]
    return np.bincount(vids, minlength=table.column(name).distinct_count)


class _TypedValues:
    """One column's dictionary as arrays indexed by vid — O(distinct),
    built once per immutable main table.

    ``summable`` holds each numeric value and 0 elsewhere, as ``int64``
    when every non-NULL value is an ``int`` whose magnitude times the
    row count stays below 2**63 (so any sum is exact), as ``float64``
    when every non-NULL value is a ``float``, and as ``object`` (Python
    arithmetic: big ints, mixed int/float) otherwise.  :meth:`ranked`
    orders the non-NULL values for MIN/MAX over any orderable type."""

    __slots__ = ("values", "null", "numeric", "summable", "_ranked")

    def __init__(self, values: list, nrows: int):
        self.values = values
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
        vid's index in it.  Sorted on first use — only MIN/MAX need it."""
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
    return _cached(
        table,
        ("typed", name),
        lambda: _TypedValues(
            table.column(name).dictionary.values(), table.nrows
        ),
    )


def _group_codes(table, group_names):
    """Mixed-radix per-row codes combining the group columns' vids."""
    columns = [table.column(name) for name in group_names]
    sizes = [max(1, column.distinct_count) for column in columns]
    codes = _decode_vids(table, group_names[0])
    for name, size in zip(group_names[1:], sizes[1:]):
        codes = codes * size + _decode_vids(table, name)
    return codes, sizes


def _keys_for_codes(codes, columns, sizes) -> list[tuple]:
    """Decode mixed-radix group codes back to value tuples — the only
    place group keys are decoded, once per distinct combination."""
    values_per = [column.dictionary.values() for column in columns]
    keys = []
    for code in codes.tolist():
        parts = []
        for size, values in zip(reversed(sizes[1:]), reversed(values_per[1:])):
            code, vid = divmod(code, size)
            parts.append(values[vid])
        parts.append(values_per[0][code])
        keys.append(tuple(reversed(parts)))
    return keys


def _nonzero_counts(codes, space: int):
    """``(unique values, counts)`` of an int code array.  When the code
    space is small relative to the data a ``bincount`` histogram beats
    ``np.unique``'s sort by a wide margin."""
    if space <= 4 * len(codes) + 1024:
        histogram = np.bincount(codes, minlength=space)
        present = np.flatnonzero(histogram)
        return present, histogram[present]
    return np.unique(codes, return_counts=True)


def _value_pairs(table, name, selection, grouping):
    """The selected non-NULL values of column ``name`` as joint (group,
    value vid) counts sorted by group: ``(vid, counts, starts, slots,
    nonnull)`` where ``starts`` opens each group's run, ``slots`` is its
    index into ``grouping``'s group codes, and ``nonnull`` its row
    count.  ``None`` when no non-NULL value is selected."""
    typed = _typed_values(table, name)
    if grouping is None:
        per_vid = _selected_value_counts(table, name, selection)
        vid = np.flatnonzero(per_vid)
        group, counts = np.zeros_like(vid), per_vid[vid]
        group_codes = group[:1]
    else:
        codes, space, dense, group_codes = grouping
        nvals = max(1, len(typed.values))
        vids = _decode_vids(table, name)
        if dense is not None:
            vids = vids[dense]
        joint, counts = _nonzero_counts(codes * nvals + vids, space * nvals)
        group, vid = np.divmod(joint, nvals)
    keep = ~typed.null[vid]
    if not keep.any():
        return None
    group, vid, counts = group[keep], vid[keep], counts[keep]
    starts = np.flatnonzero(np.concatenate(([True], group[1:] != group[:-1])))
    slots = np.searchsorted(group_codes, group[starts]).tolist()
    nonnull = np.add.reduceat(counts, starts).tolist()
    return vid, counts, starts, slots, nonnull


def _accumulate_table(batch: TableBatch, group_names, acc: GroupAccumulator):
    """Fold one main-store batch in the dictionary domain.

    Per aggregate column the selected rows collapse to their joint
    (group code, value vid) counts (:func:`_value_pairs`); each
    aggregate is then one NumPy reduction over those pairs
    (``add.reduceat`` of value × count for SUM/AVG, ``minimum`` /
    ``maximum.reduceat`` of the value ranks for MIN/MAX), the same call
    for every value dtype.  Python loops run over result groups only.
    Float sums may differ in the last ulp from a row-by-row sum, as any
    reordering of float additions can.
    """
    table = batch.table
    selection = batch.selection
    if group_names:
        dense = None if selection is None else selection.to_dense()
        codes, sizes = _group_codes(table, group_names)
        if dense is not None:
            codes = codes[dense]
        space = math.prod(sizes)
        group_codes, star_counts = _nonzero_counts(codes, space)
        keys = _keys_for_codes(
            group_codes, [table.column(name) for name in group_names], sizes
        )
        grouping = (codes, space, dense, group_codes)
    elif batch.selected_count:
        star_counts = np.array([batch.selected_count])
        keys = [()]
        grouping = None
    else:
        return
    states = [acc.state(key) for key in keys]
    pairs_cache: dict = {}
    for index, agg in enumerate(acc.aggs):
        if agg.column is None:
            for state, n in zip(states, star_counts.tolist()):
                state[index] += n
            continue
        if agg.column not in pairs_cache:
            pairs_cache[agg.column] = _value_pairs(
                table, agg.column, selection, grouping
            )
        pairs = pairs_cache[agg.column]
        if pairs is None:
            continue
        vid, counts, starts, slots, nonnull = pairs
        typed = _typed_values(table, agg.column)
        func = agg.func
        if func == "count":
            for slot, n in zip(slots, nonnull):
                states[slot][index] += n
        elif func in ("sum", "avg"):
            bad = np.flatnonzero(~typed.numeric[vid])
            if len(bad):
                _require_numeric(agg, typed.values[vid[bad[0]]])
            totals = np.add.reduceat(
                typed.summable[vid] * counts, starts
            ).tolist()
            for slot, total, n in zip(slots, totals, nonnull):
                partial = states[slot][index]
                partial[0] += total
                partial[1] += n
        else:
            reduce = np.minimum if func == "min" else np.maximum
            order, rank = typed.ranked()
            best = order[reduce.reduceat(rank[vid], starts)].tolist()
            for slot, best_vid in zip(slots, best):
                acc.merge_minmax(
                    states[slot], index, func, typed.values[best_vid]
                )


def _accumulate_rows(batch, group_names, acc: GroupAccumulator):
    """The hash fallback: row-wise accumulation over any batch kind."""
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
        width = len(acc.aggs)
        for value, n in counts.items():
            state = acc.state((value,))
            for position in range(width):
                state[position] += n
        return
    group_idx = [names.index(name) for name in group_names]
    agg_idx = [
        None if agg.column is None else names.index(agg.column)
        for agg in acc.aggs
    ]
    aggs = acc.aggs
    for row in batch.rows():
        key = tuple(row[i] for i in group_idx)
        state = acc.state(key)
        for index, agg in enumerate(aggs):
            source = agg_idx[index]
            if source is None:
                state[index] += 1
                continue
            value = row[source]
            if value is None:
                continue
            func = agg.func
            if func == "count":
                state[index] += 1
            elif func in ("sum", "avg"):
                _require_numeric(agg, value)
                partial = state[index]
                partial[0] += value
                partial[1] += 1
            else:
                acc.merge_minmax(state, index, func, value)


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
        stats.agg_groups += len(acc.groups)
    return acc.finalized_rows(select, group_names)


# ----------------------------------------------------------------------
# DISTINCT as live-vid enumeration
# ----------------------------------------------------------------------


def _table_batch_distinct(batch: TableBatch, name: str):
    """Distinct values of one main-store column ordered by first
    *selected* position — the order streaming dedup would produce."""
    column = batch.table.column(name)
    nvids = column.distinct_count
    if nvids == 0:
        return
    if batch.selection is None:
        first = batch_first_set(column.bitmaps)
    else:
        positions = np.flatnonzero(batch.selection.to_dense())
        first = np.full(nvids, -1, dtype=np.int64)
        # Fancy assignment keeps the last write per vid, so writing the
        # ascending positions reversed leaves each vid's first in place.
        first[_decode_vids(batch.table, name)[positions][::-1]] = (
            positions[::-1]
        )
    live = np.flatnonzero(first >= 0)
    values = column.dictionary.values()
    for vid in live[np.argsort(first[live], kind="stable")]:
        yield values[vid]


def distinct_values(batches, name: str):
    """DISTINCT on a single column: live-vid enumeration on main-store
    batches, value hashing on delta/values batches.  Yields 1-tuples in
    global first-occurrence order (main first, then delta), matching
    :func:`repro.exec.operators.dedup_rows` over the projected rows."""
    seen = set()
    for batch in batches:
        if isinstance(batch, TableBatch):
            iterator = _table_batch_distinct(batch, name)
        else:
            index = batch.column_names.index(name)
            iterator = (row[0] for row in batch.rows([index]))
        for value in iterator:
            if value not in seen:
                seen.add(value)
                yield (value,)


# ----------------------------------------------------------------------
# ORDER BY as dictionary-order presorted runs
# ----------------------------------------------------------------------


def _table_batch_ordered(
    batch: TableBatch, name: str, ascending: bool, out_positions
):
    """Selected main-store rows in ``name`` order, emitted as one
    presorted run per dictionary value (positions within a value bitmap
    already ascend, preserving the stable-sort tie order).  Rows decode
    lazily, one value run at a time — a LIMIT stops the scan early."""
    from repro.delta.snapshot import decoded_main_rows

    column = batch.table.column(name)
    values = column.dictionary.values()
    vids = sorted(
        range(len(values)),
        key=lambda vid: (values[vid] is None, values[vid]),
        reverse=not ascending,
    )
    dense = (
        batch.selection.to_dense() if batch.selection is not None else None
    )
    decoded = None
    for vid in vids:
        positions = column.bitmaps[vid].positions()
        if dense is not None:
            positions = positions[dense[positions]]
        if not len(positions):
            continue
        if decoded is None:
            decoded = decoded_main_rows(batch.table)
        yield from project_rows(gather(decoded, positions), out_positions)


def ordered_rows(batches, name: str, ascending: bool, out_positions,
                 out_index: int):
    """ORDER BY without a global sort: dictionary-order presorted runs
    from main-store batches merged with (small) sorted delta/values
    batches.  Tie order matches the row path's stable sort — within a
    run rows keep scan order, and earlier batches win ties."""
    def sort_key(row):
        value = row[out_index]
        return (value is None, value)

    streams = []
    for batch in batches:
        if isinstance(batch, TableBatch):
            streams.append(
                _table_batch_ordered(batch, name, ascending, out_positions)
            )
        else:
            streams.append(iter(sorted(
                batch.rows(out_positions),
                key=sort_key,
                reverse=not ascending,
            )))
    if not streams:
        return iter(())
    if len(streams) == 1:
        return streams[0]
    return heapq.merge(*streams, key=sort_key, reverse=not ascending)
