"""Planning SELECTs onto the batch pipeline.

:func:`execute_select` is the one SELECT entry point of the
reproduction: :class:`~repro.sql.executor.SqlExecutor` delegates every
query — on every engine adapter — here.  The plan is always the
same lazy chain::

    adapter.scan_batches ── filter (selected positions) ── project
        ── [hash_join] ── DISTINCT/ORDER BY ── LIMIT ── tuples

with each stage choosing its strategy from the batch kind the adapter
emitted (compressed-domain bitmaps or compiled columnar evaluators).
Semantics — row order, duplicate handling — match a row-at-a-time
evaluation over the reference merge (``to_rows()``) exactly; tier-1
equivalence is pinned by
``tests/property/test_exec_properties.py``.

Observability hooks (see ``docs/observability.md``):

* ``stats`` — an :class:`repro.obs.ExecStats`; batch and decoded-row
  counts accumulate per *batch* at the materialization boundary, so
  the always-on accounting adds no per-row work;
* ``trace`` — a timed :class:`repro.obs.QueryTrace`; every stage is
  wrapped in a timing iterator and emits a :class:`repro.obs.Span`
  with inclusive wall time (this is the EXPLAIN ANALYZE path and is
  never active by default);
* :func:`plan_select` — the static span tree for plain EXPLAIN,
  built without executing (and therefore without charging any
  backend's materialization counters).
"""

from __future__ import annotations

import time

from repro.errors import SqlExecutionError
from repro.exec.aggregate import (
    GroupAccumulator,
    accumulate_batch,
    aggregate_output_names,
    choose_aggregate_strategy,
    distinct_values,
    ordered_rows,
    validate_aggregate_select,
)
from repro.exec.operators import (
    batches_from_rows,
    dedup_rows,
    filter_batches,
    hash_join_rows,
    iter_rows,
    limit_rows,
)


def _use_vid_distinct(adapter, select) -> bool:
    """DISTINCT reroutes to live-vid enumeration when it is a single
    projected column on a pushdown backend (no join) — the conditions
    are static so plain EXPLAIN renders the same choice."""
    return (
        select.distinct
        and select.join is None
        and adapter.capabilities.pushdown
        and select.columns is not None
        and len(select.columns) == 1
        and isinstance(select.columns[0], str)
    )


def _use_presorted_order(adapter, select, column_names) -> bool:
    """ORDER BY reroutes to dictionary-order presorted runs on a
    pushdown backend when no join/DISTINCT/aggregation intervenes and
    the sort column is projected (also static)."""
    return (
        select.order_by is not None
        and select.join is None
        and not select.distinct
        and not select.is_aggregate
        and adapter.capabilities.pushdown
        and select.order_by[0] in column_names
    )


def _scan_detail(adapter, table: str) -> str:
    """The path a scan of ``table`` takes, as named by the adapter that
    will emit the batches (static — safe for plan-only EXPLAIN)."""
    return f"table={table} ({adapter.scan_path(table)})"


def _observed_batches(batches, span):
    """Pass batches through, timing the pull (inclusive of upstream)
    and recording batch count, selected rows, and the batch kinds
    actually seen (TableBatch / DeltaBatch / ValuesBatch — the
    compressed-domain path, then the compiled evaluator twice)."""
    base_detail = span.detail
    kinds: list[str] = []
    iterator = iter(batches)
    while True:
        started = time.perf_counter()
        try:
            batch = next(iterator)
        except StopIteration:
            span.seconds += time.perf_counter() - started
            return
        span.seconds += time.perf_counter() - started
        span.batches += 1
        span.rows_out += batch.selected_count
        kind = type(batch).__name__
        if kind not in kinds:
            kinds.append(kind)
            joined = "+".join(kinds)
            span.detail = (
                f"{base_detail} [{joined}]" if base_detail else joined
            )
        yield batch


def _plan_spans(adapter, select, trace, sql_detail=True):
    """Build the span skeleton for ``select`` on ``trace`` and return
    the spans keyed by stage name (stages absent from the query are
    omitted).  Shared by the static plan and the analyzed run so both
    render the same tree."""
    root = trace.span("select", f"table={select.table}")
    spans = {"select": root}
    if select.is_aggregate and select.join is None:
        spans["scan"] = root.child(
            "scan", _scan_detail(adapter, select.table)
        )
        if select.where is not None:
            spans["filter"] = root.child("filter", f"where {select.where}")
        strategy, reason = choose_aggregate_strategy(
            select,
            adapter.table_stats(select.table),
            pushdown=adapter.capabilities.pushdown,
        )
        output = ",".join(aggregate_output_names(select))
        grouped = (
            f" group_by={','.join(select.group_by)}"
            if select.group_by
            else ""
        )
        spans["aggregate"] = root.child(
            "aggregate", f"{strategy} [{reason}] out={output}{grouped}"
        )
        if select.order_by is not None:
            column, ascending = select.order_by
            spans["order_by"] = root.child(
                "order_by", f"{column} {'ASC' if ascending else 'DESC'}"
            )
        if select.limit is not None:
            spans["limit"] = root.child("limit", f"limit={select.limit}")
        return spans
    if select.join is not None:
        spans["scan"] = root.child(
            "scan", _scan_detail(adapter, select.table)
        )
        spans["scan_right"] = root.child(
            "scan", _scan_detail(adapter, select.join.table)
        )
        native = adapter.capabilities.hash_join
        spans["join"] = root.child(
            "hash_join",
            f"on={','.join(select.join.join_attrs)} "
            + ("(engine-native)" if native else "(batch pipeline)"),
        )
        if select.where is not None:
            spans["filter"] = root.child(
                "filter", f"residual where {select.where}"
            )
        spans["project"] = root.child("project", "joined columns")
    else:
        spans["scan"] = root.child(
            "scan", _scan_detail(adapter, select.table)
        )
        if select.where is not None:
            spans["filter"] = root.child("filter", f"where {select.where}")
        columns = select.columns or adapter.schema(select.table).column_names
        spans["project"] = root.child(
            "project", f"columns={','.join(columns)}"
        )
    if select.distinct:
        spans["distinct"] = root.child(
            "distinct",
            "live-vid enumeration"
            if _use_vid_distinct(adapter, select)
            else "streaming dedup",
        )
    if select.order_by is not None:
        column, ascending = select.order_by
        names = (
            select.columns
            if select.columns is not None
            else adapter.schema(select.table).column_names
        )
        how = (
            "dictionary-order presorted runs"
            if _use_presorted_order(adapter, select, names)
            else "materialize-and-sort"
        )
        spans["order_by"] = root.child(
            "order_by", f"{column} {'ASC' if ascending else 'DESC'} ({how})"
        )
    if select.limit is not None:
        spans["limit"] = root.child("limit", f"limit={select.limit}")
    return spans


def plan_select(adapter, select, trace):
    """Fill ``trace`` with the *static* plan of ``select`` — the span
    tree EXPLAIN renders — validating references like execution would
    but running nothing (no scan, no materialization counters)."""
    from repro.sql.adapter import require_table

    require_table(adapter, select.table)
    schema = adapter.schema(select.table)
    if select.is_aggregate:
        validate_aggregate_select(select, schema)
    if select.join is not None:
        require_table(adapter, select.join.table)
    elif select.where is not None:
        select.where.validate(schema)
    _plan_spans(adapter, select, trace)
    trace.executed = False
    return trace


def execute_select(adapter, select, stats=None, trace=None):
    """Run a parsed SELECT on ``adapter`` via the batch pipeline;
    returns a lazy iterator of result tuples.

    ``stats`` accumulates always-on batch/row counters; ``trace`` (a
    timed :class:`~repro.obs.QueryTrace`) additionally wraps each
    stage in timing iterators for EXPLAIN ANALYZE.
    """
    from repro.obs.trace import TimedIter
    from repro.sql.adapter import require_table

    require_table(adapter, select.table)
    left_schema = adapter.schema(select.table)
    if select.is_aggregate:
        # Validate (and reject aggregates over JOIN) before any span or
        # scan work — an invalid query must not cost a decode.
        group_names, aggs = validate_aggregate_select(select, left_schema)
        if select.where is not None:
            select.where.validate(left_schema)
    spans = (
        _plan_spans(adapter, select, trace) if trace is not None else None
    )
    if trace is not None:
        trace.executed = True
    vid_distinct = presorted = False

    if select.is_aggregate:
        # Main-store batches fold in the dictionary domain (vids and
        # popcounts) on every pushdown adapter; delta/values batches
        # hash.  Both merge into one partial store, keyed by decoded
        # group values, so main+delta results are epoch-consistent.
        strategy, _reason = choose_aggregate_strategy(
            select, None, pushdown=adapter.capabilities.pushdown
        )
        batches = adapter.scan_batches(select.table)
        if spans is not None:
            batches = _observed_batches(batches, spans["scan"])
        if select.where is not None:
            batches = filter_batches(batches, select.where)
            if spans is not None:
                batches = _observed_batches(batches, spans["filter"])
        started = time.perf_counter()
        accumulator = GroupAccumulator(aggs)
        for batch in batches:
            accumulate_batch(batch, group_names, accumulator, strategy)
        result = accumulator.finalized_rows(select, group_names)
        if stats is not None:
            stats.agg_batches_compressed += accumulator.batches_compressed
            stats.agg_batches_hash += accumulator.batches_hash
            stats.agg_groups += len(accumulator.slots)
        rows = iter(result)
        if spans is not None:
            span = spans["aggregate"]
            span.seconds += time.perf_counter() - started
            span.batches = (
                accumulator.batches_compressed + accumulator.batches_hash
            )
            rows = TimedIter(rows, span)
        column_names = aggregate_output_names(select)
    elif select.join is not None:
        require_table(adapter, select.join.table)
        right_schema = adapter.schema(select.join.table)
        out_columns = select.columns or (
            left_schema.column_names
            + tuple(
                name
                for name in right_schema.column_names
                if name not in select.join.join_attrs
            )
        )
        column_names = tuple(out_columns)
        if adapter.capabilities.hash_join:
            rows = adapter.hash_join(
                select.table, select.join.table,
                select.join.join_attrs, out_columns,
            )
        else:
            left_batches = adapter.scan_batches(select.table)
            right_batches = adapter.scan_batches(select.join.table)
            if spans is not None:
                left_batches = _observed_batches(
                    left_batches, spans["scan"]
                )
                right_batches = _observed_batches(
                    right_batches, spans["scan_right"]
                )
            rows = hash_join_rows(
                left_batches,
                right_batches,
                left_schema.column_names,
                right_schema.column_names,
                select.join.join_attrs,
                out_columns,
            )
        if spans is not None:
            rows = TimedIter(rows, spans["join"])
        if select.where is not None:
            # Joined rows re-enter the pipeline as value batches so the
            # residual predicate runs columnar like any other filter.
            batches = filter_batches(
                batches_from_rows(column_names, rows), select.where
            )
            if spans is not None:
                batches = _observed_batches(batches, spans["filter"])
            rows = iter_rows(batches, stats=stats)
        if spans is not None:
            rows = TimedIter(rows, spans["project"])
    else:
        column_names = select.columns or left_schema.column_names
        # Validate before any scan work: a bad predicate or projection
        # must not cost a decode (or skew the baselines' materialization
        # accounting).
        if select.where is not None:
            select.where.validate(left_schema)
        if tuple(column_names) == left_schema.column_names:
            out_positions = None  # identity projection
        else:
            out_positions = [
                left_schema.index_of(name) for name in column_names
            ]
        batches = adapter.scan_batches(select.table)
        if spans is not None:
            batches = _observed_batches(batches, spans["scan"])
        if select.where is not None:
            batches = filter_batches(batches, select.where)
            if spans is not None:
                batches = _observed_batches(batches, spans["filter"])
        vid_distinct = _use_vid_distinct(adapter, select)
        presorted = _use_presorted_order(adapter, select, column_names)
        if vid_distinct:
            # DISTINCT on one dictionary-backed column: enumerate live
            # vids instead of decoding and hashing every row.
            rows = distinct_values(batches, column_names[0])
        elif presorted:
            # ORDER BY from dictionary-order presorted runs (main
            # store) merged with the sorted delta — no global sort.
            column, ascending = select.order_by
            rows = ordered_rows(
                batches, column, ascending, out_positions,
                column_names.index(column),
            )
        else:
            rows = iter_rows(batches, out_positions, stats=stats)
        if spans is not None:
            rows = TimedIter(rows, spans["project"])

    if select.distinct:
        if not vid_distinct:
            rows = dedup_rows(rows)
        if spans is not None:
            rows = TimedIter(rows, spans["distinct"])
    if select.order_by is not None:
        column, ascending = select.order_by
        if column not in column_names:
            raise SqlExecutionError(
                f"ORDER BY column {column!r} not in the select list"
            )
        if not presorted:
            index = column_names.index(column)
            started = time.perf_counter() if spans is not None else 0.0
            rows = iter(
                sorted(
                    rows,
                    key=lambda r: (r[index] is None, r[index]),
                    reverse=not ascending,
                )
            )
            if spans is not None:
                spans["order_by"].seconds += time.perf_counter() - started
        if spans is not None:
            rows = TimedIter(rows, spans["order_by"])
    if select.limit is not None:
        rows = limit_rows(rows, select.limit)
        if spans is not None:
            rows = TimedIter(rows, spans["limit"])
    return rows
