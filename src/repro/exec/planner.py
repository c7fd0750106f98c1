"""Planning SELECTs onto the batch pipeline.

:func:`plan_stages` is the one place a SELECT is validated and its
strategies are chosen: vid DISTINCT, presorted ORDER BY, the aggregate
strategy and the native or batch-pipeline join.  It returns the plan
as a ``select`` :class:`~repro.obs.Span` whose children are the
stages, in order, each with its operator, its detail and the step
that builds its stream::

    scan ── [filter] ── project | aggregate ── [distinct] ── [order_by]
        ── [limit]
    scan ── scan ── hash_join ── [filter] ── project ── ...

Scan and filter stages stream column batches; every later stage
streams chunks, one list of row tuples per batch (see
:mod:`repro.exec.operators`).  Semantics — row order, duplicate
handling — match a row-at-a-time evaluation over the reference merge
(``to_rows()``) exactly; ``tests/property/test_exec_properties.py``
pins that.  The plan has three readers (``docs/observability.md``):

* :func:`plan_select` — plain EXPLAIN renders the stages without
  running them (no scan, no materialization counters);
* :func:`execute_select` — composes the steps into a lazy iterator of
  tuples, with the always-on ``stats`` counted per batch;
* with a ``trace`` (EXPLAIN ANALYZE, ``trace_queries``) each stage's
  output also passes through :func:`_timed`, which ticks once per
  batch or chunk, never per row.
"""

from __future__ import annotations

from itertools import chain
from time import perf_counter

from repro.errors import SqlExecutionError
from repro.exec.aggregate import (
    _drain,
    aggregate_output_names,
    choose_aggregate_strategy,
    distinct_chunks,
    ordered_chunks,
    validate_aggregate_select,
)
from repro.exec.operators import (
    batches_from_rows,
    chunks_of,
    dedup_chunks,
    filter_batches,
    hash_join_chunks,
    limit_chunks,
    row_chunks,
    sort_chunks,
)
from repro.obs.trace import Span


def _passthrough(stream):
    return stream


def plan_stages(adapter, select, stats=None, explain=False) -> Span:
    """Validate ``select`` and choose every strategy once; return the
    ``select`` span whose children are the plan's stages.  Planning
    runs no step, so an invalid query costs no decode.  ``stats``
    (an :class:`repro.obs.ExecStats`) is what the steps count into.
    ``explain`` (EXPLAIN, or a trace) fills in each stage's detail and
    the table statistics EXPLAIN's aggregate detail reports, which no
    execution choice reads; without it the details stay empty and
    nothing is formatted."""
    from repro.sql.adapter import require_table

    table, where = select.table, select.where
    order_column, ascending = select.order_by or (None, True)
    require_table(adapter, table)
    schema = adapter.schema(table)
    names, aggregated = schema.column_names, select.is_aggregate
    pushdown = adapter.capabilities.pushdown
    root = Span("select", f"table={table}" if explain else "")
    vid_distinct = presorted = False

    def stage(operator, detail, step=None, inputs=1):
        # ``detail`` formats the stage's EXPLAIN text, read only when
        # the plan is (``explain``).
        return root.child(operator, detail() if explain else "", step, inputs)

    def scan(name, step=None):
        stage(
            "scan", lambda: f"table={name} ({adapter.scan_path(name)})",
            step or (lambda: adapter.scan_batches(name)), inputs=0,
        )

    def filter_where():
        if where is not None:
            stage(
                "filter", lambda: f"where {where}",
                lambda batches: filter_batches(batches, where),
            )

    if aggregated:
        group_names, aggs = validate_aggregate_select(select, schema)
        if where is not None:
            where.validate(schema)
        columns = aggregate_output_names(select)
        scan(table)
        filter_where()
        strategy, reason = choose_aggregate_strategy(
            select, adapter.table_stats(table) if explain else None,
            pushdown=pushdown,
        )
        grouped = (
            f" group_by={','.join(select.group_by)}" if select.group_by
            else ""
        )
        aggregate = stage(
            "aggregate",
            lambda: f"{strategy} [{reason}] out={','.join(columns)}{grouped}",
        )

        def fold(batches):
            # Main-store batches fold in the dictionary domain (vids
            # and popcounts), delta/values batches by hash; both merge
            # into one partial store keyed by decoded group values.
            acc = _drain(batches, group_names, aggs, strategy, stats)
            aggregate.batches = acc.batches_compressed + acc.batches_hash
            yield acc.finalized_rows(select, group_names)

        aggregate.step = fold
    elif select.join is not None:
        right, attrs = select.join.table, select.join.join_attrs
        require_table(adapter, right)
        right_names = adapter.schema(right).column_names
        columns = tuple(select.columns or (
            names + tuple(name for name in right_names if name not in attrs)
        ))
        if adapter.capabilities.hash_join:
            # The engine joins its own tables; the scans stay unpulled.
            scan(table, lambda: ())
            scan(right, lambda: ())
            stage(
                "hash_join", lambda: f"on={','.join(attrs)} (engine-native)",
                lambda _left, _right: chunks_of(
                    adapter.hash_join(table, right, attrs, columns)
                ),
                inputs=2,
            )
        else:
            scan(table)
            scan(right)
            stage(
                "hash_join", lambda: f"on={','.join(attrs)} (batch pipeline)",
                lambda left, right_batches: hash_join_chunks(
                    left, right_batches, names, right_names,
                    attrs, columns,
                ),
                inputs=2,
            )
        if where is None:
            stage("project", lambda: "joined columns", _passthrough)
        else:
            # Joined rows re-enter the pipeline as value batches so the
            # residual predicate runs columnar like any other filter.
            stage(
                "filter", lambda: f"residual where {where}",
                lambda chunks: filter_batches(
                    batches_from_rows(columns, chain.from_iterable(chunks)),
                    where,
                ),
            )
            stage(
                "project", lambda: "joined columns",
                lambda batches: row_chunks(batches, stats=stats),
            )
    else:
        columns = tuple(select.columns or names)
        if where is not None:
            where.validate(schema)
        out_positions = (
            None if columns == names
            else [schema.index_of(name) for name in columns]
        )
        scan(table)
        filter_where()
        # DISTINCT on one dictionary-backed column enumerates live vids
        # instead of decoding and hashing every row; ORDER BY on a
        # projected column emits dictionary-order presorted runs.
        vid_distinct = (
            select.distinct and pushdown and select.columns is not None
            and len(select.columns) == 1
            and isinstance(select.columns[0], str)
        )
        presorted = (
            pushdown and not select.distinct and order_column in columns
        )
        if vid_distinct:
            def project(batches):
                return distinct_chunks(batches, columns[0], stats)
        elif presorted:
            def project(batches):
                return ordered_chunks(
                    batches, order_column, ascending, out_positions,
                    columns.index(order_column), stats,
                )
        else:
            def project(batches):
                return row_chunks(batches, out_positions, stats)
        stage("project", lambda: f"columns={','.join(columns)}", project)

    if select.distinct:
        dedup = "live-vid enumeration" if vid_distinct else "streaming dedup"
        stage(
            "distinct", lambda: dedup,
            _passthrough if vid_distinct else dedup_chunks,
        )
    if order_column is not None:
        if order_column not in columns:
            raise SqlExecutionError(
                f"ORDER BY column {order_column!r} not in the select list"
            )

        def order_detail():
            detail = f"{order_column} {'ASC' if ascending else 'DESC'}"
            if not aggregated:
                detail += (
                    " (dictionary-order presorted runs)" if presorted
                    else " (materialize-and-sort)"
                )
            return detail

        index = columns.index(order_column)
        stage(
            "order_by", order_detail,
            _passthrough if presorted
            else lambda chunks: sort_chunks(chunks, index, ascending),
        )
    if select.limit is not None:
        stage(
            "limit", lambda: f"limit={select.limit}",
            lambda chunks: limit_chunks(chunks, select.limit),
        )
    return root


def plan_select(adapter, select, trace):
    """Fill ``trace`` with the *static* plan of ``select`` — the span
    tree plain EXPLAIN renders — validating it like execution would
    but running nothing."""
    trace.root = plan_stages(adapter, select, explain=True)
    trace.executed = False
    return trace


def execute_select(adapter, select, stats=None, trace=None):
    """Run a parsed SELECT on ``adapter`` via the batch pipeline;
    returns a lazy iterator of result tuples (:func:`select_chunks`,
    flattened)."""
    return chain.from_iterable(select_chunks(adapter, select, stats, trace))


def select_chunks(adapter, select, stats=None, trace=None):
    """Run a parsed SELECT on ``adapter`` via the batch pipeline;
    returns the last stage's lazy stream of row chunks (lists of
    result tuples, which a reader may not mutate).

    ``stats`` accumulates the always-on batch/row counters; ``trace``
    (a timed :class:`~repro.obs.QueryTrace`) receives the plan and has
    every stage's output timed for EXPLAIN ANALYZE.
    """
    root = plan_stages(adapter, select, stats, explain=trace is not None)
    if trace is not None:
        trace.root = root
        trace.executed = True
    streams = []
    for stage in root.children:
        split = len(streams) - stage.inputs
        stream = stage.step(*streams[split:])
        del streams[split:]
        streams.append(stream if trace is None else _timed(stream, stage))
    return streams.pop()


def _timed(stream, span):
    """Pass ``stream`` through, adding the wall time of each pull
    (inclusive of everything upstream) to ``span`` — two clock reads
    per batch or chunk.  A chunk adds its length to ``rows_out``; a
    column batch adds its selected rows, counts in ``batches`` and
    appends its kind to the detail (TableBatch / DeltaBatch /
    ValuesBatch: the compressed-domain path, then the compiled
    evaluator twice)."""
    base = span.detail
    kinds: list[str] = []
    iterator = iter(stream)
    while True:
        started = perf_counter()
        item = next(iterator, None)
        span.seconds += perf_counter() - started
        if item is None:
            return
        if isinstance(item, list):
            span.rows_out += len(item)
        else:
            span.batches += 1
            span.rows_out += item.selected_count
            kind = type(item).__name__
            if kind not in kinds:
                kinds.append(kind)
                joined = "+".join(kinds)
                span.detail = f"{base} [{joined}]" if base else joined
        yield item
