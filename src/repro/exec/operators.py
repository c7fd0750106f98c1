"""The operators of the batch pipeline.

A plan (:mod:`repro.exec.planner`) moves two kinds of stream.  Its
scan and filter stages move :class:`~repro.exec.batch.ColumnBatch`
objects, so predicates run on whatever representation storage handed
over.  From the projection (or the join, or the aggregate) on, stages
move *chunks*: one list of row tuples per batch.  Every operator works
a batch or a chunk at a time, which keeps per-stage accounting at
O(batches), and every operator is lazy: a satisfied LIMIT stops
pulling, so unread batches (whole storage chunks) are never decoded.
:func:`iter_rows` flattens batches into tuples for callers outside
the planner.
"""

from __future__ import annotations

from itertools import chain, islice

from repro.errors import SqlExecutionError
from repro.exec.batch import ValuesBatch

#: Rows per batch when wrapping a tuple stream (the generic fallback
#: for adapters without a native ``scan_batches``).
DEFAULT_BATCH_ROWS = 4096


def chunks_of(rows, size: int = DEFAULT_BATCH_ROWS):
    """Cut a row-tuple stream into lists of ``size`` rows, lazily."""
    rows = iter(rows)
    return iter(lambda: list(islice(rows, size)), [])


def batches_from_rows(column_names, rows, batch_rows: int = DEFAULT_BATCH_ROWS):
    """Chunk a row-tuple stream into :class:`ValuesBatch` windows.

    This is the storage-to-pipeline shim for row-oriented sources: rows
    are transposed into column vectors one window at a time, lazily, so
    an early-exiting consumer never pays for the tail of the scan.
    """
    column_names = tuple(column_names)
    for chunk in chunks_of(rows, batch_rows):
        yield ValuesBatch.from_rows(column_names, chunk)


def filter_batches(batches, predicate):
    """Apply ``predicate`` to every batch; emptied batches are dropped
    so downstream operators never see them."""
    for batch in batches:
        filtered = batch.filter(predicate)
        if filtered.selected_count:
            yield filtered


def row_chunks(batches, out_positions=None, stats=None):
    """Materialize each batch into one chunk of projected row tuples —
    the pipeline's boundary, and the only place values become tuples.

    ``stats`` (an :class:`repro.obs.ExecStats`) counts batches and
    decoded rows *here*, once per chunk, which is what keeps the
    always-on accounting inside the observability overhead gate."""
    for batch in batches:
        rows = batch.rows(out_positions)
        if stats is not None:
            stats.batches += 1
            stats.rows_decoded += len(rows)
        yield rows


def iter_rows(batches, out_positions=None, stats=None):
    """Batches as one stream of projected row tuples; rows flow
    through a C-level chain, so a full scan costs a list splice per
    batch rather than a generator hop per row."""
    return chain.from_iterable(row_chunks(batches, out_positions, stats))


def dedup_chunks(chunks):
    """Streaming DISTINCT (first occurrence wins, order preserved)."""
    seen = set()
    for chunk in chunks:
        fresh = [row for row in dict.fromkeys(chunk) if row not in seen]
        if fresh:
            seen.update(fresh)
            yield fresh


def sort_chunks(chunks, index: int, ascending: bool):
    """ORDER BY by materializing every row and sorting once (NULLs
    last ascending); the sorted rows leave as one chunk."""
    rows = sorted(
        chain.from_iterable(chunks),
        key=lambda row: (row[index] is None, row[index]),
        reverse=not ascending,
    )
    if rows:
        yield rows


def limit_chunks(chunks, limit: int):
    """Stop after ``limit`` rows, without pulling the chunk after the
    one that completes the limit.  Because the whole pipeline is lazy,
    stopping here stops the scan itself."""
    if limit <= 0:
        return
    for chunk in chunks:
        if len(chunk) >= limit:
            yield chunk[:limit]
            return
        limit -= len(chunk)
        yield chunk


def hash_join_chunks(left_batches, right_batches, left_names, right_names,
                     join_attrs, out_columns):
    """Generic equi-join over two batch pipelines (build on the right).

    The build side is drained batch-wise into hash buckets keyed by the
    join attributes; the probe side streams one chunk per left batch,
    so output order follows the left pipeline's row order (main store
    first, then delta — the same order the row-wise join produced).
    """
    left_index = {name: i for i, name in enumerate(left_names)}
    right_index = {name: i for i, name in enumerate(right_names)}
    left_pos = [left_index[a] for a in join_attrs]
    right_pos = [right_index[a] for a in join_attrs]
    resolution = []
    for attr in out_columns:
        if attr in left_index:
            resolution.append(("L", left_index[attr]))
        elif attr in right_index:
            resolution.append(("R", right_index[attr]))
        else:
            raise SqlExecutionError(f"unknown join column {attr!r}")
    buckets: dict = {}
    for row in iter_rows(right_batches):
        key = tuple(row[p] for p in right_pos)
        buckets.setdefault(key, []).append(row)
    for left_rows in row_chunks(left_batches):
        chunk = [
            tuple(
                left_row[p] if side == "L" else right_row[p]
                for side, p in resolution
            )
            for left_row in left_rows
            for right_row in buckets.get(
                tuple(left_row[p] for p in left_pos), ()
            )
        ]
        if chunk:
            yield chunk
