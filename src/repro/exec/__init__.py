"""The vectorized execution layer: columnar batches from storage to
the façade.

Everything under :mod:`repro.exec` moves *column batches* — parallel
per-column value vectors plus a selection, the sorted ``int64``
positions still in play (``None`` for every row) — instead of row
tuples.  The read path flows ``scan → filter`` over batches; from the
projection on, each batch travels as one *chunk* (a list of row
tuples), so every stage works per batch (:mod:`repro.exec.planner`).
Each batch kind evaluates predicates with the cheapest representation
its source offers:

* :class:`TableBatch` — the compressed main store; predicates resolve
  in the compressed domain (``Predicate.bitmap``) without decoding,
  and the result bitmap's set positions are the matches; a scan's
  batch carries the main store's validity as an *exclusion list*
  (``deleted``: the sorted, distinct ``int64`` positions deleted at
  the reader's epoch, ``None`` while none is) and no selection;
* :class:`DeltaBatch` — the write buffer, and
  :class:`ValuesBatch` — already-decoded column vectors (the row-store
  and query-level baselines); both run predicates as compiled
  per-column evaluators (:func:`compile_predicate`), which return the
  selected positions that satisfy them.

Filters compose by sorted intersection of positions, so a selection
costs what it keeps, and a validity costs what it deletes: with D main
rows deleted, every read pays O(D) on top of the unselected one — the
filter's matches less D, the scan's cached rows spliced around D,
counts and histograms less the D rows', DISTINCT's first-row order
with the values whose first row is deleted moved, ORDER BY's value
runs less D.  Aggregation (GROUP BY, COUNT/SUM/MIN/MAX/AVG), DISTINCT
and ORDER BY run in the same spirit — bitmap popcounts, cached
whole-table histograms and each value's first row on an unselected
main store, dictionary vids at the selected positions otherwise,
row-wise hash and sort on delta and values batches
(:mod:`repro.exec.aggregate`).

See ``docs/ARCHITECTURE.md``, "The execution pipeline".
"""

from repro.exec.aggregate import (
    GroupAccumulator,
    accumulate_batch,
    aggregate_rows,
    choose_aggregate_strategy,
    distinct_chunks,
    ordered_chunks,
    validate_aggregate_select,
)
from repro.exec.batch import (
    ColumnBatch,
    DeltaBatch,
    TableBatch,
    ValuesBatch,
)
from repro.exec.operators import (
    DEFAULT_BATCH_ROWS,
    batches_from_rows,
    dedup_chunks,
    filter_batches,
    hash_join_chunks,
    iter_rows,
    limit_chunks,
    row_chunks,
)
from repro.exec.planner import execute_select
from repro.exec.predicate import compile_predicate

__all__ = [
    "ColumnBatch",
    "DEFAULT_BATCH_ROWS",
    "DeltaBatch",
    "GroupAccumulator",
    "TableBatch",
    "ValuesBatch",
    "accumulate_batch",
    "aggregate_rows",
    "batches_from_rows",
    "choose_aggregate_strategy",
    "compile_predicate",
    "dedup_chunks",
    "distinct_chunks",
    "execute_select",
    "filter_batches",
    "hash_join_chunks",
    "iter_rows",
    "limit_chunks",
    "ordered_chunks",
    "row_chunks",
    "validate_aggregate_select",
]
