"""Engine adapters: the storage interface the SQL executor targets.

Three adapters let the same SQL drive every storage engine: a row store
(tuples stay tuples), a column store executing at the *query level*
(columns are decompressed into tuples, results are re-compressed into
columns — the cost CODS avoids), and the delta-backed column store
(:class:`MutableColumnAdapter`) whose DML lands in per-table write
buffers instead of rebuilding compressed columns.

The delta-backed adapter additionally supports *snapshot-scoped*
queries — ``begin_snapshot``/``end_snapshot``/``snapshot_scope`` pin an
MVCC view so a sequence of SELECTs reads one consistent state while DML
keeps landing.

Reads have one contract: :meth:`EngineAdapter.scan_batches` hands the
executor column batches, each of which evaluates predicates in its own
representation (compressed-domain bitmaps on the main store, the
compiled evaluator on the delta buffer), and :meth:`EngineAdapter.table_stats`
feeds the planner.  See ``docs/ARCHITECTURE.md``, "The execution
pipeline".
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

from repro.delta import CompactionPolicy
from repro.errors import SchemaError, SqlExecutionError
from repro.exec import TableBatch, ValuesBatch, batches_from_rows
from repro.rowstore.engine import RowEngine
from repro.storage.catalog import Catalog
from repro.storage.schema import TableSchema
from repro.storage.table import Table


@dataclass(frozen=True)
class AdapterCapabilities:
    """What a storage adapter can do, declared instead of duck-typed.

    The executor and the :mod:`repro.db` façade branch on these flags
    rather than special-casing adapter classes, so a new backend opts
    into behaviours by declaration:

    * ``pushdown`` — :meth:`EngineAdapter.scan_batches` emits batches
      over the compressed main store, so predicates, DISTINCT, ORDER BY
      and aggregates can stay on dictionary codes and bitmaps;
    * ``snapshots`` — ``begin_snapshot``/``end_snapshot``/
      ``snapshot_scope`` pin MVCC views (required for
      ``Database.transaction``);
    * ``hash_join`` — :meth:`EngineAdapter.hash_join` provides an
      engine-native join the executor should prefer;
    * ``smo`` — schema modification operators can run against this
      backend (it is built over an :class:`~repro.core.engine.
      EvolutionEngine`);
    * ``persistence`` — the backend's catalog can be saved to and
      loaded from a directory of ``.cods`` files;
    * ``compaction`` — ``compact``/``compact_step`` fold a write buffer
      into fresh compressed columns.
    """

    pushdown: bool = False
    snapshots: bool = False
    hash_join: bool = False
    smo: bool = False
    persistence: bool = False
    compaction: bool = False


class EngineAdapter:
    """Interface required by :class:`repro.sql.executor.SqlExecutor`."""

    capabilities: AdapterCapabilities = AdapterCapabilities()

    @property
    def metrics(self):
        """This adapter's :class:`~repro.obs.MetricsRegistry`, created
        lazily and parented to the process-wide registry — counters
        charged here aggregate globally.  Assign a
        :class:`~repro.obs.NullRegistry` to disable accounting."""
        registry = self.__dict__.get("_metrics")
        if registry is None:
            from repro.obs import MetricsRegistry

            registry = self.__dict__["_metrics"] = MetricsRegistry()
            self._register_gauges(registry)
        return registry

    @metrics.setter
    def metrics(self, registry) -> None:
        self.__dict__["_metrics"] = registry
        self._register_gauges(registry)

    def _register_gauges(self, registry) -> None:
        """Hook: install callback gauges over this adapter's live
        state (delta buffers, pinned snapshots).  The base adapter has
        none."""

    def has_table(self, name: str) -> bool:
        raise NotImplementedError

    def table_names(self) -> list[str]:
        """Sorted names of every table this adapter serves."""
        raise NotImplementedError

    def schema(self, name: str) -> TableSchema:
        raise NotImplementedError

    def create_table(self, schema: TableSchema) -> None:
        raise NotImplementedError

    def load_table(self, table: Table) -> None:
        """Register an already-built :class:`Table`.  The generic path
        creates the schema and bulk-inserts the rows; column-backed
        adapters override it to adopt the compressed table as-is."""
        self.create_table(table.schema)
        self.insert_rows(table.schema.name, table.to_rows())

    def drop_table(self, name: str) -> None:
        raise NotImplementedError

    def rename_table(self, old: str, new: str) -> None:
        raise NotImplementedError

    def insert_rows(self, name: str, rows) -> int:
        """Bulk-insert an iterable of row tuples; returns the count."""
        raise NotImplementedError

    def update_rows(self, name: str, assignments, predicate) -> int:
        """Apply ``assignments`` ((column, literal) pairs) to matching
        rows; returns the affected count."""
        raise NotImplementedError

    def delete_rows(self, name: str, predicate) -> int:
        """Delete matching rows (all when ``predicate`` is None);
        returns the affected count."""
        raise NotImplementedError

    def scan_batches(self, name: str):
        """Iterate a table's visible rows as column batches (see
        ``repro.exec``) — the one way rows leave storage.  Row-backed
        sources chunk their tuples with
        :func:`~repro.exec.batches_from_rows`; columnar backends hand
        over compressed or buffered batches directly (see
        ``docs/migration.md``, "For adapter authors").  Callers that
        want tuples read ``iter_rows(adapter.scan_batches(name))``."""
        raise NotImplementedError

    def scan_path(self, name: str) -> str:
        """One phrase naming how :meth:`scan_batches` reads ``name``
        right now — EXPLAIN's scan detail.  Must not scan."""
        raise NotImplementedError

    def table_stats(self, name: str):
        """Optional planner statistics for ``name`` — a
        :class:`repro.storage.statistics.TableStats` (per-column
        distinct counts and min/max, live main/delta row counts), or
        ``None`` when the backend maintains none.  Statistics are a
        *hint* for strategy choice (compressed-domain vs row-wise
        aggregation, indexed vs row-wise delta probes); execution is
        correct either way (see ``docs/migration.md``)."""
        return None

    def hash_join(self, left: str, right: str, join_attrs, out_columns):
        """Engine-native equi-join yielding ``out_columns`` tuples.
        Only called when ``capabilities.hash_join`` is set."""
        raise NotImplementedError

    def scoped(self) -> "EngineAdapter":
        """A fresh adapter over the *same* underlying engine, with its
        own read-scope state (pinned snapshot stacks).  Transactions
        pin their views on a scoped adapter so readers outside the
        scope keep seeing live data.  Only meaningful when
        ``capabilities.snapshots`` is set."""
        raise NotImplementedError

    def create_index(self, table: str, column: str) -> None:
        raise NotImplementedError

    def rename_column(self, table: str, old: str, new: str) -> None:
        """Metadata-only column rename (real systems do this for free)."""
        raise NotImplementedError


def _matching_row_ids(schema, rows, predicate):
    """Row ids of ``rows`` satisfying ``predicate`` (all when ``None``),
    found by the batch evaluators: the tuples are transposed into one
    :class:`~repro.exec.batch.ValuesBatch` and the predicate tightens
    its selection column-wise instead of testing row by row."""
    batch = ValuesBatch.from_rows(schema.column_names, rows)
    if predicate is not None:
        batch = batch.filter(predicate)
    return batch.selected_positions()


def _patch_rows(schema, rows, assignments, predicate):
    """UPDATE over materialized tuples (thin wrapper over the batch
    evaluators): returns the new row list and the affected count.
    Shared by this module's adapters that store (or rebuild from) plain
    tuples."""
    coerced = schema.coerce_assignments(assignments)
    names = schema.column_names
    out = list(rows)
    matching = _matching_row_ids(schema, out, predicate)
    for row_id in map(int, matching):
        out[row_id] = tuple(
            coerced.get(name, value) for name, value in zip(names, out[row_id])
        )
    return out, len(matching)


def _drop_rows(schema, rows, predicate):
    """DELETE over materialized tuples (thin wrapper over the batch
    evaluators): returns the kept rows and the deleted count
    (``predicate`` None deletes everything)."""
    rows = list(rows)
    if predicate is None:
        return [], len(rows)
    deleted = set(map(int, _matching_row_ids(schema, rows, predicate)))
    kept = [row for row_id, row in enumerate(rows) if row_id not in deleted]
    return kept, len(deleted)


class RowEngineAdapter(EngineAdapter):
    """Adapter over the row-oriented engine (the "commercial" baseline)."""

    capabilities = AdapterCapabilities(hash_join=True)

    def __init__(self, engine: RowEngine | None = None):
        self.engine = engine if engine is not None else RowEngine()

    def has_table(self, name: str) -> bool:
        return name in self.engine.tables

    def table_names(self) -> list[str]:
        return sorted(self.engine.tables)

    def hash_join(self, left, right, join_attrs, out_columns):
        return self.engine.hash_join(left, right, join_attrs, out_columns)

    def schema(self, name: str) -> TableSchema:
        return self.engine.table(name).schema

    def create_table(self, schema: TableSchema) -> None:
        self.engine.create_table(schema)

    def drop_table(self, name: str) -> None:
        self.engine.drop_table(name)

    def rename_table(self, old: str, new: str) -> None:
        self.engine.rename_table(old, new)

    def insert_rows(self, name: str, rows) -> int:
        return self.engine.insert_rows(name, rows)

    def update_rows(self, name: str, assignments, predicate) -> int:
        heap = self.engine.table(name)
        heap.rows, count = _patch_rows(
            heap.schema, heap.rows, assignments, predicate
        )
        if count:
            # Row ids are stable under UPDATE, so only indexes on
            # assigned columns go stale.
            assigned = {column for column, _value in assignments}
            self._refresh_indexes(heap, only=assigned)
        return count

    def delete_rows(self, name: str, predicate) -> int:
        heap = self.engine.table(name)
        heap.rows, count = _drop_rows(heap.schema, heap.rows, predicate)
        if count:
            self._refresh_indexes(heap)  # deletes shift every row id
        return count

    @staticmethod
    def _refresh_indexes(heap, only=None) -> None:
        for column in list(heap.indexes):
            if only is None or column in only:
                heap.create_index(column)

    def scan_batches(self, name: str):
        heap = self.engine.table(name)
        return batches_from_rows(heap.schema.column_names, heap.scan())

    def scan_path(self, name: str) -> str:
        return "row heap via compiled evaluator batches"

    def create_index(self, table: str, column: str) -> None:
        self.engine.create_index(table, column)

    def rename_column(self, table: str, old: str, new: str) -> None:
        heap = self.engine.table(table)
        heap.schema = heap.schema.with_renamed_column(old, new)
        if old in heap.indexes:
            heap.indexes[new] = heap.indexes.pop(old)


class ColumnStoreAdapter(EngineAdapter):
    """Adapter over the bitmap column store, executing at query level.

    Scans decompress every column into tuples ("merge" in Figure 2);
    inserts buffer tuples and rebuild compressed columns from scratch
    ("re-compress").  This deliberately pays the full query-level cost —
    it is the MonetDB-style comparator, not the CODS path.
    """

    capabilities = AdapterCapabilities(persistence=True)

    def __init__(self, catalog: Catalog | None = None):
        self.catalog = catalog if catalog is not None else Catalog()
        # Row-count of tuples materialized / re-compressed.
        self._rows_materialized = self.metrics.counter(
            "adapter.rows_materialized"
        )
        self._rows_recompressed = self.metrics.counter(
            "adapter.rows_recompressed"
        )

    @property
    def rows_materialized(self) -> int:
        """Read-through alias of the ``adapter.rows_materialized``
        registry counter."""
        return self._rows_materialized.value

    @property
    def rows_recompressed(self) -> int:
        """Read-through alias of the ``adapter.rows_recompressed``
        registry counter."""
        return self._rows_recompressed.value

    def has_table(self, name: str) -> bool:
        return name in self.catalog

    def table_names(self) -> list[str]:
        return self.catalog.table_names()

    def schema(self, name: str) -> TableSchema:
        return self.catalog.schema(name)

    def create_table(self, schema: TableSchema) -> None:
        self.catalog.create(Table.empty(schema))

    def load_table(self, table: Table) -> None:
        self.catalog.create(table)

    def drop_table(self, name: str) -> None:
        self.catalog.drop(name)

    def rename_table(self, old: str, new: str) -> None:
        self.catalog.rename(old, new)

    def insert_rows(self, name: str, rows) -> int:
        table = self.catalog.table(name)
        incoming = list(rows)
        if not incoming:
            return 0
        existing = table.to_rows() if table.nrows else []
        self._rows_recompressed.inc(len(existing) + len(incoming))
        rebuilt = Table.from_rows(table.schema, existing + incoming)
        self.catalog.put(rebuilt, f"INSERT {name}")
        return len(incoming)

    def update_rows(self, name: str, assignments, predicate) -> int:
        table = self.catalog.table(name)
        rows = table.to_rows()
        self._rows_materialized.inc(len(rows))
        patched, count = _patch_rows(
            table.schema, rows, assignments, predicate
        )
        if count:
            self._rows_recompressed.inc(len(patched))
            self.catalog.put(
                Table.from_rows(table.schema, patched), f"UPDATE {name}"
            )
        return count

    def delete_rows(self, name: str, predicate) -> int:
        table = self.catalog.table(name)
        rows = table.to_rows()
        self._rows_materialized.inc(len(rows))
        kept, count = _drop_rows(table.schema, rows, predicate)
        if count:
            self._rows_recompressed.inc(len(kept))
            self.catalog.put(
                Table.from_rows(table.schema, kept), f"DELETE FROM {name}"
            )
        return count

    def scan_batches(self, name: str):
        """One fully-decoded batch per SELECT: the query-level baseline
        joins the vectorized pipeline but keeps paying the whole
        decompression cost the paper charges it (every column is
        materialized and counted)."""
        table = self.catalog.table(name)
        self._rows_materialized.inc(table.nrows)
        columns = {
            column_name: table.column(column_name).to_values()
            for column_name in table.schema.column_names
        }
        return [ValuesBatch(table.schema.column_names, columns)]

    def scan_path(self, name: str) -> str:
        return "decoded column vectors via compiled evaluator"

    def table_stats(self, name: str):
        """Statistics straight off the compressed catalog table (the
        dictionary is the distinct-value list; no delta side here)."""
        from repro.storage.statistics import table_statistics

        return table_statistics(self.catalog.table(name))

    def create_index(self, table: str, column: str) -> None:
        # Bitmap columns *are* the index; rebuilding is implicit in
        # insert_rows.  Validate the reference and accept.
        schema = self.catalog.schema(table)
        if not schema.has_column(column):
            raise SchemaError(f"no column {column!r} in table {table!r}")

    def rename_column(self, table: str, old: str, new: str) -> None:
        renamed = self.catalog.table(table).with_renamed_column(old, new)
        self.catalog.put(renamed, f"RENAME COLUMN {old} TO {new}")


class MutableColumnAdapter(EngineAdapter):
    """Adapter over the CODS column store's *write path*.

    DML routes through :class:`repro.delta.MutableTable`: inserts,
    updates and deletes land in per-table delta stores in ``O(rows
    touched)``, scans merge delta + main at query time, and compaction
    (auto or via :meth:`compact`) republishes freshly WAH-encoded
    tables into the engine's catalog.  Contrast with
    :class:`ColumnStoreAdapter`, which rebuilds every compressed column
    on each write.
    """

    capabilities = AdapterCapabilities(
        pushdown=True,
        snapshots=True,
        smo=True,
        persistence=True,
        compaction=True,
    )

    def __init__(self, engine=None, policy: CompactionPolicy | None = None):
        from repro.core.engine import EvolutionEngine

        self.evolution_engine = (
            engine if engine is not None else EvolutionEngine()
        )
        self.policy = policy
        # name -> stack of pinned Snapshots; the innermost (last) scope
        # serves reads, and ending a scope re-exposes the one below it.
        # Renames re-key the stacks via the engine's rename listener, so
        # scopes follow a rename whichever entry point (SQL ALTER or SMO
        # RENAME TABLE) requested it; drops — SQL DROP TABLE or an SMO
        # that consumes the table — invalidate the stacks the same way,
        # so a name reused after a drop can never serve dropped rows to
        # a stale scope.
        self._active_snapshots: dict[str, list] = {}
        self.evolution_engine.subscribe_renames(self._follow_rename)
        self.evolution_engine.subscribe_drops(self._follow_drop)

    def _register_gauges(self, registry) -> None:
        """Callback gauges over the engine's own delta accounting —
        the registry never stores a copy, it evaluates
        ``engine.delta_stats()`` (aggregated via
        :meth:`~repro.delta.DeltaStats.as_gauges`) at snapshot time,
        so exports, the demo's ``deltastat`` command and the
        :class:`~repro.delta.CompactionPolicy` all read one source of
        truth."""
        from repro.delta.policy import aggregate_gauges

        engine = self.evolution_engine

        def reader(key):
            return lambda: aggregate_gauges(engine.delta_stats())[key]

        for key in aggregate_gauges(()):
            registry.gauge(key, fn=reader(key))

    @property
    def catalog(self) -> Catalog:
        return self.evolution_engine.catalog

    def _mutable(self, name: str):
        return self.evolution_engine.mutable(name, self.policy)

    def has_table(self, name: str) -> bool:
        return name in self.catalog

    def table_names(self) -> list[str]:
        return self.catalog.table_names()

    def schema(self, name: str) -> TableSchema:
        return self.catalog.schema(name)

    def scoped(self) -> "MutableColumnAdapter":
        clone = MutableColumnAdapter(self.evolution_engine, self.policy)
        # One engine, one accounting: the scoped adapter (transactions)
        # charges the same registry as its parent.
        clone.__dict__["_metrics"] = self.metrics
        return clone

    def create_table(self, schema: TableSchema) -> None:
        self.catalog.create(Table.empty(schema))

    def load_table(self, table: Table) -> None:
        self.evolution_engine.load_table(table)

    def drop_table(self, name: str) -> None:
        # The delta dies with the table — compacting it first would be
        # wasted work — and so does any snapshot scope pinned on it (a
        # later table reusing the name must not read the dropped rows).
        # The engine's drop notification clears the scope stacks of
        # *every* adapter over this engine (this one included), so
        # transaction-scoped adapters are invalidated too.
        self.evolution_engine.drop_table(name)

    def rename_table(self, old: str, new: str) -> None:
        # Metadata-only: O(1), never a compaction — the pending delta is
        # rewired in place under the new name (and the rename listener
        # moves any pinned snapshot scopes with it).
        self.evolution_engine.rename_table_metadata(old, new)

    def _follow_rename(self, old: str, new: str) -> None:
        if old in self._active_snapshots:
            self._active_snapshots.setdefault(new, []).extend(
                self._active_snapshots.pop(old)
            )

    def _follow_drop(self, name: str) -> None:
        """The table is gone (SQL DROP TABLE or a consuming SMO): close
        every snapshot scope pinned on the name, so a later table
        reusing it serves live state instead of the dropped rows."""
        stack = self._active_snapshots.pop(name, None)
        if stack:
            for snapshot in stack:
                snapshot.close()

    def insert_rows(self, name: str, rows) -> int:
        return self._mutable(name).insert_rows(rows)

    def update_rows(self, name: str, assignments, predicate) -> int:
        return self._mutable(name).update(dict(assignments), predicate)

    def delete_rows(self, name: str, predicate) -> int:
        return self._mutable(name).delete(predicate)

    def _pinned(self, name: str):
        """The innermost open snapshot scope for ``name``, if any."""
        stack = self._active_snapshots.get(name)
        while stack:
            if not stack[-1].closed:
                return stack[-1]
            stack.pop()
        return None

    def scan_batches(self, name: str):
        """Native column batches: the compressed main store flows
        through as a :class:`~repro.exec.batch.TableBatch` (predicates
        stay in the compressed domain) and the write buffer as a
        :class:`~repro.exec.batch.DeltaBatch` (predicates run through the
        compiled evaluator), merged epoch-wise.  Honors an active
        snapshot scope, so pinned transactions read their frozen view
        through the same pipeline."""
        snapshot = self._pinned(name)
        if snapshot is not None:
            return snapshot.scan_batches()
        mutable = self.evolution_engine.delta_handle(name)
        if mutable is not None and mutable.is_valid:
            return mutable.scan_batches()
        return [TableBatch(self.catalog.table(name))]

    def scan_path(self, name: str) -> str:
        return "main: compressed-domain bitmap, delta: compiled evaluator"

    def table_stats(self, name: str):
        """Planner statistics for the view a scan would see: the pinned
        snapshot scope when one is open, else the live mutable handle
        (per-generation cached column stats + live delta counts), else
        the static catalog table."""
        from repro.storage.statistics import table_statistics

        snapshot = self._pinned(name)
        if snapshot is not None:
            return snapshot.statistics()
        mutable = self.evolution_engine.delta_handle(name)
        if mutable is not None and mutable.is_valid:
            return mutable.statistics()
        return table_statistics(self.catalog.table(name))

    # -- snapshot-scoped queries ----------------------------------------

    def begin_snapshot(self, name: str):
        """Pin table ``name``: until the matching ``end_snapshot``,
        every SELECT over it reads the state as of this call, whatever
        DML lands in the meantime.  Scopes nest — an inner pin shadows
        the outer one and ending it re-exposes the outer pin.  Returns
        the :class:`repro.delta.Snapshot`."""
        snapshot = self._mutable(name).snapshot()
        self._active_snapshots.setdefault(name, []).append(snapshot)
        return snapshot

    def end_snapshot(self, name: str) -> bool:
        """Release table ``name``'s innermost *open* pinned view; True
        if one existed.  Entries already closed elsewhere (e.g. a
        snapshot used as its own context manager) are drained silently
        so they can never shadow — or stand in for — a live pin."""
        stack = self._active_snapshots.get(name)
        released = False
        while stack:
            snapshot = stack.pop()
            if not snapshot.closed:
                snapshot.close()
                released = True
                break
        if not stack:
            self._active_snapshots.pop(name, None)
        return released

    @contextmanager
    def snapshot_scope(self, *names: str):
        """``with adapter.snapshot_scope("r", "s"): ...`` — every query
        inside the block reads the pinned state of the named tables."""
        for name in names:
            self.begin_snapshot(name)
        try:
            yield self
        finally:
            for name in names:
                self.end_snapshot(name)

    def compact(self, name: str) -> Table:
        """Force-fold table ``name``'s delta; returns the new main."""
        return self._mutable(name).compact()

    def compact_step(self, name: str, columns: int | None = None):
        """One incremental-compaction step (see
        :meth:`repro.delta.MutableTable.compact_step`)."""
        return self._mutable(name).compact_step(columns)

    def create_index(self, table: str, column: str) -> None:
        # As in ColumnStoreAdapter: the per-value bitmaps are the index
        # and the small delta is scanned.  Validate the reference and
        # accept.
        schema = self.catalog.schema(table)
        if not schema.has_column(column):
            raise SchemaError(f"no column {column!r} in table {table!r}")

    def rename_column(self, table: str, old: str, new: str) -> None:
        # Metadata-only, delta-preserving (see rename_table).
        self.evolution_engine.rename_column_metadata(table, old, new)


def require_table(adapter: EngineAdapter, name: str) -> None:
    if not adapter.has_table(name):
        raise SqlExecutionError(f"no table named {name!r}")
