"""The CODS evolution engine: data-level execution of SMOs.

This is the platform of the paper's Figure 2 (left side): schema
modification requests come in as :mod:`repro.smo` operators, and the
engine evolves the *compressed* columns directly to the new schema — no
query execution, no tuple materialization, no unnecessary
decompression/re-compression.

Conventions:

* DECOMPOSE, MERGE, UNION and PARTITION consume their input tables
  (matching PRISM semantics of schema versions); COPY and CREATE add.
* Every ``apply`` returns an :class:`EvolutionStatus` whose event log is
  the "Data Evolution Status" pane of the demo UI and whose counters
  back the tests' cost assertions.
"""

from __future__ import annotations

import threading
import weakref

from repro.core.decompose import decompose
from repro.core.merge_general import merge_general
from repro.core.merge_kfk import keys_all_present, merge_key_fk
from repro.core.simple_ops import (
    add_column,
    copy_table,
    drop_column,
    partition_table,
    union_tables,
)
from repro.core.status import EvolutionStatus
from repro.delta import CompactionPolicy, MutableTable
from repro.errors import EvolutionError
from repro.fd import is_key_in_data
from repro.smo.history import EvolutionHistory
from repro.smo.ops import (
    AddColumn,
    CopyTable,
    CreateTable,
    DecomposeTable,
    DropColumn,
    DropTable,
    MergeTables,
    PartitionTable,
    RenameColumn,
    RenameTable,
    SchemaModificationOperator,
    UnionTables,
)
from repro.storage.catalog import Catalog
from repro.storage.table import Table


class EvolutionEngine:
    """Applies SMOs to a catalog at the data level (the CODS way)."""

    def __init__(
        self,
        catalog: Catalog | None = None,
        verify_with_data: bool = True,
        extra_fds=(),
    ):
        self.catalog = catalog if catalog is not None else Catalog()
        self.history = EvolutionHistory()
        self.verify_with_data = verify_with_data
        self.extra_fds = tuple(extra_fds)
        self._listeners: list = []
        self._rename_listeners: list = []
        self._drop_listeners: list = []
        self._mutables: dict[str, MutableTable] = {}
        # Guards handle *creation* only (two threads first-touching the
        # same table must share one MutableTable, else they would hold
        # different writer locks); established handles are read
        # lock-free — dict get is atomic.
        self._handles_lock = threading.Lock()
        self._wal = None

    # -- catalog passthroughs -------------------------------------------

    def load_table(self, table: Table) -> None:
        """Register a loaded table (the demo's "load data" action)."""
        self.catalog.create(table)

    def table(self, name: str) -> Table:
        return self.catalog.table(name)

    def subscribe(self, listener) -> None:
        """Attach a status listener applied to every future operation."""
        self._listeners.append(listener)

    def subscribe_renames(self, listener) -> None:
        """Attach a ``listener(old, new)`` invoked after every table
        rename, whichever entry point requested it.  Holders of
        per-table state keyed by name (a transaction's pins, see
        :class:`repro.db.overlay.TransactionView`) use this to follow
        metadata-only renames.

        Bound methods are held weakly so short-lived subscribers (e.g.
        the per-transaction views of :mod:`repro.db`) are
        reclaimed with their owner instead of accumulating on the
        engine.  Plain functions and lambdas are held *strongly* (a
        weak reference to an inline lambda would die immediately), so
        long-lived engines should subscribe bound methods, not
        closures, for anything created per-operation."""
        self._subscribe_weak(self._rename_listeners, listener)

    def subscribe_drops(self, listener) -> None:
        """Attach a ``listener(name)`` invoked whenever a table is
        removed from the catalog — by SQL DROP TABLE or by an SMO that
        consumes its input (DROP, DECOMPOSE, MERGE, UNION, PARTITION).
        Transactions use it to close per-table state keyed by name
        (their pins), so a name reused after a drop can
        never serve the dropped rows to a stale scope.  Same weak-
        reference semantics as :meth:`subscribe_renames`."""
        self._subscribe_weak(self._drop_listeners, listener)

    @staticmethod
    def _subscribe_weak(listeners: list, listener) -> None:
        try:
            reference = weakref.WeakMethod(listener)
        except TypeError:
            reference = (lambda listener=listener: listener)
        # Prune dead references here too: notifications may be rare
        # while subscribers (per-transaction views) come and
        # go, so the list must not grow with subscriber churn.
        listeners[:] = [
            existing for existing in listeners if existing() is not None
        ]
        listeners.append(reference)

    @staticmethod
    def _notify_weak(listeners: list, *args) -> None:
        alive = []
        for reference in listeners:
            listener = reference()
            if listener is not None:
                listener(*args)
                alive.append(reference)
        listeners[:] = alive

    def _notify_rename(self, old: str, new: str) -> None:
        self._notify_weak(self._rename_listeners, old, new)

    def _notify_drop(self, name: str) -> None:
        self._notify_weak(self._drop_listeners, name)

    # -- mutable tables (the write path) --------------------------------

    def attach_wal(self, wal) -> None:
        """Route every mutable table's redo records into ``wal`` (a
        :class:`repro.wal.WriteAheadLog`) — existing handles and any
        created later.  Renames rewire the per-table facade in place."""
        from repro.wal.log import TableWal

        self._wal = wal
        for name, mutable in self._mutables.items():
            mutable.attach_wal(TableWal(wal, name))

    def mutable(
        self, name: str, policy: CompactionPolicy | None = None
    ) -> MutableTable:
        """The delta-backed DML handle for table ``name``.

        One handle per table; compactions republish the table into the
        catalog.  SMOs that consume the table invalidate the handle
        (after auto-flushing any pending writes).
        """
        existing = self._mutables.get(name)
        if existing is not None:
            if policy is not None:
                existing.policy = policy
            return existing
        with self._handles_lock:
            existing = self._mutables.get(name)  # lost the create race?
            if existing is not None:
                if policy is not None:
                    existing.policy = policy
                return existing
            mutable = MutableTable(self.catalog.table(name), policy)
            mutable.on_compact = lambda table, reason: self.catalog.put(table)
            if self._wal is not None:
                from repro.wal.log import TableWal

                mutable.attach_wal(TableWal(self._wal, name))
            self._mutables[name] = mutable
            return mutable

    def delta_handle(self, name: str) -> MutableTable | None:
        """The table's registered mutable handle, if any — a read-only
        lookup that never creates one."""
        return self._mutables.get(name)

    def pending_delta(self, name: str) -> MutableTable | None:
        """The table's mutable handle if it has unflushed writes."""
        mutable = self._mutables.get(name)
        if mutable is not None and mutable.has_pending_changes:
            return mutable
        return None

    def delta_stats(self) -> list:
        """Delta statistics of every registered mutable table."""
        return [
            self._mutables[name].delta_stats()
            for name in sorted(self._mutables)
        ]

    def flush_delta(self, name: str) -> int:
        """Fold table ``name``'s pending delta into the catalog and
        invalidate its handle; returns the number of buffered rows
        folded.  No-op (0) when the table has no delta."""
        mutable = self._mutables.pop(name, None)
        if mutable is None:
            return 0
        flushed = 0
        if mutable.has_pending_changes:
            flushed = mutable.delta_stats().delta_live
            mutable.compact("flush before evolve")
        mutable.invalidate()
        return flushed

    def discard_delta(self, name: str) -> bool:
        """Drop table ``name``'s write buffer unflushed and invalidate
        its handle (for DROP TABLE: compacting first would be wasted
        work).  True if a handle existed."""
        mutable = self._mutables.pop(name, None)
        if mutable is None:
            return False
        mutable.invalidate()
        return True

    def drop_table(self, name: str) -> None:
        """DROP TABLE at the data level: discard the write buffer
        unflushed, remove the catalog entry, and notify drop listeners
        so every transaction over this engine closes its pin on the
        name.  Both entry points — SQL ``DROP TABLE`` and the
        SMO operator — route here, so the invalidation semantics cannot
        diverge."""
        self.discard_delta(name)
        self.catalog.drop(name)
        self._notify_drop(name)

    def rename_table_metadata(self, old: str, new: str) -> None:
        """RENAME TABLE as a pure metadata operation: the catalog entry
        is re-keyed and any pending delta is rewired in place — O(1),
        never a compaction (see ``docs/ARCHITECTURE.md``, "Renames are
        metadata-only")."""
        self.catalog.rename(old, new)
        mutable = self._mutables.pop(old, None)
        if mutable is not None:
            mutable.rewire_metadata(self.catalog.table(new))
            if mutable._wal is not None:
                mutable._wal.rename(new)
            self._mutables[new] = mutable
        self._notify_rename(old, new)

    def rename_column_metadata(self, table: str, old: str, new: str) -> None:
        """RENAME COLUMN as a pure metadata operation, delta-preserving
        like :meth:`rename_table_metadata`."""
        renamed = self.catalog.table(table).with_renamed_column(old, new)
        self.catalog.put(renamed)
        mutable = self._mutables.get(table)
        if mutable is not None:
            mutable.rewire_metadata(renamed, {old: new})

    def _flush_before_evolve(
        self, op: SchemaModificationOperator, status: EvolutionStatus
    ) -> None:
        """SMOs evolve the compressed main store, so any table they read
        must have its delta folded in first (recorded in the status).

        Renames are exempt: they are metadata-only, so the delta is
        rewired in place by ``_dispatch`` instead of being compacted.
        Pinned MVCC snapshots never block the flush — they keep reading
        the generation they pinned (and are noted in the status).
        """
        if isinstance(op, (RenameTable, RenameColumn)):
            return
        for attr in ("table", "left", "right"):
            name = getattr(op, attr, None)
            if not isinstance(name, str) or name not in self._mutables:
                continue
            mutable = self._mutables[name]
            stats = mutable.delta_stats()
            if not mutable.has_pending_changes or isinstance(op, DropTable):
                # Nothing to fold — or the table is about to go away, in
                # which case compacting first would be wasted work.
                self.discard_delta(name)
                continue
            pinned = (
                f", {stats.open_snapshots} pinned snapshot(s) retained"
                if stats.open_snapshots
                else ""
            )
            with status.step(
                "delta flush",
                f"{name}: +{stats.delta_live} buffered, "
                f"-{stats.deleted_main} deleted{pinned}",
            ):
                self.flush_delta(name)
            status.flushed_delta(stats.delta_live + stats.deleted_main)

    # -- execution ---------------------------------------------------------

    def apply(self, op: SchemaModificationOperator) -> EvolutionStatus:
        """Validate and execute one operator; returns its status log."""
        status = EvolutionStatus()
        for listener in self._listeners:
            status.subscribe(listener)
        # Flush first: AddColumn-with-values validates against the row
        # count the operator will actually see, which is the post-flush
        # one.  A flush triggered by an operator that then fails
        # validation is harmless — it preserves the merged content and
        # invalidates the handle, so no write is ever lost.
        self._flush_before_evolve(op, status)
        op.validate(self.catalog)
        with status.step("execute", op.describe()):
            self._dispatch(op, status)
        self.history.record(op, self.catalog.table_names())
        return status

    # -- dispatch -------------------------------------------------------------

    def _dispatch(self, op: SchemaModificationOperator,
                  status: EvolutionStatus) -> None:
        if isinstance(op, DecomposeTable):
            self._decompose(op, status)
        elif isinstance(op, MergeTables):
            self._merge(op, status)
        elif isinstance(op, CreateTable):
            self.catalog.create(Table.empty(op.schema))
        elif isinstance(op, DropTable):
            self.drop_table(op.table)
        elif isinstance(op, RenameTable):
            self.rename_table_metadata(op.table, op.new_name)
        elif isinstance(op, CopyTable):
            table = copy_table(self.catalog.table(op.table), op.new_name, status)
            self.catalog.create(table)
        elif isinstance(op, UnionTables):
            left = self.catalog.drop(op.left)
            right = self.catalog.drop(op.right)
            self._notify_drop(op.left)
            self._notify_drop(op.right)
            self.catalog.put(union_tables(left, right, op, status))
        elif isinstance(op, PartitionTable):
            table = self.catalog.drop(op.table)
            self._notify_drop(op.table)
            true_table, false_table = partition_table(table, op, status)
            self.catalog.put(true_table)
            self.catalog.put(false_table)
        elif isinstance(op, AddColumn):
            table = self.catalog.table(op.table)
            self.catalog.put(add_column(table, op, status))
        elif isinstance(op, DropColumn):
            table = self.catalog.table(op.table)
            self.catalog.put(drop_column(table, op.column, status))
        elif isinstance(op, RenameColumn):
            with status.step(
                "metadata",
                f"renaming column {op.column!r} to {op.new_name!r}",
            ):
                self.rename_column_metadata(op.table, op.column, op.new_name)
        else:  # pragma: no cover - future operators
            raise EvolutionError(f"unsupported operator {op!r}")

    def _decompose(self, op: DecomposeTable, status: EvolutionStatus) -> None:
        table = self.catalog.table(op.table)
        left, right = decompose(
            table, op, status,
            extra_fds=self.extra_fds,
            verify_with_data=self.verify_with_data,
        )
        self.catalog.drop(op.table)
        self._notify_drop(op.table)
        self.catalog.put(left)
        self.catalog.put(right)

    def choose_merge_strategy(self, op: MergeTables) -> str:
        """Pick the mergence algorithm (Section 2.5's two scenarios).

        Returns ``"kfk-right"`` (join attrs key the right table; left is
        reused), ``"kfk-left"`` (mirror), or ``"general"``.
        """
        left = self.catalog.table(op.left)
        right = self.catalog.table(op.right)
        join = op.effective_join_attrs(self.catalog)

        def keyed_by(table: Table) -> bool:
            if table.schema.is_key(join):
                return True
            return self.verify_with_data and is_key_in_data(table, join)

        def integrity(source: Table, target: Table) -> bool:
            if len(join) != 1:
                return True  # checked during execution; falls back on error
            return keys_all_present(
                source.column(join[0]), target.column(join[0])
            )

        if keyed_by(right) and integrity(left, right):
            return "kfk-right"
        if keyed_by(left) and integrity(right, left):
            return "kfk-left"
        return "general"

    def _merge(self, op: MergeTables, status: EvolutionStatus) -> None:
        left = self.catalog.table(op.left)
        right = self.catalog.table(op.right)
        join = op.effective_join_attrs(self.catalog)
        strategy = self.choose_merge_strategy(op)
        status.emit("merge strategy", strategy)
        result = None
        if strategy in ("kfk-right", "kfk-left"):
            source, target = (
                (left, right) if strategy == "kfk-right" else (right, left)
            )
            try:
                result = merge_key_fk(source, target, op, join, status)
            except EvolutionError as exc:
                # Referential integrity does not hold (only detectable
                # during execution for composite keys): the output is not
                # simply the source's rows, so use the general algorithm.
                status.emit("merge strategy", f"fallback to general: {exc}")
        if result is None:
            result = merge_general(left, right, op, join, status)
        # Canonical column order: left's columns, then right's non-join
        # columns (the kfk-left path produces the mirror order).
        expected = left.schema.column_names + tuple(
            n for n in right.schema.column_names if n not in join
        )
        if result.schema.column_names != expected:
            pk = (
                result.schema.primary_key
                if set(result.schema.primary_key) <= set(expected)
                else ()
            )
            result = result.project(expected, op.out_name, pk)
        self.catalog.drop(op.left)
        self.catalog.drop(op.right)
        self._notify_drop(op.left)
        self._notify_drop(op.right)
        self.catalog.put(result)
