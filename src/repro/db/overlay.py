"""Read-your-writes overlays for read-write transactions.

A read-write :class:`~repro.db.transaction.Transaction` buffers its DML
as text and replays it at commit — but a SELECT inside the scope must
still *see* those buffered writes (read-your-writes), while every other
session keeps reading live state.  The seam is the adapter: the
transaction's session reads through a :class:`ReadYourWritesAdapter`,
which serves untouched tables straight from the scoped (pinned) adapter
underneath and written tables from a per-table :class:`TableOverlay` —
the pinned base rows with the scope's own inserts, updates and deletes
applied on top, flowing into the batch pipeline as
:class:`~repro.exec.batch.ValuesBatch` windows like any row-backed
source.

The overlay is *presentation only*: nothing here touches the delta
stores or the WAL.  Commit replays the buffered statement text against
live state (the classic deferred-update design), so another session's
writes landing between execute and commit are merged by replay, not by
the overlay — ``docs/migration.md`` spells out the visible differences.
"""

from __future__ import annotations

from repro.errors import StorageError
from repro.exec import batches_from_rows, iter_rows
from repro.sql.adapter import EngineAdapter, _drop_rows, _patch_rows
from repro.storage.types import coerce


class TableOverlay:
    """One written table's view inside a transaction: the pinned base
    rows patched by the scope's own DML, in insertion order."""

    __slots__ = ("schema", "_rows")

    def __init__(self, schema, base_rows):
        self.schema = schema
        self._rows = list(base_rows)

    def _coerce_row(self, row) -> tuple:
        row = tuple(row)
        if len(row) != len(self.schema.columns):
            raise StorageError(
                f"row arity {len(row)} != {len(self.schema.columns)} for "
                f"table {self.schema.name!r}"
            )
        return tuple(
            coerce(value, column.dtype)
            for value, column in zip(row, self.schema.columns)
        )

    def insert_rows(self, rows) -> int:
        incoming = [self._coerce_row(row) for row in rows]
        self._rows.extend(incoming)
        return len(incoming)

    def update(self, assignments, predicate) -> int:
        self._rows, count = _patch_rows(
            self.schema, self._rows, assignments, predicate
        )
        return count

    def delete(self, predicate) -> int:
        self._rows, count = _drop_rows(self.schema, self._rows, predicate)
        return count

    def scan_batches(self):
        # A copy: a cursor still draining these batches must not see
        # rows the scope inserts afterwards.
        return batches_from_rows(self.schema.column_names, list(self._rows))


class ReadYourWritesAdapter(EngineAdapter):
    """The transaction session's adapter: reads fall through to the
    scoped (pinned) adapter until a table is written, then come from
    its :class:`TableOverlay`; DML always lands in the overlay (the
    transaction buffers the statement text separately for commit
    replay).

    The first write to a table materializes its overlay from the
    *inner* adapter's view — the pinned snapshot, thanks to the
    transaction's pin-on-first-touch — so the overlay starts from
    exactly the rows the scope was already reading.
    """

    def __init__(self, inner: EngineAdapter):
        self._inner = inner
        self._overlays: dict[str, TableOverlay] = {}

    @property
    def capabilities(self):
        return self._inner.capabilities

    @property
    def metrics(self):
        return self._inner.metrics

    # -- overlay lifecycle ----------------------------------------------

    def overlay(self, name: str) -> TableOverlay:
        """The table's overlay, materialized from the pinned view on
        first touch."""
        overlay = self._overlays.get(name)
        if overlay is None:
            overlay = TableOverlay(
                self._inner.schema(name),
                iter_rows(self._inner.scan_batches(name)),
            )
            self._overlays[name] = overlay
        return overlay

    @property
    def written_tables(self) -> list[str]:
        return sorted(self._overlays)

    def discard(self) -> None:
        """Drop every overlay (rollback)."""
        self._overlays.clear()

    # -- reads ----------------------------------------------------------

    def has_table(self, name: str) -> bool:
        return self._inner.has_table(name)

    def table_names(self) -> list[str]:
        return self._inner.table_names()

    def schema(self, name: str):
        overlay = self._overlays.get(name)
        if overlay is not None:
            return overlay.schema
        return self._inner.schema(name)

    def scan_batches(self, name: str):
        overlay = self._overlays.get(name)
        if overlay is not None:
            return overlay.scan_batches()
        return self._inner.scan_batches(name)

    def scan_path(self, name: str) -> str:
        if name in self._overlays:
            return "transaction overlay rows via compiled evaluator batches"
        return self._inner.scan_path(name)

    def table_stats(self, name: str):
        # A written table reads from its overlay rows, which the inner
        # backend's statistics no longer describe — decline, so the
        # planner takes the row-wise (always-correct) strategies.
        if name in self._overlays:
            return None
        return self._inner.table_stats(name)

    def create_index(self, table: str, column: str) -> None:
        self._inner.create_index(table, column)

    # -- writes (presentation only; commit replays the text) ------------

    def insert_rows(self, name: str, rows) -> int:
        return self.overlay(name).insert_rows(rows)

    def update_rows(self, name: str, assignments, predicate) -> int:
        return self.overlay(name).update(assignments, predicate)

    def delete_rows(self, name: str, predicate) -> int:
        return self.overlay(name).delete(predicate)
