"""Read-your-writes overlays for read-write transactions.

A read-write :class:`~repro.db.transaction.Transaction` buffers its DML
as text and replays it at commit — but a SELECT inside the scope must
still *see* those buffered writes (read-your-writes), while every other
session keeps reading live state.  The seam is the adapter: the
transaction's session reads through a :class:`ReadYourWritesAdapter`,
which serves untouched tables straight from the scoped (pinned) adapter
underneath and written tables from a per-table :class:`TableOverlay`.

An overlay is the pinned snapshot's own column batches with the
scope's writes applied as the main/delta split applies them: a DELETE
adds its main victims to the main batch's exclusion list and narrows
the other batches' selections (``ColumnBatch.without``), an INSERT
appends a
:class:`~repro.exec.batch.ValuesBatch`, and an UPDATE is both, as in
:meth:`repro.delta.MutableTable.update`.  No row is decoded to start an
overlay, and a written table keeps the compressed-domain paths.

The overlay is *presentation only*: nothing here touches the delta
stores or the WAL.  Commit replays the buffered statement text against
live state (the classic deferred-update design), so another session's
writes landing between execute and commit are merged by replay, not by
the overlay — ``docs/migration.md`` spells out the visible differences.
"""

from __future__ import annotations

from repro.exec import ValuesBatch
from repro.sql.adapter import EngineAdapter


class TableOverlay:
    """One written table's view inside a transaction: the pinned
    snapshot's batches, narrowed by the scope's deletes and followed by
    the rows it inserted or updated, in write order.  Batches are
    immutable, so a cursor still draining an earlier
    :meth:`scan_batches` copy never sees later writes."""

    __slots__ = ("schema", "_batches")

    def __init__(self, schema, batches):
        self.schema = schema
        self._batches = list(batches)

    def _append(self, rows: list) -> int:
        if rows:
            self._batches.append(
                ValuesBatch.from_rows(self.schema.column_names, rows)
            )
        return len(rows)

    def _take(self, predicate) -> list:
        """Drop the rows matching ``predicate`` (all when ``None``)
        from every batch (:meth:`~repro.exec.batch.ColumnBatch.without`);
        returns the victims as batches selecting exactly them."""
        kept, victims = [], []
        for batch in self._batches:
            hit = batch if predicate is None else batch.filter(predicate)
            if not hit.selected_count:
                kept.append(batch)
                continue
            victims.append(hit)
            if hit.selected_count < batch.selected_count:
                kept.append(batch.without(hit))
        self._batches = kept
        return victims

    def insert_rows(self, rows) -> int:
        return self._append([self.schema.coerce_row(row) for row in rows])

    def update(self, assignments, predicate) -> int:
        coerced = self.schema.coerce_assignments(assignments)
        names = self.schema.column_names
        return self._append([
            tuple(coerced.get(name, value) for name, value in zip(names, row))
            for victim in self._take(predicate)
            for row in victim.rows()
        ])

    def delete(self, predicate) -> int:
        return sum(victim.selected_count for victim in self._take(predicate))

    def scan_batches(self) -> list:
        return list(self._batches)


class ReadYourWritesAdapter(EngineAdapter):
    """The transaction session's adapter: reads fall through to the
    scoped (pinned) adapter until a table is written, then come from
    its :class:`TableOverlay`; DML always lands in the overlay (the
    transaction buffers the statement text separately for commit
    replay).

    The first write to a table starts its overlay from the *inner*
    adapter's batches — the pinned snapshot, thanks to the
    transaction's pin-on-first-touch — so the overlay starts from
    exactly the rows the scope was already reading, none decoded.
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
        """The table's overlay, started from the pinned view's batches
        on first touch."""
        overlay = self._overlays.get(name)
        if overlay is None:
            overlay = TableOverlay(
                self._inner.schema(name), self._inner.scan_batches(name)
            )
            self._overlays[name] = overlay
        return overlay

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
        path = self._inner.scan_path(name)
        if name in self._overlays:
            return f"{path}, transaction rows: compiled evaluator"
        return path

    def table_stats(self, name: str):
        # The pinned view's row counts, written tables included: EXPLAIN
        # reports them, no execution choice reads them.
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
