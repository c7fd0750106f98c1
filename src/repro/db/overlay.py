"""A transaction's view of the catalog: its pins and its overlays.

A :class:`~repro.db.transaction.Transaction` reads through one
:class:`TransactionView`, the single owner of what the scope sees.
The view holds a ``{name: Snapshot}`` dict of pins — every table at
``begin``, any other table on its first touch — and answers
``schema``, ``scan_batches`` and ``table_stats`` from them, so a
pinned reader reads the schema, the rows and the counts of one
instant.  Pins follow metadata-only renames and die with drops through
the engine's rename and drop listeners.

A read-write transaction buffers its DML as text and replays it at
commit — but a SELECT inside the scope must still *see* those buffered
writes (read-your-writes), while every other session keeps reading
live state.  A table the scope has written is served by its
:class:`TableOverlay`, started from the table's pin.

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


class TransactionView(EngineAdapter):
    """The transaction session's adapter: every read answers from the
    table's pin, taken at :meth:`pin` (``begin``) or on first touch,
    until the table is written; from then on its :class:`TableOverlay`
    answers.  DML always lands in the overlay (the transaction buffers
    the statement text separately for commit replay).

    ``pins`` follows the catalog's names: a metadata-only rename moves
    a pin (and an overlay) to the new name, and a drop closes the pin
    and forgets the overlay, so a name reused after a drop is pinned
    afresh on its next touch instead of serving the dropped rows.
    """

    def __init__(self, adapter):
        self._adapter = adapter
        self.pins: dict = {}
        self._overlays: dict[str, TableOverlay] = {}
        engine = adapter.evolution_engine
        engine.subscribe_renames(self._follow_rename)
        engine.subscribe_drops(self._follow_drop)

    @property
    def capabilities(self):
        return self._adapter.capabilities

    @property
    def metrics(self):
        return self._adapter.metrics

    # -- pins and overlays ----------------------------------------------

    def pin(self, name: str):
        """The table's pinned :class:`~repro.delta.Snapshot`, taken now
        if the scope has not touched ``name`` yet."""
        snapshot = self.pins.get(name)
        if snapshot is None:
            adapter = self._adapter
            snapshot = adapter.evolution_engine.mutable(
                name, adapter.policy
            ).snapshot()
            self.pins[name] = snapshot
        return snapshot

    def overlay(self, name: str) -> TableOverlay:
        """The table's overlay, started from its pin's batches on first
        write."""
        overlay = self._overlays.get(name)
        if overlay is None:
            snapshot = self.pin(name)
            overlay = TableOverlay(snapshot.schema, snapshot.scan_batches())
            self._overlays[name] = overlay
        return overlay

    def close(self) -> None:
        """Release every pin and drop every overlay (commit or
        rollback).  ``pins`` keeps the closed handles, whose
        coordinates stay readable."""
        for snapshot in self.pins.values():
            snapshot.close()
        self._overlays.clear()

    def _follow_rename(self, old: str, new: str) -> None:
        for held in (self.pins, self._overlays):
            if old in held:
                held[new] = held.pop(old)

    def _follow_drop(self, name: str) -> None:
        snapshot = self.pins.pop(name, None)
        if snapshot is not None:
            snapshot.close()
        self._overlays.pop(name, None)

    # -- reads ----------------------------------------------------------

    def has_table(self, name: str) -> bool:
        return self._adapter.has_table(name)

    def table_names(self) -> list[str]:
        return self._adapter.table_names()

    def schema(self, name: str):
        overlay = self._overlays.get(name)
        if overlay is not None:
            return overlay.schema
        return self.pin(name).schema

    def scan_batches(self, name: str):
        overlay = self._overlays.get(name)
        if overlay is not None:
            return overlay.scan_batches()
        return self.pin(name).scan_batches()

    def scan_path(self, name: str) -> str:
        path = self._adapter.scan_path(name)
        if name in self._overlays:
            return f"{path}, transaction rows: compiled evaluator"
        return path

    def table_stats(self, name: str):
        # The pin's row counts, written tables included: EXPLAIN
        # reports them, no execution choice reads them.
        return self.pin(name).statistics()

    # -- writes (presentation only; commit replays the text) ------------

    def insert_rows(self, name: str, rows) -> int:
        return self.overlay(name).insert_rows(rows)

    def update_rows(self, name: str, assignments, predicate) -> int:
        return self.overlay(name).update(assignments, predicate)

    def delete_rows(self, name: str, predicate) -> int:
        return self.overlay(name).delete(predicate)
