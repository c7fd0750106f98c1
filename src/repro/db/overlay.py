"""A transaction's view of the catalog: its pins and its overlays.

A :class:`~repro.db.transaction.Transaction` reads through one
:class:`TransactionView`, the single owner of what the scope sees.
The view holds a ``{name: Snapshot}`` dict of pins — every table at
``begin``, any other table on its first touch — and answers
``schema``, ``scan_batches`` and ``table_stats`` from them, so a
pinned reader reads the schema, the rows and the counts of one
instant.  Pins follow metadata-only renames and die with drops through
the engine's rename and drop listeners.

A read-write transaction runs each DML statement once, here, so the
scope's reads see its writes (read-your-writes) while other sessions
read live state.  A written table is served by its
:class:`TableOverlay`: the pin's own column batches with the writes
applied as the main/delta split applies them, by the same
:func:`~repro.delta.mutable.find_victims` a live table's DML runs — a
DELETE adds its main victims to the main batch's exclusion list and
narrows the other batches (``ColumnBatch.without``), an INSERT appends
a :class:`~repro.exec.batch.ValuesBatch`, and an UPDATE is both.  No
row is decoded to start an overlay, and a written table keeps the
compressed-domain paths.

The overlay also records its *effects* against the pin — the pinned
main positions and buffered indices it deleted, and the rows its value
batches still hold (an UPDATE of the scope's own inserts leaves only
the final images).  :meth:`repro.db.Transaction.commit` publishes them
(:meth:`TransactionView.writes`); ``docs/migration.md`` spells out the
rules.
"""

from __future__ import annotations

from repro.delta.mutable import find_victims
from repro.errors import TransactionConflict
from repro.exec import ValuesBatch
from repro.sql.adapter import EngineAdapter


class TableOverlay:
    """One written table's view inside a transaction: the pinned
    snapshot's batches, narrowed by the scope's deletes and followed by
    the rows it inserted or updated, in write order.  Batches are
    immutable, so a cursor still draining an earlier
    :meth:`scan_batches` copy never sees later writes."""

    __slots__ = ("schema", "_batches", "_deleted_main", "_deleted_delta")

    def __init__(self, schema, batches):
        self.schema = schema
        self._batches = list(batches)
        self._deleted_main: list[int] = []
        self._deleted_delta: list[int] = []

    def _append(self, rows: list) -> int:
        if rows:
            self._batches.append(
                ValuesBatch.from_rows(self.schema.column_names, rows)
            )
        return len(rows)

    def take(self, predicate, assignments=None) -> int:
        """A DELETE, or an UPDATE with ``assignments``: drop the rows
        matching ``predicate`` (all when None), record the pinned ones
        and append the new images; returns the victim count."""
        hits, positions, indices, images = find_victims(
            self._batches, self.schema, predicate, assignments
        )
        self._deleted_main += positions
        self._deleted_delta += indices
        self._batches = [
            batch if hit is None else batch.without(hit)
            for batch, hit in zip(self._batches, hits)
            if hit is None or hit.selected_count < batch.selected_count
        ]
        self._append(images)
        return sum(hit.selected_count for hit in hits if hit is not None)

    def insert_rows(self, rows) -> int:
        return self._append([self.schema.coerce_row(row) for row in rows])

    def effects(self):
        """``(positions, indices, rows)``: the pinned main positions and
        buffered indices the scope deleted, sorted, and the rows it
        inserted that are still there."""
        rows = [
            row for batch in self._batches
            if isinstance(batch, ValuesBatch) for row in batch.rows()
        ]
        return sorted(self._deleted_main), sorted(self._deleted_delta), rows

    def scan_batches(self) -> list:
        return list(self._batches)


class TransactionView(EngineAdapter):
    """The transaction session's adapter: every read answers from the
    table's pin, taken at :meth:`pin` (``begin``) or on first touch,
    until the table is written; from then on its :class:`TableOverlay`
    answers.  DML always lands in the overlay, whose effects commit
    publishes (:meth:`writes`).

    ``pins`` follows the catalog's names: a metadata-only rename moves
    a pin (and an overlay) to the new name, and a drop closes the pin
    and forgets the overlay, so a name reused after a drop is pinned
    afresh on its next touch instead of serving the dropped rows.  A
    dropped table the scope had written is remembered: its writes can
    no longer commit.
    """

    def __init__(self, adapter):
        self._adapter = adapter
        self.pins: dict = {}
        self._overlays: dict[str, TableOverlay] = {}
        self._dropped_writes: list[str] = []
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

    def writes(self) -> list:
        """``(name, pin, effects)`` of every table the scope changed,
        in name order (the lock order); a :class:`~repro.errors.
        TransactionConflict` when one of them was dropped since."""
        if self._dropped_writes:
            raise TransactionConflict.on(
                self._dropped_writes[0], "dropped since the scope wrote it"
            )
        effects = {
            name: overlay.effects() for name, overlay in self._overlays.items()
        }
        return [
            (name, self.pins[name], effects[name])
            for name in sorted(effects) if any(effects[name])
        ]

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
        overlay = self._overlays.pop(name, None)
        if overlay is not None and any(overlay.effects()):
            self._dropped_writes.append(name)

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

    # -- writes (commit publishes their effects) ----------------------

    def insert_rows(self, name: str, rows) -> int:
        return self.overlay(name).insert_rows(rows)

    def update_rows(self, name: str, assignments, predicate) -> int:
        return self.overlay(name).take(predicate, assignments)

    def delete_rows(self, name: str, predicate) -> int:
        return self.overlay(name).take(predicate)
