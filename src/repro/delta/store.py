"""The per-table write buffer, with epoch-versioned visibility.

A :class:`DeltaStore` is the uncompressed side of the main/delta split:
appended rows live in plain row-ordered column vectors (no dictionaries,
no bitmaps), and deletions — both of main-store rows and of buffered
rows — are recorded positionally.  All operations are ``O(1)`` per row;
the compressed-domain work is deferred to compaction.

Every write is tagged with a monotonically increasing *epoch*, so any
reader can ask for the buffer's state "as of epoch E" — the versioned
validity behind :class:`repro.delta.Snapshot` (see
``docs/ARCHITECTURE.md``, "The MVCC read path").  Epochs only grow, so
``insert_epochs`` never decreases and the rows appended by epoch E are
a prefix of the buffer: visibility at E is that prefix less the
``deleted_delta`` entries at or before E, computed on demand.
Predicates over the buffer run through the read path's compiled
evaluators (:class:`repro.exec.DeltaBatch`); the store keeps no index.

The on-disk serialization of this state is the ``.delta`` sidecar
documented in ``docs/delta-format.md``.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from itertools import islice

import numpy as np

from repro.errors import SerializationError, StorageError
from repro.storage.schema import TableSchema


def surviving_positions(nrows: int, deleted) -> np.ndarray:
    """The sorted positions of ``range(nrows)`` not in the sorted
    ``deleted`` (``None`` when none is): the one O(rows) complement of
    an exclusion list, for the consumers that need the survivors."""
    keep = np.arange(nrows, dtype=np.int64)
    return keep if deleted is None else np.delete(keep, deleted)


class DeltaStore:
    """Uncompressed, epoch-versioned write buffer for one table.

    ``columns`` maps each column name to a plain Python list in append
    order and ``insert_epochs[i]`` records the epoch at which delta row
    ``i`` was appended.  ``deleted_main`` maps deleted row positions of
    the main store (the complement of its validity) to the epoch of
    the deletion, and ``deleted_delta`` does the same for deleted
    indices of the buffer itself (a row inserted and then deleted before
    compaction).  A row is *visible at epoch E* when it was inserted at
    or before E and not deleted at or before E; passing ``epoch=None``
    to any read means "as of now" (``self.epoch``).
    """

    __slots__ = (
        "schema",
        "columns",
        "insert_epochs",
        "deleted_main",
        "deleted_delta",
        "epoch",
        "_dead_sorted",
        "_wal",
        "_lock",
    )

    def __init__(self, schema: TableSchema, start_epoch: int = 0):
        self.schema = schema
        self.columns: dict[str, list] = {
            name: [] for name in schema.column_names
        }
        self.insert_epochs: list[int] = []
        self.deleted_main: dict[int, int] = {}
        self.deleted_delta: dict[int, int] = {}
        self.epoch = start_epoch
        # ``(map, count, positions)``: the first ``count`` keys of the
        # ``deleted_main`` map, sorted — extended as the map grows (see
        # _all_main_deletions).
        self._dead_sorted = (None, 0, None)
        # Redo emission: a repro.wal.TableWal once durability is on.
        self._wal = None
        # The writer lock.  A standalone store owns its own; a store
        # inside a MutableTable shares the table's lock (the table
        # assigns it), so DML, compaction and the dict-iterating reads
        # below serialize per table — see docs/ARCHITECTURE.md,
        # "Concurrency".  Reentrant: table methods call store methods
        # while already holding it.
        self._lock = threading.RLock()

    @classmethod
    def restore(
        cls,
        schema: TableSchema,
        columns: dict[str, list],
        insert_epochs: list[int],
        deleted_main: dict[int, int],
        deleted_delta: dict[int, int],
        epoch: int,
    ) -> "DeltaStore":
        """Rebuild a buffer from already-coerced state (the persistence
        path of ``storage.filefmt`` and the post-compaction carry-over of
        :meth:`repro.delta.MutableTable.compact_step`); decreasing
        insert epochs raise :class:`~repro.errors.SerializationError`."""
        store = cls(schema, epoch)
        lengths = {len(values) for values in columns.values()}
        if len(lengths) > 1:
            raise StorageError(f"ragged delta columns: {sorted(lengths)}")
        store.columns = {
            name: list(columns[name]) for name in schema.column_names
        }
        if len(insert_epochs) != store.n_appended:
            raise StorageError(
                f"{len(insert_epochs)} insert epochs for "
                f"{store.n_appended} buffered rows"
            )
        if any(b < a for a, b in zip(insert_epochs, insert_epochs[1:])):
            raise SerializationError("delta insert epochs decrease")
        store.insert_epochs = list(insert_epochs)
        store.deleted_main = dict(deleted_main)
        store.deleted_delta = dict(deleted_delta)
        return store

    # ------------------------------------------------------------------
    # Writes.  Each statement is one redo record, logged at the next
    # epoch before the state changes; its replay re-applies the same
    # body at the logged epoch and emits nothing.
    # ------------------------------------------------------------------

    def _coerce(self, rows) -> list[tuple]:
        return [self.schema.coerce_row(row) for row in rows]

    def _check_indices(self, indices) -> None:
        for index in indices:
            if index < 0 or index >= self.n_appended:
                raise StorageError(f"delta index {index} out of range")

    def _admit(self, coerced: tuple, epoch: int) -> None:
        for value, name in zip(coerced, self.schema.column_names):
            self.columns[name].append(value)
        self.insert_epochs.append(epoch)

    def _insert_at(self, coerced: list[tuple], epoch: int) -> None:
        for row in coerced:
            self._admit(row, epoch)
        self.epoch = epoch

    def _update_at(self, positions, indices, coerced, epoch: int) -> None:
        """Delete ``positions`` from main, then ``indices`` from the
        buffer, then append ``coerced``: one epoch each, consecutive
        from ``epoch`` in that order."""
        current = epoch
        for position in positions:
            self.deleted_main[position] = current
            current += 1
        for index in indices:
            self.deleted_delta[index] = current
            current += 1
        for row in coerced:
            self._admit(row, current)
            current += 1
        if current > epoch:
            self.epoch = current - 1

    def append_rows(self, rows) -> int:
        """Buffer many rows atomically: every row is coerced before any
        is admitted, so a malformed row leaves no partial batch behind.
        The whole batch shares one epoch and one ``insert`` record.
        Returns the count."""
        with self._lock:
            coerced = self._coerce(rows)
            if coerced:
                if self._wal is not None:
                    self._wal.log_insert(coerced, self.epoch + 1)
                self._insert_at(coerced, self.epoch + 1)
            return len(coerced)

    def apply_update(self, positions, indices, rows) -> int:
        """One UPDATE or DELETE statement — delete the old versions
        (main positions and delta indices, each live and distinct),
        append the replacement ``rows`` (none for a DELETE) — as one
        ``update`` redo record.  Each sub-operation takes its own
        epoch, in the order deletes-from-main, deletes-from-delta,
        appends.  Returns the number of rows appended."""
        with self._lock:
            coerced = self._coerce(rows)
            self._check_indices(indices)
            if positions or indices or coerced:
                if self._wal is not None:
                    self._wal.log_update(
                        positions, indices, coerced, self.epoch + 1
                    )
                self._update_at(positions, indices, coerced, self.epoch + 1)
            return len(coerced)

    def replay_insert(self, rows, epoch: int) -> None:
        """Recovery: re-admit logged rows at their logged epoch."""
        with self._lock:
            self._insert_at(self._coerce(rows), epoch)

    def replay_update(self, positions, indices, rows, epoch: int) -> None:
        """Recovery: re-apply a logged ``update`` record from its
        logged first epoch, with :meth:`apply_update`'s epoch sequence
        (so later records — and ``compact`` cutoffs — land on the same
        positions they were logged against).  An out-of-range delta
        index raises before any state changes."""
        with self._lock:
            coerced = self._coerce(rows)
            self._check_indices(indices)
            self._update_at(positions, indices, coerced, epoch)

    def adopt_schema(
        self, schema: TableSchema, renames: dict[str, str] | None = None
    ) -> None:
        """Metadata-only rewire to a renamed table/column schema.

        ``renames`` maps old column names to new ones; unmapped names
        must match.  Data and epochs are untouched — this is
        the O(1) half of the delta-preserving rename (see
        ``docs/ARCHITECTURE.md``, "Renames are metadata-only")."""
        renames = renames or {}
        with self._lock:
            expected = tuple(
                renames.get(name, name) for name in self.schema.column_names
            )
            if expected != schema.column_names:
                raise StorageError(
                    f"cannot adopt schema {list(schema.column_names)} over "
                    f"delta columns {list(expected)}"
                )
            self.columns = {
                renames.get(name, name): values
                for name, values in self.columns.items()
            }
            self.schema = schema

    # ------------------------------------------------------------------
    # Reads (versioned: ``epoch=None`` means "as of now")
    # ------------------------------------------------------------------

    @property
    def n_appended(self) -> int:
        """Rows ever buffered (including since-deleted ones)."""
        return len(next(iter(self.columns.values())))

    @property
    def n_live(self) -> int:
        """Buffered rows still visible as of now."""
        return self.n_appended - len(self.deleted_delta)

    @property
    def is_empty(self) -> bool:
        """True when compaction would be a no-op."""
        return self.n_appended == 0 and not self.deleted_main

    def _visible_delta(self, epoch: int, nrows: int) -> tuple[int, list]:
        """``(appended, dead)`` at ``epoch``, lock held: the leading
        rows (at most ``nrows``) appended by then — ``insert_epochs``
        never decreases, so they are a prefix — and those of them
        deleted by then."""
        appended = min(bisect_right(self.insert_epochs, epoch), nrows)
        dead = [
            index
            for index, deleted in self.deleted_delta.items()
            if deleted <= epoch and index < appended
        ]
        return appended, dead

    def live_indices(self, epoch: int | None = None) -> list[int]:
        """Delta indices visible at ``epoch``, in insertion order."""
        with self._lock:
            nrows = self.n_appended
            validity = self.delta_validity(nrows, epoch)
        if validity is None:
            return list(range(nrows))
        return validity.tolist()

    def live_counts(
        self, main_nrows: int, epoch: int | None = None
    ) -> tuple[int, int]:
        """``(main rows, buffered rows)`` visible at ``epoch``, counted
        without listing them."""
        with self._lock:
            if epoch is None:
                epoch = self.epoch
            appended, dead = self._visible_delta(epoch, self.n_appended)
            dead_main = self.main_deletions(main_nrows, epoch)
        if dead_main is not None:
            main_nrows -= len(dead_main)
        return main_nrows, appended - len(dead)

    def row(self, index: int) -> tuple:
        """One buffered row by delta index (live or not)."""
        if index < 0 or index >= self.n_appended:
            raise StorageError(f"delta index {index} out of range")
        return tuple(
            self.columns[name][index] for name in self.schema.column_names
        )

    def live_rows(self, epoch: int | None = None) -> list[tuple]:
        """Buffered rows visible at ``epoch``, in insertion order."""
        with self._lock:
            names = self.schema.column_names
            return [
                tuple(self.columns[name][index] for name in names)
                for index in self.live_indices(epoch)
            ]

    def main_deletions(self, main_nrows: int, epoch: int | None = None):
        """The main store's validity at ``epoch`` as an exclusion list:
        the sorted main positions deleted by then (``int64``), or
        ``None`` when none is — the main-side ``deleted`` of the batch
        read path (``repro.exec``).  O(deletions), never O(rows)."""
        with self._lock:
            if epoch is None or epoch >= self.epoch:
                dead = self._all_main_deletions()
            else:
                count = len(self.deleted_main)
                dead = np.fromiter(self.deleted_main, np.int64, count)
                at = np.fromiter(self.deleted_main.values(), np.int64, count)
                dead = np.sort(dead[at <= epoch])
        if len(dead) and dead[-1] >= main_nrows:
            dead = dead[:np.searchsorted(dead, main_nrows)]
        return dead if len(dead) else None

    def _all_main_deletions(self) -> np.ndarray:
        """Every deleted main position, sorted and read-only, lock held.
        ``deleted_main`` only gains keys, at its end, so the positions
        sorted by the last call are extended by the ones deleted since:
        O(deletions) a statement with no sort of them all."""
        mapping, count, dead = self._dead_sorted
        if mapping is not self.deleted_main:  # a fresh or restored map
            mapping, count = self.deleted_main, 0
            dead = np.empty(0, dtype=np.int64)
        grown = len(mapping) - count
        if grown:
            added = np.fromiter(
                islice(reversed(mapping), grown), np.int64, grown
            )
            added.sort()
            dead = np.insert(dead, np.searchsorted(dead, added), added)
            dead.flags.writeable = False
            self._dead_sorted = (mapping, len(mapping), dead)
        return dead

    def delta_validity(self, nrows: int, epoch: int | None = None):
        """The validity of the buffer's first ``nrows`` rows at
        ``epoch`` as sorted live indices (``int64``), or ``None`` when
        all are visible — the selection of a ``DeltaBatch``."""
        with self._lock:
            if epoch is None:
                epoch = self.epoch
            appended, dead = self._visible_delta(epoch, nrows)
        if appended == nrows and not dead:
            return None
        live = np.arange(appended, dtype=np.int64)
        if dead:
            live = np.delete(live, dead)
        return live

    def surviving_main_positions(
        self, main_nrows: int, epoch: int | None = None
    ) -> np.ndarray:
        """Sorted main-store positions visible at ``epoch``: the
        complement of :meth:`main_deletions` — what a compaction's
        bitmap filtering keeps."""
        return surviving_positions(
            main_nrows, self.main_deletions(main_nrows, epoch)
        )

    def __repr__(self) -> str:
        return (
            f"DeltaStore({self.schema.name!r}, appended={self.n_appended}, "
            f"deleted_delta={len(self.deleted_delta)}, "
            f"deleted_main={len(self.deleted_main)}, epoch={self.epoch})"
        )
