"""The DML facade: a read-optimized main plus a write-optimized delta.

A :class:`MutableTable` wraps an immutable :class:`~repro.storage.table.
Table` (the compressed main store) and a :class:`~repro.delta.store.
DeltaStore` (the uncompressed write buffer).  Writes never touch the
compressed columns; reads merge both sides at query time; compaction
folds the buffer into freshly WAH-encoded columns, built by the batched
constructor (:func:`~repro.bitmap.batch.batch_from_positions`) so the
dense row vectors are never turned into dense bit arrays.

Reads are MVCC: :meth:`MutableTable.snapshot` pins a consistent view
(main-store generation + delta epoch) that stays frozen while writes and
compaction proceed; both the live handle and a pinned view are read
through ``scan_batches()``.  Compaction can run
*incrementally* — :meth:`MutableTable.compact_step` merges a budgeted
number of columns per call and is safe to interleave with DML and pinned
snapshots; superseded generations are retained until the last pinning
snapshot closes.  The whole lifecycle is documented in
``docs/ARCHITECTURE.md`` and the persisted form in
``docs/delta-format.md``.

A DELETE or UPDATE costs in proportion to its victims, not the table.
:func:`find_victims` finds them as a SELECT finds rows, over a live
table's ``view_batches(main, delta)`` or a transaction's overlay: the
main store's ``TableBatch`` filtered in the *compressed* domain (the
predicate's value bitmaps less the deleted positions — survivors are
never enumerated), the buffer's ``DeltaBatch`` by the compiled
evaluator.  An UPDATE's old images come through the read path's row
gather (``TableBatch.rows``), built from each column's vid array
(``BitmapColumn.vids``): a generation loaded or folded from vids is
never decoded, and a cold one costs one decode per column, shared with
SELECT, the aggregates and the fold.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from itertools import chain

import numpy as np

from repro.delta.policy import (
    CompactionPolicy,
    CompactionProgress,
    DeltaStats,
)
from repro.delta.snapshot import (
    Snapshot,
    reference_rows,
    view_batches,
    view_statistics,
)
from repro.delta.store import DeltaStore
from repro.errors import SchemaError, StorageError
from repro.storage.column import BitmapColumn
from repro.storage.dictionary import Dictionary
from repro.storage.table import Table, canonical_sort_key


def find_victims(batches, schema, predicate, assignments=None):
    """An UPDATE's or a DELETE's victims among ``batches`` (every row
    when ``predicate`` is None), found as a SELECT finds rows:
    ``(hits, positions, indices, images)`` — each batch narrowed to its
    victims (``None`` when it has none), the main positions and the
    buffered indices among them (``TableBatch`` and ``DeltaBatch``
    victims), and the UPDATE's new images in scan order (none for a
    DELETE)."""
    from repro.exec import DeltaBatch, TableBatch

    if predicate is not None:
        predicate.validate(schema)
    hits, positions, indices, images = [], [], [], []
    for batch in batches:
        hit = batch if predicate is None else batch.filter(predicate)
        if not hit.selected_count:
            hit = None
        elif isinstance(hit, (TableBatch, DeltaBatch)):
            side = positions if isinstance(hit, TableBatch) else indices
            side += hit.selected_positions().tolist()
        hits.append(hit)
    if assignments is not None:
        coerced = schema.coerce_assignments(assignments)
        names = schema.column_names
        images = [
            tuple(coerced.get(name, value) for name, value in zip(names, row))
            for hit in hits if hit is not None
            for row in hit.rows()
        ]
    return hits, positions, indices, images


def _relabeled_table(table: Table, name: str, renames: dict) -> Table:
    """O(1) relabeling of a table: renamed columns and/or table name,
    sharing every compressed column."""
    for old, new in renames.items():
        table = table.with_renamed_column(old, new)
    if table.schema.name != name:
        table = table.renamed(name)
    return table


class _CompactionRun:
    """Resumable state of one incremental compaction.

    Pinned at ``begin``: the cutoff epoch, the surviving main positions
    and live delta indices *as of that epoch*.  Writes that arrive while
    the run is in flight get higher epochs and are carried over into the
    fresh delta when the run finishes.
    """

    __slots__ = (
        "cutoff_epoch",
        "main_rows",
        "keep",
        "cutoff_appended",
        "live_cutoff",
        "column_names",
        "merged",
        "next_index",
    )

    def __init__(
        self, main: Table, delta: DeltaStore,
        cutoff_epoch: int | None = None,
    ):
        # Recovery pins the fold at the *logged* cutoff epoch so the
        # rebuilt main reproduces the crashed fold's row positions
        # exactly; live operation pins at "now".
        self.cutoff_epoch = (
            delta.epoch if cutoff_epoch is None else cutoff_epoch
        )
        self.main_rows = main.nrows
        self.keep = delta.surviving_main_positions(
            main.nrows, self.cutoff_epoch
        )
        self.cutoff_appended = (
            delta.n_appended
            if cutoff_epoch is None
            else bisect_right(delta.insert_epochs, cutoff_epoch)
        )
        self.live_cutoff = delta.live_indices(self.cutoff_epoch)
        self.column_names = list(main.schema.column_names)
        self.merged: dict[str, BitmapColumn] = {}
        self.next_index = 0

    @property
    def done(self) -> bool:
        return self.next_index >= len(self.column_names)

    def carry(self, rows: np.ndarray) -> np.ndarray:
        """Where rows of the folded generation land in the next one.
        A row is its place in the generation's view: a main position,
        or ``main_rows`` plus a buffered index.  The new main holds the
        main rows kept, then the buffered rows live at the cutoff; later
        buffered rows start the new buffer.  A row the fold dropped
        (deleted by the cutoff) maps to ``-1``, as does ``-1``."""
        carried = np.full(len(rows), -1, np.int64)
        buffered = self.main_rows + np.asarray(self.live_cutoff, np.int64)
        for start, kept in ((0, self.keep), (len(self.keep), buffered)):
            at = kept.searchsorted(rows)  # O(rows log kept), no copy
            hit = at < len(kept)
            hit[hit] = kept[at[hit]] == rows[hit]
            carried[hit] = start + at[hit]
        late = self.main_rows + self.cutoff_appended  # first row past the cutoff
        new_main = len(self.keep) + len(buffered)
        return np.where(rows >= late, rows - late + new_main, carried)

    def rename_columns(self, renames: dict[str, str]) -> None:
        """Keep an in-flight run consistent with a metadata-only column
        rename (see :meth:`MutableTable.rewire_metadata`)."""
        if not renames:
            return
        self.column_names = [
            renames.get(name, name) for name in self.column_names
        ]
        self.merged = {
            renames.get(name, name): (
                column.renamed(renames[name]) if name in renames else column
            )
            for name, column in self.merged.items()
        }


class MutableTable:
    """A table that accepts DML, backed by a main/delta split.

    ``on_compact(table, reason)`` is invoked whenever the delta is
    folded into a fresh main table (the engine uses it to republish the
    table in its catalog).  A handle released by the engine — because
    an SMO consumed or dropped the table — is *invalidated*: further
    writes raise, so a stale handle can never republish a pre-evolution
    table.  Snapshots pinned before the invalidation stay readable —
    they hold their own references to the pinned generation.
    """

    def __init__(
        self,
        table: Table,
        policy: CompactionPolicy | None = None,
        on_compact=None,
    ):
        self._main = table
        self.policy = policy if policy is not None else CompactionPolicy()
        # The per-table writer lock: DML, compaction, snapshot pin and
        # release, and the checkpoint's per-table save all serialize on
        # it.  Shared with every DeltaStore this table ever owns (the
        # store's methods take the same lock), and reentrant so locked
        # table methods can call locked store methods.  Lock order when
        # combined with others: Database._commit_lock -> table locks
        # (sorted by name) -> WriteAheadLog's internal lock.
        self._lock = threading.RLock()
        self._delta = DeltaStore(table.schema)
        self._delta._lock = self._lock
        self.on_compact = on_compact
        self.compactions = 0
        self.compaction_steps = 0
        self._invalidated = False
        self._generation = 0
        self._snapshots: list[Snapshot] = []
        self._retained: dict[int, tuple[Table, DeltaStore]] = {}
        # The fold that ended each generation while a snapshot pins it
        # or an older one: it carries a pinned transaction's victims.
        self._folds: dict[int, _CompactionRun] = {}
        self._compaction_run: _CompactionRun | None = None
        # Redo logging: a repro.wal.TableWal once durability is on
        # (shared with the delta store; see attach_wal).
        self._wal = None

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def schema(self):
        return self._main.schema

    @property
    def name(self) -> str:
        return self._main.schema.name

    @property
    def main(self) -> Table:
        """The current compressed main store."""
        return self._main

    @property
    def delta(self) -> DeltaStore:
        """The current write buffer."""
        return self._delta

    @property
    def epoch(self) -> int:
        """The write-versioning counter (monotonic across compactions)."""
        return self._delta.epoch

    @property
    def generation(self) -> int:
        """How many times the main store has been replaced."""
        return self._generation

    @property
    def nrows(self) -> int:
        """Visible rows across both sides."""
        return (
            self._main.nrows
            - len(self._delta.deleted_main)
            + self._delta.n_live
        )

    @property
    def has_pending_changes(self) -> bool:
        return (
            not self._delta.is_empty or self._compaction_run is not None
        )

    @property
    def is_valid(self) -> bool:
        return not self._invalidated

    @property
    def open_snapshots(self) -> int:
        """Snapshots currently pinning a view of this table."""
        return len(self._snapshots)

    @property
    def retained_versions(self) -> tuple[int, ...]:
        """Superseded generations kept alive for pinned snapshots."""
        return tuple(sorted(self._retained))

    def invalidate(self) -> None:
        """Detach the handle from its table (writes will raise) once
        the write in flight, a whole commit included, has finished."""
        with self._lock:
            self._invalidated = True
            self.on_compact = None

    def _check_valid(self) -> None:
        if self._invalidated:
            raise StorageError(
                f"mutable handle for {self.name!r} was invalidated by a "
                "schema change; request a fresh one from the engine"
            )

    def delta_stats(self) -> DeltaStats:
        with self._lock:
            return DeltaStats(
                table=self.name,
                main_rows=self._main.nrows,
                delta_rows=self._delta.n_appended,
                delta_live=self._delta.n_live,
                deleted_main=len(self._delta.deleted_main),
                deleted_delta=len(self._delta.deleted_delta),
                compactions=self.compactions,
                epoch=self._delta.epoch,
                open_snapshots=len(self._snapshots),
                compaction_steps=self.compaction_steps,
            )

    def statistics(self):
        """Live main/delta row counts of the current view."""
        with self._lock:
            return view_statistics(self._main, self._delta)

    # ------------------------------------------------------------------
    # MVCC reads (snapshots pin a generation + epoch)
    # ------------------------------------------------------------------

    def snapshot(self) -> Snapshot:
        """Pin the currently visible state.

        The returned :class:`~repro.delta.Snapshot` keeps seeing exactly
        today's rows while inserts, deletes, updates and compaction
        proceed on this handle.  Close it (or use it as a context
        manager) so superseded generations can be reclaimed.
        """
        with self._lock:
            snapshot = Snapshot(
                self, self._main, self._delta, self._delta.epoch,
                self._generation,
            )
            self._snapshots.append(snapshot)
            return snapshot

    def _release_snapshot(self, snapshot: Snapshot) -> None:
        with self._lock:
            try:
                self._snapshots.remove(snapshot)
            except ValueError:  # already released
                return
            pinned = {s.generation for s in self._snapshots}
            oldest = min(pinned, default=self._generation)
            self._retained = {
                g: version for g, version in self._retained.items()
                if g in pinned
            }
            self._folds = {
                g: run for g, run in self._folds.items() if g >= oldest
            }

    def scan_batches(self) -> list:
        """The currently visible rows as column batches
        (:func:`~repro.delta.snapshot.view_batches` as of now): the
        epoch-wise main+delta merge every query reads; row order
        matches :meth:`to_rows`."""
        with self._lock:
            return view_batches(self._main, self._delta)

    def to_rows(self) -> list[tuple]:
        """All visible rows as a fresh list: surviving main rows in row
        order, then live delta rows in insertion order.  This is the
        *reference merge* (:func:`~repro.delta.snapshot.reference_rows`)
        — plain and uncached, what tests compare ``scan_batches()``
        against and what the demo displays; queries read batches."""
        with self._lock:
            return reference_rows(self._main, self._delta)

    def sorted_rows(self) -> list[tuple]:
        return sorted(self.to_rows(), key=canonical_sort_key)

    # ------------------------------------------------------------------
    # DML
    # ------------------------------------------------------------------

    def attach_wal(self, table_wal) -> None:
        """Start emitting redo records (a :class:`repro.wal.TableWal`)
        for every write on this handle and its delta store."""
        self._wal = table_wal
        self._delta._wal = table_wal

    def insert(self, row) -> None:
        """Append one row tuple (schema column order): one redo record,
        auto-committed as a single self-committed frame."""
        self.insert_rows([row])

    def insert_rows(self, rows) -> int:
        """Append an iterable of row tuples atomically (a malformed row
        rejects the whole batch); returns the count.  The batch is one
        redo record."""
        with self._lock:
            self._check_valid()
            count = self._delta.append_rows(rows)
            self._maybe_autocompact()
            return count

    def delete(self, predicate=None) -> int:
        """Delete visible rows matching ``predicate`` (all when None);
        returns the number deleted.  A delete is an update that appends
        nothing: one ``update`` redo record naming the victims (see
        :meth:`~repro.delta.store.DeltaStore.apply_update`)."""
        return self._modify(predicate)

    def update(self, assignments: dict, predicate=None) -> int:
        """Set ``assignments`` (column -> new value) on rows matching
        ``predicate``; returns the number updated.

        An update is a delete of the old version plus an append of the
        new one — the standard out-of-place write of a main/delta store,
        so the compressed main is never patched.  The whole statement is
        one ``update`` redo record.
        """
        return self._modify(predicate, assignments) if assignments else 0

    def _modify(self, predicate, assignments=None) -> int:
        """One DELETE or UPDATE: :func:`find_victims` over the live
        view, then :meth:`publish`; returns the victim count."""
        with self._lock:
            self._check_valid()
            _, positions, indices, images = find_victims(
                view_batches(self._main, self._delta), self.schema,
                predicate, assignments,
            )
            self.publish(positions, indices, images)
            return len(positions) + len(indices)

    def carry_victims(self, generation: int, positions, indices):
        """A transaction's victims — sorted main ``positions`` and
        buffered ``indices`` of its pinned ``generation`` — carried
        through every fold since (:meth:`_CompactionRun.carry`) onto the
        live generation; ``None`` when one was deleted since.  Writer
        lock held."""
        fold = self._folds.get(generation)
        offset = fold.main_rows if fold is not None else self._main.nrows
        rows = np.array(positions + [offset + i for i in indices], np.int64)
        for folded in range(generation, self._generation):
            rows = self._folds[folded].carry(rows)
        split = int(np.searchsorted(rows, self._main.nrows))
        positions = rows[:split].tolist()
        indices = (rows[split:] - self._main.nrows).tolist()
        delta = self._delta
        if (rows < 0).any() or any(
            p in delta.deleted_main for p in positions
        ) or any(i in delta.deleted_delta for i in indices):
            return None
        return positions, indices

    def publish(self, positions, indices, rows) -> None:
        """Apply a statement's or a transaction's effects on the live
        generation: one ``insert`` record when they only insert, else
        one ``update`` record.  Writer lock held."""
        self._check_valid()
        if positions or indices:
            self._delta.apply_update(positions, indices, rows)
        else:
            self._delta.append_rows(rows)
        self._maybe_autocompact()

    # ------------------------------------------------------------------
    # Compaction (full or incremental; safe under pinned snapshots)
    # ------------------------------------------------------------------

    def compact(self, reason: str = "manual") -> Table:
        """Fold the delta into a fresh all-WAH main table.

        Each column is merged by :meth:`_merge_column`: an insert-only
        fold splices the main's words and appends the WAH-encoded
        buffered rows; a fold that drops main rows rebuilds the column
        once from its vid array as the column holds it.  Afterwards
        the buffer holds only writes that raced the fold (in the
        single-threaded case: none) and the returned table
        *is* the new main.  An in-flight incremental run is driven to
        completion first.
        """
        with self._lock:
            self._check_valid()
            full_budget = max(1, len(self.schema.columns))
            while (
                self._compaction_run is not None
                or not self._delta.is_empty
            ):
                self.compact_step(columns=full_budget, reason=reason)
            return self._main

    def compact_step(
        self, columns: int | None = None, reason: str = "incremental"
    ) -> CompactionProgress:
        """Advance (or begin) an incremental compaction by merging up to
        ``columns`` columns (default: the policy's ``step_columns``).

        The first call pins the fold at the current epoch; DML may keep
        landing between steps (it carries over into the fresh buffer
        when the run finishes), and snapshots pinned at any point keep
        their frozen view throughout.  Returns the run's progress; when
        ``done``, the new main has been published.
        """
        with self._lock:
            self._check_valid()
            if self._compaction_run is None:
                if self._delta.is_empty:
                    return CompactionProgress(0, 0, True)
                self._compaction_run = _CompactionRun(
                    self._main, self._delta
                )
            run = self._compaction_run
            self.compaction_steps += 1
            budget = (
                columns
                if columns is not None
                else max(1, self.policy.step_columns)
            )
            for _ in range(budget):
                if run.done:
                    break
                name = run.column_names[run.next_index]
                run.merged[name] = self._merge_column(name, run)
                run.next_index += 1
            total = len(run.column_names)
            if run.done:
                self._finish_compaction(run, reason)
                return CompactionProgress(total, total, True)
            return CompactionProgress(run.next_index, total, False)

    def _merge_column(self, name: str, run: _CompactionRun) -> BitmapColumn:
        """Merge one column: the surviving main rows, then the
        cutoff-live buffered values, dictionary-encoded in first-seen
        order.

        An insert-only fold splices: the concat copies the main's words
        and rebuilds only each value's partial tail group and the
        buffered part.  A fold that drops main rows rebuilds the column
        once from vids instead of filtering its bitmaps: the column's
        vids at the kept positions, read as the column holds them
        (``BitmapColumn.held_vids``: the narrow copy is not widened on
        a column about to die), then the buffered vids, in the main
        dictionary less its vanished values and extended by the
        buffer's new values.  Words, offsets and dictionary come out as
        ``select(keep, compact=True)`` then ``concat`` would make them
        (``tests/harness/fold_reference.py``)."""
        dtype = self.schema.column(name).dtype
        main_part = self._main.column(name)
        delta_dictionary = Dictionary()
        delta_vids = delta_dictionary.encode(
            [self._delta.columns[name][i] for i in run.live_cutoff]
        )
        if len(run.keep) == self._main.nrows:
            if not len(delta_vids):
                return main_part
            return main_part.concat(BitmapColumn.from_vids(
                name, dtype, delta_dictionary, delta_vids
            ))
        vids = main_part.held_vids()[run.keep]
        counts = np.bincount(vids, minlength=main_part.distinct_count)
        dictionary = main_part.dictionary
        if not counts.all():
            present = counts > 0
            dictionary = dictionary.subset(np.flatnonzero(present).tolist())
            vids = (np.cumsum(present) - 1)[vids]
        if len(delta_vids):
            dictionary, target = dictionary.extended(delta_dictionary)
            vids = np.concatenate((vids, target[delta_vids]))
        return BitmapColumn.from_vids(name, dtype, dictionary, vids)

    def replay_compact(self, cutoff_epoch: int) -> None:
        """Recovery-only: re-run a logged fold at its logged cutoff.

        The fold is a pure function of (main, delta state at cutoff), so
        replaying it reproduces the crashed compaction's row positions
        exactly — later redo records that name post-fold positions and
        indices land where they were logged.  Emits nothing."""
        with self._lock:
            run = _CompactionRun(self._main, self._delta, cutoff_epoch)
            while not run.done:
                name = run.column_names[run.next_index]
                run.merged[name] = self._merge_column(name, run)
                run.next_index += 1
            self._finish_compaction(run, "wal replay", log=False)

    def _finish_compaction(
        self, run: _CompactionRun, reason: str, log: bool = True
    ) -> None:
        """Publish the merged table, carry post-cutoff writes into a
        fresh buffer (remapping deletions of folded rows onto the new
        main's positions), and retain the old generation if snapshots
        still pin it."""
        if log and self._wal is not None:
            # Write-ahead: the structural record lands before the state
            # changes, as its own auto-committed frame (inside the outer
            # transaction during a ``db.transaction()`` commit).
            self._wal.log_compact(run.cutoff_epoch)
        old_main, old_delta = self._main, self._delta
        nrows = len(run.keep) + len(run.live_cutoff)
        new_main = Table(self.schema, run.merged, nrows)

        # Only deletions newer than the cutoff survive the fold, at
        # their rows' new places (normally none).
        late = {
            row: at for row, at in chain(
                old_delta.deleted_main.items(),
                ((run.main_rows + i, at)
                 for i, at in old_delta.deleted_delta.items()),
            ) if at > run.cutoff_epoch
        }
        moved = run.carry(np.fromiter(late, np.int64, len(late)))
        deleted_main, new_deleted_delta = {}, {}
        for row, at in zip(moved.tolist(), late.values()):
            if row < nrows:
                deleted_main[row] = at
            else:
                new_deleted_delta[row - nrows] = at
        carried = {
            name: old_delta.columns[name][run.cutoff_appended:]
            for name in self.schema.column_names
        }
        new_delta = DeltaStore.restore(
            self.schema,
            carried,
            old_delta.insert_epochs[run.cutoff_appended:],
            deleted_main,
            new_deleted_delta,
            old_delta.epoch,
        )
        new_delta._wal = old_delta._wal
        new_delta._lock = self._lock

        if any(s.generation == self._generation for s in self._snapshots):
            self._retained[self._generation] = (old_main, old_delta)
        if self._snapshots:
            run.merged = {}
            self._folds[self._generation] = run
        self._main = new_main
        self._delta = new_delta
        self._generation += 1
        self._compaction_run = None
        self.compactions += 1
        if self.on_compact is not None:
            self.on_compact(self._main, reason)

    def restore_delta(self, store: DeltaStore) -> None:
        """Adopt a persisted write buffer (see ``storage.filefmt``).

        Only valid while the current buffer is empty — a delta belongs
        to exactly one main-store generation.
        """
        with self._lock:
            self._check_valid()
            if self.has_pending_changes:
                raise SchemaError(
                    f"table {self.name!r} already has pending changes"
                )
            if store.schema.column_names != self.schema.column_names:
                raise SchemaError(
                    f"delta schema does not match table {self.name!r}"
                )
            store._wal = self._wal
            store._lock = self._lock
            self._delta = store

    def rewire_metadata(
        self, new_main: Table, renames: dict[str, str] | None = None
    ) -> None:
        """Adopt a renamed main store *without* flushing the delta.

        ``new_main`` must hold the same rows as the current main — only
        the table name and/or column names (per ``renames``) may differ.
        The buffer, its epochs and any in-flight
        incremental compaction are rewired in place, making RENAME
        TABLE / RENAME COLUMN O(1) metadata operations even with pending
        writes (the invariant documented in ``docs/ARCHITECTURE.md``).
        Pinned snapshots follow the rename — names are metadata, not
        data, so every retained generation is relabeled in place (their
        rows never change).
        """
        with self._lock:
            self._check_valid()
            if new_main.nrows != self._main.nrows:
                raise StorageError(
                    f"rewire_metadata: {new_main.nrows} rows != "
                    f"{self._main.nrows} (renames are metadata-only)"
                )
            renames = renames or {}
            self._delta.adopt_schema(new_main.schema, renames)
            if self._compaction_run is not None:
                self._compaction_run.rename_columns(renames)
            self._main = new_main
            for generation, (main, delta) in list(self._retained.items()):
                relabeled = _relabeled_table(
                    main, new_main.schema.name, renames
                )
                delta.adopt_schema(relabeled.schema, renames)
                self._retained[generation] = (relabeled, delta)
            for snapshot in self._snapshots:
                if snapshot.generation == self._generation:
                    snapshot._rewire(new_main)
                else:
                    snapshot._rewire(self._retained[snapshot.generation][0])

    def _maybe_autocompact(self) -> None:
        reason = self.policy.should_compact(self.delta_stats())
        if reason is not None:
            self.compact(f"auto: {reason}")

    # ------------------------------------------------------------------
    # Comparison helpers (tests, verification)
    # ------------------------------------------------------------------

    def same_content(self, other, ordered: bool = False) -> bool:
        """Logical equality against a :class:`Table` or another
        :class:`MutableTable` (merged view on both sides)."""
        if self.schema.column_names != other.schema.column_names:
            return False
        if self.nrows != other.nrows:
            return False
        if ordered:
            return self.to_rows() == other.to_rows()
        return self.sorted_rows() == other.sorted_rows()

    def __repr__(self) -> str:
        return (
            f"MutableTable({self.name!r}, main={self._main.nrows}, "
            f"delta=+{self._delta.n_live}/-{len(self._delta.deleted_main)}, "
            f"epoch={self._delta.epoch}, "
            f"compactions={self.compactions})"
        )
