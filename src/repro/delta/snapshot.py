"""MVCC snapshots: pinned, consistent views over a main/delta split.

A :class:`Snapshot` captures the three coordinates that define a
:class:`~repro.delta.MutableTable`'s visible state — the main-store
*generation* (which compressed table), the delta store, and the *epoch*
(how much of the delta's write history applies) — and keeps reading that
exact state while inserts, deletes, updates and compaction proceed on
the owner.  Long scans therefore never block writers and writers never
perturb long scans; see ``docs/ARCHITECTURE.md``, "The MVCC read path".

Old main/delta generations are retained only while a pinned snapshot
still needs them: :meth:`Snapshot.close` (or exiting the context
manager) releases the pin, and the owner drops its reference to any
generation no longer pinned (``MutableTable.retained_versions``).

What is derived from a generation is cached with it
(:func:`generation_cached`).  Its columns are decoded at most once,
into the vid arrays of :func:`decoded_main_vids`, and the decoded rows
(:func:`decoded_main_rows`), the aggregates of
:mod:`repro.exec.aggregate`, DML's old images and a compaction fold
that drops main rows are all built from those arrays.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.errors import StorageError

#: Derived arrays of each main-store generation, weakly keyed by the
#: immutable ``Table`` — the read path's one cache.  Each entry is a
#: dict from a reader's key to what it built.  ``("vids", column)``
#: holds the column's row-order vid array (:func:`decoded_main_vids`,
#: 8 B per row per column read): the generation's single decode, from
#: which ``"rows"`` (the decoded row list), the aggregates of
#: :mod:`repro.exec.aggregate` (typed dictionaries, group codes and
#: their histograms) and a compaction fold that drops rows are all
#: built.  A generation's compressed columns never change — and a
#: metadata-only rename swaps in a fresh relabeled ``Table`` object —
#: so an entry serves every batch that reads the generation and dies
#: with it (when the last pinning snapshot closes).  The cache is
#: deliberately *not* wired into ``Table.to_rows`` itself: the
#: query-level baselines must keep paying the full decompression cost
#: the paper charges them.
_GENERATION_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def generation_cached(table, key, build):
    """The value cached under ``key`` for main-store generation
    ``table``, built by ``build()`` on first use."""
    per_table = _GENERATION_CACHE.get(table)
    if per_table is None:
        per_table = _GENERATION_CACHE[table] = {}
    found = per_table.get(key)
    if found is None:
        found = per_table[key] = build()
    return found


def decoded_main_vids(table, name: str) -> np.ndarray:
    """Column ``name``'s row-order vid array (read-only) for
    main-store generation ``table``: decoded once per generation and
    shared by every reader of it."""
    def build():
        vids = table.column(name).decode_vids()
        vids.flags.writeable = False
        return vids

    return generation_cached(table, ("vids", name), build)


def decoded_main_rows(table) -> list:
    """``table.to_rows()`` memoized for the batch read path, built
    from the generation's vid arrays (:func:`decoded_main_vids`): one
    take from each column's dictionary and one ``zip``."""
    def build():
        return list(zip(*(
            table.column(name).dictionary.decode(
                decoded_main_vids(table, name)
            )
            for name in table.schema.column_names
        )))

    return generation_cached(table, "rows", build)


def reference_rows(main, delta, epoch: int | None = None) -> list[tuple]:
    """The *reference merge* of a main/delta view at ``epoch`` (``None``
    = now): decode the main store, drop the positions deleted at the
    epoch, append the buffered rows live at the epoch.

    Plain and uncached on purpose — it shares neither the validity
    bitmaps nor the decoded-rows cache of the batch read path, so tests
    can compare ``scan_batches()`` against it.  Behind
    ``MutableTable.to_rows`` and ``Snapshot.to_rows``; queries never
    come here."""
    with delta._lock:
        if epoch is None:
            epoch = delta.epoch
        dead = {
            position
            for position, at in delta.deleted_main.items()
            if at <= epoch
        }
        live = delta.live_rows(epoch)
    rows = main.to_rows()
    if dead:
        rows = [
            row for position, row in enumerate(rows) if position not in dead
        ]
    return rows + live


def view_batches(main, delta, epoch: int | None = None) -> list:
    """The main/delta view at ``epoch`` (``None`` = now) as column
    batches (see ``repro.exec``): one
    :class:`~repro.exec.batch.TableBatch` over ``main`` excluding the
    positions deleted by the epoch, then one
    :class:`~repro.exec.batch.DeltaBatch` of the buffered rows live at
    it — the epoch-wise merge every query reads, in
    :func:`reference_rows`'s row order.  Behind
    ``MutableTable.scan_batches`` (under the table lock, ``epoch=None``)
    and ``Snapshot.scan_batches``."""
    from repro.exec import DeltaBatch, TableBatch

    batches = [
        TableBatch(main, deleted=delta.main_deletions(main.nrows, epoch))
    ]
    delta_batch = DeltaBatch(delta, epoch)
    if delta_batch.selected_count:
        batches.append(delta_batch)
    return batches


def view_statistics(main, delta, epoch: int | None = None):
    """Live main/delta row counts of the view at ``epoch`` (``None`` =
    now), counted without listing them (``DeltaStore.live_counts``)."""
    from repro.storage.statistics import TableStats

    main_live, delta_live = delta.live_counts(main.nrows, epoch)
    return TableStats(main.schema.name, main_live, delta_live)


class Snapshot:
    """A read-only view of one table, frozen at pin time.

    Created by :meth:`repro.delta.MutableTable.snapshot`; use as a
    context manager (or call :meth:`close`) so the owner can reclaim
    superseded main-store generations.
    """

    __slots__ = ("_owner", "_main", "_delta", "epoch", "generation",
                 "_closed")

    def __init__(self, owner, main, delta, epoch: int, generation: int):
        self._owner = owner
        self._main = main
        self._delta = delta
        self.epoch = epoch
        self.generation = generation
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release the pin (idempotent).  After closing, reads raise."""
        if self._closed:
            return
        self._closed = True
        owner, self._owner = self._owner, None
        self._main = None
        self._delta = None
        if owner is not None:
            owner._release_snapshot(self)

    def __enter__(self) -> "Snapshot":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise StorageError("snapshot is closed")

    def _rewire(self, relabeled_main) -> None:
        """Follow a metadata-only rename of the pinned generation (the
        owner relabels the table/column names in place; the rows this
        snapshot sees never change)."""
        if not self._closed:
            self._main = relabeled_main

    # ------------------------------------------------------------------
    # Reads (all pinned at ``self.epoch`` over the pinned generation)
    # ------------------------------------------------------------------

    @property
    def schema(self):
        self._check_open()
        return self._main.schema

    @property
    def nrows(self) -> int:
        """Visible rows across both sides, as of the pinned epoch."""
        self._check_open()
        return sum(self._delta.live_counts(self._main.nrows, self.epoch))

    def scan_batches(self) -> list:
        """The pinned view as column batches (:func:`view_batches` at
        the pinned epoch over the pinned generation)."""
        self._check_open()
        return view_batches(self._main, self._delta, self.epoch)

    def statistics(self):
        """Live main/delta row counts of the pinned view at its epoch."""
        self._check_open()
        return view_statistics(self._main, self._delta, self.epoch)

    def to_rows(self) -> list[tuple]:
        """The pinned view as a fresh row list — the reference merge
        (:func:`reference_rows`), for tests and display."""
        self._check_open()
        return reference_rows(self._main, self._delta, self.epoch)

    def __repr__(self) -> str:
        if self._closed:
            return "Snapshot(closed)"
        return (
            f"Snapshot({self._main.schema.name!r}, epoch={self.epoch}, "
            f"generation={self.generation}, rows={self.nrows})"
        )
