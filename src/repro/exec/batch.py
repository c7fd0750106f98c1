"""Column batches: the unit of work of the vectorized read path.

A batch is a window of physical rows from one source (a compressed
main-store table, a delta write buffer, or plain decoded vectors) plus
a *selection* — which of those rows are still in play.  The selection
is a sorted, distinct ``int64`` array of physical positions (``None``
meaning "every row"), so filters compose by sorted intersection instead
of copying data: a predicate never moves values, it only narrows the
positions.  A selection costs what it keeps, never a byte per table
row.  A main-store batch may instead carry the positions its validity
*excludes* (:attr:`TableBatch.deleted`, the same form): a validity
costs what it deletes, so a read over a main store with D deleted rows
pays O(D) on top of the unselected read.  Values are materialized
once, at the cursor/adapter boundary (:meth:`ColumnBatch.rows`), and
only for selected rows.

A predicate runs in one of two domains: :meth:`TableBatch._matches`
resolves it to bitmaps in the compressed domain and reads their set
positions, and every batch over plain vectors — :class:`ValuesBatch`
and the write buffer's :class:`DeltaBatch` — shares
:meth:`ValuesBatch._matches`, the compiled per-column evaluators of
:mod:`repro.exec.predicate`.
"""

from __future__ import annotations

from operator import itemgetter

import numpy as np

from repro.delta.snapshot import decoded_main_rows
from repro.delta.store import surviving_positions
from repro.exec.predicate import compile_predicate, gather


def project_rows(rows, out_positions) -> list:
    """Project row tuples onto ``out_positions`` (``None`` = identity,
    returning ``rows`` unchanged)."""
    if out_positions is None:
        return rows
    if len(out_positions) == 1:
        index = out_positions[0]
        return [(row[index],) for row in rows]
    project = itemgetter(*out_positions)
    return [project(row) for row in rows]


def _found(needles: np.ndarray, haystack: np.ndarray) -> np.ndarray:
    """Which of ``needles`` occur in ``haystack``, both sorted and
    distinct: one ``searchsorted`` of the needles into the haystack."""
    at = np.searchsorted(haystack, needles)
    np.minimum(at, len(haystack) - 1, out=at)
    return haystack[at] == needles


def intersect_positions(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Sorted positions in both ``left`` and ``right`` (each sorted and
    distinct): the smaller side searched into the larger."""
    if len(left) > len(right):
        left, right = right, left
    if not len(left):
        return left
    return left[_found(left, right)]


def difference_positions(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Sorted positions in ``left`` but not in ``right`` (each sorted
    and distinct)."""
    if not len(left) or not len(right):
        return left
    return left[~_found(left, right)]


def _splice_out(rows: list, deleted: np.ndarray) -> list:
    """A fresh list of ``rows`` less the positions ``deleted`` (sorted,
    distinct, non-empty): one slice per run of kept rows, so the Python
    work is O(len(deleted)) and the rest a pointer copy."""
    bounds = deleted.tolist()
    out = rows[:bounds[0]]
    for start, stop in zip(bounds, bounds[1:]):
        out += rows[start + 1:stop]
    out += rows[bounds[-1] + 1:]
    return out


class ColumnBatch:
    """One window of rows, column-wise, with a selection of positions.

    Subclasses provide ``column_names``, ``physical_rows``, the
    predicate hook :meth:`_matches` and the materialization hook
    :meth:`rows`; this base class owns the selection algebra shared by
    every batch kind.
    """

    __slots__ = ("selection",)

    column_names: tuple[str, ...]
    physical_rows: int

    def __init__(self, selection: np.ndarray | None = None):
        self.selection = selection

    # -- selection algebra ---------------------------------------------

    @property
    def selected_count(self) -> int:
        if self.selection is None:
            return self.physical_rows
        return len(self.selection)

    def selected_positions(self) -> np.ndarray:
        """Sorted physical positions still selected."""
        if self.selection is None:
            return np.arange(self.physical_rows, dtype=np.int64)
        return self.selection

    def with_selection(self, selection: np.ndarray | None) -> "ColumnBatch":
        """The same source under a different selection."""
        raise NotImplementedError  # pragma: no cover - interface

    def filter(self, predicate) -> "ColumnBatch":
        """Narrow the selection to rows satisfying ``predicate``.

        No value ever moves: the predicate is resolved to positions in
        whatever domain the batch's source supports and intersected
        with the selection.
        """
        return self.with_selection(self._matches(predicate))

    def without(self, subset: "ColumnBatch") -> "ColumnBatch":
        """The same source less the rows ``subset`` — a proper
        :meth:`filter` of this batch — selects."""
        return self.with_selection(
            difference_positions(self.selected_positions(), subset.selection)
        )

    def _matches(self, predicate) -> np.ndarray:
        """Sorted selected positions satisfying ``predicate``."""
        raise NotImplementedError  # pragma: no cover - interface

    # -- materialization (the boundary) --------------------------------

    def rows(self, out_positions=None) -> list[tuple]:
        """Selected rows as tuples, projected onto ``out_positions``
        (schema-order column indices; ``None`` = all columns).  The
        returned list may be shared with a read cache — treat it as
        read-only."""
        raise NotImplementedError  # pragma: no cover - interface


class ValuesBatch(ColumnBatch):
    """A batch over plain, already-decoded column value vectors.

    This is the generic representation: the row-store baseline, the
    query-level column baseline (which must pay decompression — the
    cost the paper charges it), the rows a transaction writes inside
    its scope, and join outputs re-entering the pipeline all land here.
    Predicates run as compiled per-column evaluators over the selected
    positions.
    """

    __slots__ = ("column_names", "columns", "physical_rows", "_source_rows")

    def __init__(self, column_names, columns: dict, selection=None,
                 source_rows=None):
        super().__init__(selection)
        self.column_names = tuple(column_names)
        self.columns = columns
        self.physical_rows = (
            len(columns[self.column_names[0]]) if self.column_names else 0
        )
        # When built from tuples, keep them: an unfiltered identity
        # materialization can hand the originals back without re-zipping.
        self._source_rows = source_rows

    @classmethod
    def from_rows(cls, column_names, rows, selection=None) -> "ValuesBatch":
        """Transpose row tuples into column vectors."""
        rows = rows if isinstance(rows, list) else list(rows)
        column_names = tuple(column_names)
        columns = {
            name: [row[index] for row in rows]
            for index, name in enumerate(column_names)
        }
        return cls(column_names, columns, selection, source_rows=rows)

    def with_selection(self, selection) -> "ValuesBatch":
        return ValuesBatch(
            self.column_names, self.columns, selection, self._source_rows
        )

    def _matches(self, predicate) -> np.ndarray:
        positions = self.selected_positions()
        return positions[compile_predicate(predicate)(self.columns, positions)]

    def rows(self, out_positions=None) -> list[tuple]:
        if out_positions is None and self.selection is None:
            if self._source_rows is not None:
                return self._source_rows
            names = self.column_names
            return list(zip(*(self.columns[name] for name in names)))
        positions = self.selected_positions()
        names = (
            self.column_names
            if out_positions is None
            else [self.column_names[p] for p in out_positions]
        )
        return list(
            zip(*(gather(self.columns[name], positions) for name in names))
        )


class TableBatch(ColumnBatch):
    """A batch over a compressed main-store :class:`~repro.storage.
    table.Table`.

    A scan's batch carries the table's validity at the reader's epoch
    as an *exclusion list*: ``deleted`` holds the sorted, distinct
    ``int64`` main positions a delta deletion masks (``None`` when none
    does), and ``selection`` stays ``None`` until a predicate narrows
    the batch; at most one of the two is set.  Every read then costs
    the unselected read plus O(D) for D deleted rows, never an array
    per table row: counts are the popcounts less the deleted rows'
    (:mod:`repro.exec.aggregate`), :meth:`rows` splices the decoded
    rows around the dead positions, and a filter subtracts them from
    its matches.

    Predicates are evaluated in the *compressed domain* —
    ``Predicate.bitmap`` ORs the dictionary values' bitmaps and ANDs a
    conjunction's in WAH words, so no row is decoded to be *rejected*;
    the result's set positions are the matches, less the deleted
    positions or intersected with the selection.  Selected rows are
    gathered from the per-generation decoded-rows cache (a generation's
    columns never change, so the decode happens at most once per
    generation however many queries read it).
    """

    __slots__ = ("table", "column_names", "physical_rows", "deleted")

    def __init__(self, table, selection=None, deleted=None):
        if deleted is not None and not len(deleted):
            deleted = None
        if selection is not None and deleted is not None:
            raise ValueError("a TableBatch takes a selection or deletions")
        super().__init__(selection)
        self.table = table
        self.column_names = table.schema.column_names
        self.physical_rows = table.nrows
        self.deleted = deleted

    @property
    def selected_count(self) -> int:
        if self.deleted is not None:
            return self.physical_rows - len(self.deleted)
        return super().selected_count

    def selected_positions(self) -> np.ndarray:
        """Sorted physical positions still selected; under deletions an
        O(rows) array, for generic consumers only."""
        if self.deleted is not None:
            return surviving_positions(self.physical_rows, self.deleted)
        return super().selected_positions()

    def with_selection(self, selection) -> "TableBatch":
        return TableBatch(self.table, selection)

    def without(self, subset: "ColumnBatch") -> "TableBatch":
        """Under an exclusion list, ``subset``'s positions join the
        deleted ones: O(deleted + subset), whatever the table's size."""
        if self.selection is not None:
            return super().without(subset)
        dropped = subset.selected_positions()
        if self.deleted is not None:
            dropped = np.union1d(self.deleted, dropped)
        return TableBatch(self.table, deleted=dropped)

    def _matches(self, predicate) -> np.ndarray:
        matches = predicate.bitmap(self.table).positions()
        if self.selection is not None:
            return intersect_positions(self.selection, matches)
        if self.deleted is not None:
            return difference_positions(matches, self.deleted)
        return matches

    def rows(self, out_positions=None) -> list[tuple]:
        base = decoded_main_rows(self.table)
        if self.selection is not None:
            if not len(self.selection):
                return []
            base = gather(base, self.selection)
        elif self.deleted is not None:
            base = _splice_out(base, self.deleted)
        return project_rows(base, out_positions)


class DeltaBatch(ColumnBatch):
    """A batch over a :class:`~repro.delta.store.DeltaStore` write
    buffer, pinned at one epoch.

    Physical rows are every row ever appended (as of construction);
    the initial selection is the buffer's validity at the pinned epoch
    (:meth:`DeltaStore.delta_validity`).  Predicates run through the
    compiled evaluators of :class:`ValuesBatch`; only selected
    positions are read, as the vectors outgrow ``physical_rows``.
    """

    __slots__ = ("delta", "epoch", "column_names", "columns",
                 "physical_rows")

    def __init__(self, delta, epoch: int | None = None, selection=...,
                 physical_rows: int | None = None, columns=None):
        self.delta = delta
        self.epoch = delta.epoch if epoch is None else epoch
        # A metadata-only rename re-keys the store's dict, never a held
        # batch's (a transaction overlay holds batches across statements).
        self.columns = delta.columns if columns is None else columns
        self.column_names = tuple(self.columns)
        self.physical_rows = (
            delta.n_appended if physical_rows is None else physical_rows
        )
        if selection is ...:
            selection = delta.delta_validity(self.physical_rows, self.epoch)
        super().__init__(selection)

    def with_selection(self, selection) -> "DeltaBatch":
        return DeltaBatch(
            self.delta, self.epoch, selection, self.physical_rows,
            self.columns,
        )

    _matches = ValuesBatch._matches

    def rows(self, out_positions=None) -> list[tuple]:
        names = (
            self.column_names
            if out_positions is None
            else [self.column_names[p] for p in out_positions]
        )
        # One list conversion shared by every column's gather.
        positions = self.selected_positions().tolist()
        return list(
            zip(
                *(
                    gather(self.columns[name], positions)
                    for name in names
                )
            )
        )
