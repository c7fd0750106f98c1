"""Live row counts for planner decisions and EXPLAIN.

``TableStats`` counts a table's live main-store rows (compressed, read
in the dictionary domain) and live delta rows (buffered, read row by
row).  ``MutableTable.statistics()`` / ``Snapshot.statistics()`` build
them for the current or pinned view, and adapters surface them through
the optional ``EngineAdapter.table_stats`` hook; EXPLAIN reports the
delta share in its aggregate node.  The counts are read off live
bookkeeping — nothing is scanned, nothing is cached.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["TableStats", "table_statistics"]


@dataclass(frozen=True)
class TableStats:
    """Table-level statistics: live row counts.

    ``main_rows`` counts main-store rows still visible (appended minus
    deleted); ``delta_rows`` counts live delta rows.
    """

    table: str
    main_rows: int
    delta_rows: int = 0

    @property
    def total_rows(self) -> int:
        return self.main_rows + self.delta_rows

    @property
    def delta_share(self) -> float:
        total = self.total_rows
        return self.delta_rows / total if total else 0.0


def table_statistics(table) -> TableStats:
    """Statistics for a :class:`~repro.storage.table.Table` main store
    with no delta side."""
    return TableStats(table.name, table.nrows)
