"""Compaction policies: when — and how much at a time — to fold the
delta back into the main.

The write buffer trades read speed for write speed — merged scans touch
the uncompressed delta row by row, and deleted main rows still occupy
their bitmap positions.  A :class:`CompactionPolicy` bounds that debt by
size (absolute buffered rows) and by ratio (buffered or deleted rows
relative to the main store), the knobs of Krueger et al.'s merge
scheduler.  It also carries the *incremental* knobs: ``step_columns``
budgets how many columns one :meth:`repro.delta.MutableTable.
compact_step` call merges (see ``docs/ARCHITECTURE.md``, "The
compaction lifecycle").
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DeltaStats:
    """A snapshot of one table's main/delta split."""

    table: str
    main_rows: int
    delta_rows: int       # buffered rows ever appended
    delta_live: int       # buffered rows still visible
    deleted_main: int     # main rows masked by deletions
    deleted_delta: int    # buffered rows deleted before compaction
    compactions: int      # compactions performed so far
    epoch: int = 0        # write-versioning counter (monotonic)
    open_snapshots: int = 0   # pinned MVCC snapshots
    compaction_steps: int = 0  # incremental compact_step() calls

    @property
    def live_rows(self) -> int:
        """Rows a merged scan returns."""
        return self.main_rows - self.deleted_main + self.delta_live

    @property
    def delta_ratio(self) -> float:
        """Buffered rows relative to the main store."""
        return self.delta_rows / max(self.main_rows, 1)

    @property
    def deleted_ratio(self) -> float:
        """Masked main rows relative to the main store."""
        return self.deleted_main / max(self.main_rows, 1)

    def as_dict(self) -> dict:
        return {
            "table": self.table,
            "main_rows": self.main_rows,
            "delta_rows": self.delta_rows,
            "delta_live": self.delta_live,
            "deleted_main": self.deleted_main,
            "deleted_delta": self.deleted_delta,
            "live_rows": self.live_rows,
            "delta_ratio": round(self.delta_ratio, 6),
            "deleted_ratio": round(self.deleted_ratio, 6),
            "compactions": self.compactions,
            "epoch": self.epoch,
            "open_snapshots": self.open_snapshots,
            "compaction_steps": self.compaction_steps,
        }

    def as_gauges(self) -> dict:
        """This table's contribution to the registry's delta gauges
        (the exported names of ``docs/observability.md``).  The
        :class:`~repro.sql.adapter.MutableColumnAdapter` registers
        callback gauges that aggregate these across
        ``engine.delta_stats()`` — one source of truth for the
        compaction policy, the exporters and the demo's ``deltastat``
        command."""
        return {
            "delta.tables": 1,
            "delta.buffered_rows": self.delta_live,
            "delta.live_rows": self.live_rows,
            "delta.deleted_main": self.deleted_main,
            "snapshot.pins_active": self.open_snapshots,
            "compaction.runs": self.compactions,
            "compaction.steps": self.compaction_steps,
        }


def aggregate_gauges(stats_list) -> dict:
    """Sum :meth:`DeltaStats.as_gauges` across tables — the values the
    adapter's callback gauges expose process-wide (every name, zero
    for an empty list)."""
    empty = DeltaStats("", 0, 0, 0, 0, 0, 0)
    totals = dict.fromkeys(empty.as_gauges(), 0)
    for stats in stats_list:
        for key, value in stats.as_gauges().items():
            totals[key] += value
    return totals


@dataclass(frozen=True)
class CompactionProgress:
    """What one :meth:`~repro.delta.MutableTable.compact_step` call did.

    ``done`` flips when the last column was merged and the new main was
    published; until then the table keeps serving merged reads from the
    old generation while writes continue to land in the delta.
    """

    columns_done: int
    columns_total: int
    done: bool

    @property
    def remaining(self) -> int:
        return self.columns_total - self.columns_done


@dataclass(frozen=True)
class CompactionPolicy:
    """Threshold-based auto-compaction.  ``None`` disables a trigger.

    ``step_columns`` is the incremental-compaction budget: how many
    columns one ``compact_step()`` call merges (a full ``compact()``
    ignores it).
    """

    max_delta_rows: int | None = 4096
    max_delta_ratio: float | None = 0.25
    max_deleted_ratio: float | None = 0.25
    step_columns: int = 1

    @classmethod
    def never(cls) -> "CompactionPolicy":
        """Manual compaction only."""
        return cls(None, None, None)

    def should_compact(self, stats: DeltaStats) -> str | None:
        """The trigger that fired, or ``None`` to keep buffering."""
        if (
            self.max_delta_rows is not None
            and stats.delta_rows >= self.max_delta_rows
        ):
            return f"delta rows {stats.delta_rows} >= {self.max_delta_rows}"
        if (
            self.max_delta_ratio is not None
            and stats.main_rows > 0
            and stats.delta_ratio >= self.max_delta_ratio
        ):
            return (
                f"delta ratio {stats.delta_ratio:.3f} >= "
                f"{self.max_delta_ratio}"
            )
        if (
            self.max_deleted_ratio is not None
            and stats.main_rows > 0
            and stats.deleted_ratio >= self.max_deleted_ratio
        ):
            return (
                f"deleted ratio {stats.deleted_ratio:.3f} >= "
                f"{self.max_deleted_ratio}"
            )
        return None
