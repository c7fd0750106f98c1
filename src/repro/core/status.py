"""Evolution status tracking.

The demo UI (paper Section 3, "Tracking Data Evolution Status") shows
each step CODS takes — "distinction", "filtering", column reuse — as it
runs.  :class:`EvolutionStatus` is that facility plus the accounting the
tests rely on: e.g. Property 1 is verified by asserting that the
unchanged side of a decomposition incurred zero bitmap operations.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass(frozen=True)
class StatusEvent:
    """One logged evolution step."""

    step: str
    detail: str
    seconds: float


@dataclass
class EvolutionStatus:
    """Event log plus operation counters for one SMO execution."""

    events: list = field(default_factory=list)
    listeners: list = field(default_factory=list)

    # Counters — the currency of the paper's cost argument.
    columns_reused: int = 0        # columns adopted without any data work
    bitmaps_reused: int = 0        # bitmaps shared into the output as-is
    bitmaps_filtered: int = 0      # "bitmap filtering" operations
    bitmaps_created: int = 0       # new bitmaps built from scratch
    columns_decompressed: int = 0  # decode_vids calls (sequential scans)
    rows_materialized: int = 0     # tuples formed (query-level only)
    delta_rows_flushed: int = 0    # buffered writes folded in pre-SMO

    def subscribe(self, listener) -> None:
        """Register a callable invoked with each :class:`StatusEvent`."""
        self.listeners.append(listener)

    def emit(self, step: str, detail: str = "", seconds: float = 0.0) -> None:
        event = StatusEvent(step, detail, seconds)
        self.events.append(event)
        for listener in self.listeners:
            listener(event)

    @contextmanager
    def step(self, step: str, detail: str = ""):
        """Time a step and log it on exit."""
        started = time.perf_counter()
        try:
            yield self
        finally:
            self.emit(step, detail, time.perf_counter() - started)

    # -- counter helpers -------------------------------------------------

    def reuse_columns(self, count: int) -> None:
        self.columns_reused += count
        self.bitmaps_reused += 0  # bitmap-level reuse tracked separately

    def reuse_bitmaps(self, count: int) -> None:
        self.bitmaps_reused += count

    def filtered_bitmaps(self, count: int) -> None:
        self.bitmaps_filtered += count

    def created_bitmaps(self, count: int) -> None:
        self.bitmaps_created += count

    def decompressed_column(self, count: int = 1) -> None:
        self.columns_decompressed += count

    def materialized_rows(self, count: int) -> None:
        self.rows_materialized += count

    def flushed_delta(self, count: int) -> None:
        self.delta_rows_flushed += count

    # -- reporting ---------------------------------------------------------

    def summary(self) -> dict:
        return {
            "columns_reused": self.columns_reused,
            "bitmaps_reused": self.bitmaps_reused,
            "bitmaps_filtered": self.bitmaps_filtered,
            "bitmaps_created": self.bitmaps_created,
            "columns_decompressed": self.columns_decompressed,
            "rows_materialized": self.rows_materialized,
            "delta_rows_flushed": self.delta_rows_flushed,
        }

    def describe(self) -> str:
        lines = [
            f"  [{event.step}] {event.detail} ({event.seconds * 1e3:.2f} ms)"
            for event in self.events
        ]
        lines.append(f"  counters: {self.summary()}")
        return "\n".join(lines)
