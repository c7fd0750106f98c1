"""The background compactor: incremental delta folding off the hot path.

A :class:`BackgroundCompactor` is a daemon thread owned by a
:class:`~repro.db.Database` (``db.start_compactor()`` /
``db.stop_compactor()``).  Each cycle it walks the catalog, finds
tables whose delta buffers hold pending writes, and runs one
budget-bounded :meth:`~repro.delta.MutableTable.compact_step` per
table through the adapter — the same code path manual compaction uses,
so the WAL ``compact`` record, the catalog republish and the
``compaction.*`` gauges all behave identically.

Every step runs under the table's writer lock (``compact_step`` takes
it), so the compactor is just another writer to the MVCC structures:
pinned snapshots keep their (generation, epoch) view, concurrent DML
serializes per table, and the thread never holds more than one table
lock at a time — it cannot participate in a lock-order deadlock.

A table dropped or invalidated between the catalog walk and the step
raises a :class:`~repro.errors.CodsError`; the compactor skips it and
moves on (``compactor.skipped`` counts these).  Any other exception
stops the thread and is re-raised by :meth:`stop` so tests cannot
silently pass over a broken compactor.
"""

from __future__ import annotations

import threading

from repro.errors import CodsError

#: Seconds between catalog sweeps when nothing is pending.
DEFAULT_INTERVAL = 0.05

#: Columns folded per compact_step call (the budget).
DEFAULT_COLUMNS = 2


class BackgroundCompactor:
    """The daemon thread; create via ``Database.start_compactor()``."""

    def __init__(
        self,
        database,
        interval: float = DEFAULT_INTERVAL,
        columns: int = DEFAULT_COLUMNS,
    ):
        self.database = database
        self.interval = interval
        self.columns = columns
        metrics = database.adapter.metrics
        self._cycles = metrics.counter("compactor.cycles")
        self._steps = metrics.counter("compactor.steps")
        self._skipped = metrics.counter("compactor.skipped")
        self._stop_event = threading.Event()
        self._error: BaseException | None = None
        self._thread = threading.Thread(
            target=self._run, name="cods-compactor", daemon=True
        )

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "BackgroundCompactor":
        self._thread.start()
        return self

    def stop(self, timeout: float = 10.0) -> None:
        """Signal the thread, join it, and re-raise anything it died
        on.  Idempotent."""
        self._stop_event.set()
        if self._thread.is_alive():
            self._thread.join(timeout)
        if self._error is not None:
            error, self._error = self._error, None
            raise error

    @property
    def running(self) -> bool:
        return self._thread.is_alive()

    # -- the loop -------------------------------------------------------

    def _run(self) -> None:
        try:
            while not self._stop_event.is_set():
                if not self._sweep():
                    # Nothing pending: sleep, but wake promptly on stop.
                    self._stop_event.wait(self.interval)
        except BaseException as exc:  # noqa: BLE001 - surfaced by stop()
            self._error = exc

    def _sweep(self) -> bool:
        """One pass over the catalog; returns True when any table still
        has pending writes (the loop then sweeps again immediately)."""
        database = self.database
        if database.closed:
            return False
        engine = database.engine
        self._cycles.inc()
        busy = False
        for name in engine.catalog.table_names():
            if self._stop_event.is_set():
                return False
            mutable = engine.pending_delta(name)
            if mutable is None:
                continue
            try:
                database.adapter.compact_step(name, self.columns)
                self._steps.inc()
            except CodsError:
                # Dropped/renamed/invalidated between the walk and the
                # step — another session won that race; skip it.
                self._skipped.inc()
                continue
            if engine.pending_delta(name) is not None:
                busy = True
        return busy
