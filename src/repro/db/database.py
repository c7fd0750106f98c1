"""The Database façade: one object for SQL, SMOs, transactions and
persistence.

Before this layer the reproduction exposed four disjoint entry points —
:class:`~repro.core.engine.EvolutionEngine` for SMOs,
:class:`~repro.sql.executor.SqlExecutor` plus a hand-picked adapter for
SQL, :class:`~repro.delta.MutableTable` for DML/snapshots, and
:mod:`repro.storage.filefmt` for disk.  A :class:`Database` owns one
:class:`~repro.sql.adapter.MutableColumnAdapter` over the CODS engine
and serves all four through it, against one catalog::

    from repro.db import Database

    with Database("catalog_dir") as db:          # opens or creates
        db.execute("CREATE TABLE r (k INT, s STRING)")
        db.execute("INSERT INTO r VALUES (?, ?)", (1, "a"))
        db.execute("DECOMPOSE TABLE r INTO a (k), b (k, s)")   # SMO
        rows = db.execute("SELECT * FROM b")
    # closed cleanly -> saved back to catalog_dir

Reads that must be mutually consistent across tables go through
:meth:`Database.transaction`, which pins a whole-catalog epoch vector
(see :mod:`repro.db.transaction`).
"""

from __future__ import annotations

import threading
from collections import deque
from pathlib import Path

from repro.db.compactor import BackgroundCompactor
from repro.db.session import Cursor, Session
from repro.db.transaction import Transaction
from repro.errors import (
    ObservabilityError,
    StorageError,
    WalCorruptionError,
    WalError,
)
from repro.obs.export import to_json_lines, to_prometheus
from repro.sql.adapter import MutableColumnAdapter
from repro.storage.filefmt import load_engine, save_engine
from repro.storage.table import Table
from repro.wal import (
    DEFAULT_GROUP_SIZE,
    WriteAheadLog,
    log_has_records,
    recover,
    wal_path,
)

_DURABILITY_MODES = ("none", "commit", "group")


class Database:
    """A catalog served by the CODS engine.

    ``path`` is a catalog directory: when it holds a saved catalog the
    database opens it, otherwise a fresh in-memory catalog is created
    and :meth:`save`/:meth:`close` will write it there.  ``path=None``
    keeps everything in memory.  ``policy`` is the
    :class:`~repro.delta.CompactionPolicy` handed to delta-backed
    tables.

    ``durability`` selects the write-ahead-log mode (catalog directory
    required):

    ``"none"`` (default)
        no redo logging; writes persist only at :meth:`save`/
        :meth:`close` — the pre-WAL behaviour;
    ``"commit"``
        every committed statement/transaction is fsynced to ``wal.log``
        before it is acknowledged;
    ``"group"``
        commits are fsynced in groups of ``group_size`` — a bounded
        loss window in exchange for amortized fsyncs.

    With durability on, opening a directory runs recovery: committed
    transactions past the last checkpoint are replayed into the
    deltas, torn log tails are discarded, and deeper damage raises
    :class:`~repro.errors.WalCorruptionError` (``docs/wal-format.md``).
    """

    def __init__(
        self,
        path=None,
        policy=None,
        durability: str = "none",
        group_size: int = DEFAULT_GROUP_SIZE,
    ):
        if durability not in _DURABILITY_MODES:
            raise WalError(
                f"unknown durability {durability!r}; use one of "
                f"{_DURABILITY_MODES}"
            )
        self.path = Path(path) if path is not None else None
        self.policy = policy
        self.durability = durability
        self.group_size = group_size
        self._closed = False
        self._wal: WriteAheadLog | None = None
        self._compactor: BackgroundCompactor | None = None
        # close() and start/stop_compactor() are callable from any
        # thread (the network server's shutdown path races its handler
        # threads): the close lock makes double-close a no-op whatever
        # the interleaving, and the compactor lock makes the
        # swap-and-stop handoff atomic so two concurrent stops never
        # both stop (and double-raise from) the same thread.
        self._close_lock = threading.Lock()
        self._compactor_lock = threading.Lock()
        # Head of the system lock order (see docs/ARCHITECTURE.md,
        # "Concurrency"): transaction commits, checkpoints and DDL-
        # driven checkpoints serialize here BEFORE taking any table
        # writer lock, so two multi-table writers can never take table
        # locks in conflicting orders.
        self._commit_lock = threading.RLock()
        saved = self.path is not None and (self.path / "catalog.json").exists()
        self.adapter = MutableColumnAdapter(
            load_engine(self.path, policy) if saved else None, policy
        )
        self._wire_durability()
        # Slow-query log: statements at or over the threshold (seconds)
        # are appended by every session; None disables the timing.
        self.slow_query_seconds: float | None = None
        self.slow_query_log: deque = deque(maxlen=128)
        self._session = Session(self)

    def _wire_durability(self) -> None:
        if self.durability == "none":
            # Refuse to strand committed-but-uncheckpointed writes: a
            # log with records means the directory was last written by
            # a durable database that crashed before checkpointing.
            if self.path is not None:
                log = wal_path(self.path)
                if log.exists() and log_has_records(log):
                    raise WalError(
                        f"{log} holds unapplied committed records; open "
                        f"with durability='commit' or 'group' to recover "
                        f"them"
                    )
            return
        if self.path is None:
            raise WalError(
                "durability needs a catalog directory: pass a path"
            )
        self.path.mkdir(parents=True, exist_ok=True)
        had_catalog = (self.path / "catalog.json").exists()
        log = wal_path(self.path)
        if not had_catalog and log.exists() and log_has_records(log):
            raise WalCorruptionError(
                f"{log} holds records but {self.path} has no "
                f"catalog.json to recover into"
            )
        self._wal = WriteAheadLog(
            log,
            flush_policy=(
                "commit" if self.durability == "commit" else "group"
            ),
            group_size=self.group_size,
            metrics=self.adapter.metrics,
        )
        # Recover BEFORE attaching the log to the engine: replay must
        # not re-emit the records it is applying.
        if had_catalog and recover(
            self.engine, self.path, self._wal, self.policy
        ):
            # Replayed state is in memory only; checkpoint right away
            # so the next crash does not have to replay it again.
            save_engine(self.engine, self.path, self._wal)
        self.engine.attach_wal(self._wal)

    # -- lifecycle ------------------------------------------------------

    @classmethod
    def open(
        cls,
        path,
        policy=None,
        durability: str = "none",
        group_size: int = DEFAULT_GROUP_SIZE,
    ) -> "Database":
        """Alias of the constructor for callers who prefer a verb."""
        return cls(
            path,
            policy=policy,
            durability=durability,
            group_size=group_size,
        )

    def _check_open(self) -> None:
        if self._closed:
            raise StorageError("database is closed")

    @property
    def closed(self) -> bool:
        return self._closed

    def save(self, path=None) -> Path:
        """Persist the catalog (every table's main and sidecar) to
        ``path`` or the directory the database was opened with.  Saving
        to that directory with durability on is a :meth:`checkpoint`;
        any other save runs the same protocol without the log."""
        self._check_open()
        target = Path(path) if path is not None else self.path
        if target is None:
            raise StorageError(
                "no catalog directory: pass save(path) or open the "
                "database with one"
            )
        wal = self._wal if target == self.path else None
        with self._commit_lock:
            save_engine(self.engine, target, wal)
        return target

    def checkpoint(self) -> int:
        """Flush the log and publish an incremental checkpoint (every
        table's main + sidecar, then truncate the log).  Returns the
        checkpointed log position.  Durability must be on."""
        self._check_open()
        if self._wal is None:
            raise WalError(
                "checkpoint needs durability: open the database with "
                "durability='commit' or 'group'"
            )
        with self._commit_lock:
            return save_engine(self.engine, self.path, self._wal)

    def _schema_changed(self) -> None:
        """Table-set changes (DDL, SMOs, bulk loads) checkpoint
        synchronously: redo records name tables, so the table set in
        the manifest must never lag the log (see
        ``docs/wal-format.md``)."""
        if self._wal is not None:
            self.checkpoint()

    def close(self, save: bool | None = None) -> None:
        """Close the database (idempotent, and safe to call from
        several threads at once — the server's shutdown path does).
        ``save`` defaults to "write back if a catalog directory is
        attached"."""
        with self._close_lock:
            if self._closed:
                return
            self.stop_compactor()
            if save is None:
                save = self.path is not None
            if save:
                self.save()
            if self._wal is not None:
                # Flushes any acked-but-buffered group commits.
                self._wal.close()
            self._closed = True

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Persist only on a clean exit; an exception leaves the last
        # saved state on disk untouched.
        self.close(save=None if exc_type is None else False)

    # -- the engine underneath ------------------------------------------

    @property
    def engine(self):
        """The :class:`~repro.core.engine.EvolutionEngine` underneath."""
        return self.adapter.evolution_engine

    # -- execution (the default session) --------------------------------

    def session(self) -> Session:
        """A fresh execution scope sharing this database's catalog."""
        self._check_open()
        return Session(self)

    def cursor(self) -> Cursor:
        """A DB-API-flavored cursor on the default session."""
        self._check_open()
        return self._session.cursor()

    def execute(self, statement, params=None):
        """Execute one SQL or SMO statement on the default session."""
        return self._session.execute(statement, params)

    def executemany(self, statement: str, param_rows) -> int:
        return self._session.executemany(statement, param_rows)

    def execute_script(self, text: str) -> list:
        return self._session.execute_script(text)

    def transaction(self, read_only: bool = False) -> Transaction:
        """A whole-catalog transactional scope (see
        :class:`~repro.db.transaction.Transaction`)."""
        self._check_open()
        return Transaction(self, read_only=read_only)

    # -- catalog introspection ------------------------------------------

    def tables(self) -> list[str]:
        """Sorted names of every table."""
        self._check_open()
        return self.adapter.table_names()

    def schema(self, name: str):
        self._check_open()
        return self.adapter.schema(name)

    def load_table(self, table: Table) -> None:
        """Register an already-built :class:`~repro.storage.table.
        Table` (CSV imports, workload generators) under its schema
        name."""
        self._check_open()
        self.adapter.load_table(table)
        self._schema_changed()

    # -- maintenance ----------------------------------------------------

    def compact(self, name: str):
        """Fold table ``name``'s write buffer into fresh compressed
        columns; returns the new main table."""
        self._check_open()
        return self.adapter.compact(name)

    def compact_step(self, name: str, columns: int | None = None):
        """One incremental compaction step on table ``name``."""
        self._check_open()
        return self.adapter.compact_step(name, columns)

    def delta_stats(self) -> list:
        """Per-table delta statistics."""
        self._check_open()
        return self.engine.delta_stats()

    def start_compactor(
        self, interval: float | None = None, columns: int | None = None
    ) -> BackgroundCompactor:
        """Start the background compaction thread (idempotent while one
        is running; see :mod:`repro.db.compactor`).  It folds pending
        delta buffers incrementally under the per-table writer locks,
        and :meth:`close` stops it.  Returns the compactor."""
        self._check_open()
        with self._compactor_lock:
            if self._compactor is not None and self._compactor.running:
                return self._compactor
            kwargs = {}
            if interval is not None:
                kwargs["interval"] = interval
            if columns is not None:
                kwargs["columns"] = columns
            self._compactor = BackgroundCompactor(self, **kwargs).start()
            return self._compactor

    def stop_compactor(self) -> None:
        """Stop the background compactor if one is running (idempotent
        and thread-safe; re-raises anything the thread died on, to
        exactly one caller)."""
        with self._compactor_lock:
            compactor, self._compactor = self._compactor, None
        if compactor is not None:
            compactor.stop()

    # -- observability --------------------------------------------------

    def metrics(self, fmt: str | None = None):
        """The adapter's metrics as a snapshot dict (default), JSON
        lines (``fmt="json"``) or Prometheus text exposition
        (``fmt="prometheus"``).  See ``docs/observability.md`` for the
        metric catalog."""
        self._check_open()
        snapshot = self.adapter.metrics.snapshot()
        if fmt is None:
            return snapshot
        if fmt == "json":
            return to_json_lines(snapshot)
        if fmt == "prometheus":
            return to_prometheus(snapshot)
        raise ObservabilityError(
            f"unknown metrics format {fmt!r}; use None, 'json' or "
            f"'prometheus'"
        )

    def __repr__(self) -> str:
        location = str(self.path) if self.path is not None else "memory"
        if self._closed:
            return f"Database({location!r}, closed)"
        return f"Database({location!r}, tables={self.tables()})"


def connect(
    path=None,
    policy=None,
    durability: str = "none",
    group_size: int = DEFAULT_GROUP_SIZE,
) -> Database:
    """DB-API-flavored alias: ``repro.db.connect(...)``."""
    return Database(
        path,
        policy=policy,
        durability=durability,
        group_size=group_size,
    )
