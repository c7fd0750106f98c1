"""Whole-catalog transactions: multi-table epoch-vector snapshots.

A :class:`Transaction` pins every table of the catalog at once, under
the database's commit lock, so no commit lands between two pins: the
**epoch vector** ``{table: (generation, epoch)}`` stays frozen while
concurrent DML and compaction proceed outside the scope, and
cross-table reads inside it observe the catalog as of one instant.
The pins live on the transaction's own
:class:`~repro.db.overlay.TransactionView`; other sessions keep
reading live state throughout.  Tables created by other sessions after
:meth:`Transaction.begin` are pinned on first touch.

Each DML statement runs once, on the view: ``read_only=True`` scopes
reject it, read-write scopes apply it to a per-table **overlay** (see
:mod:`repro.db.overlay`), which the scope's reads see
(read-your-writes).  Commit publishes the overlays' effects — the
pinned rows each table's statements deleted and the rows they
inserted — carried onto the live generation, all or nothing: when
another commit deleted one of those rows first, or dropped or reshaped
a written table, it raises :class:`~repro.errors.TransactionConflict`
and applies nothing (first committer wins).  An exception inside the
scope rolls the overlays away.  Schema changes (SMOs, CREATE/DROP/
ALTER) are not transactional and are rejected inside any scope.  See
``docs/ARCHITECTURE.md`` ("Concurrency") and ``docs/migration.md``.
"""

from __future__ import annotations

from contextlib import ExitStack

from repro.db.overlay import TransactionView
from repro.db.session import Session, bind_and_parse, execute_each
from repro.errors import TransactionConflict, TransactionError
from repro.sql.ast import (
    Delete, Explain, InsertSelect, InsertValues, Select, Update,
)

_DML = (InsertValues, InsertSelect, Update, Delete)


class Transaction:
    """A pinned, whole-catalog scope over the database's MVCC engine.

    Use as a context manager::

        with db.transaction(read_only=True) as tx:
            before = tx.execute("SELECT * FROM s")
            # concurrent DML / compaction elsewhere ...
            assert tx.execute("SELECT * FROM s") == before

        with db.transaction() as tx:
            tx.execute("INSERT INTO s VALUES (1, 'a')")  # in the overlay
        # committed here; an exception inside the block rolls back
    """

    def __init__(self, database, read_only: bool = False):
        self.database = database
        self.read_only = read_only
        # The session reads and writes through the transaction's view
        # (its pins and overlays): nobody else sees them until commit.
        self._overlay = TransactionView(database.adapter)
        self._pins = self._overlay.pins
        self._session = Session(database, adapter=self._overlay)
        # What each DML statement returned, in order.
        self._counts: list[int] = []
        self._state = "pending"  # -> open -> committed | rolled-back

    # -- lifecycle ------------------------------------------------------

    def begin(self) -> "Transaction":
        """Pin every table of the catalog at its current (generation,
        epoch), under the commit lock so no commit lands between two
        pins (no torn epoch vector)."""
        if self._state != "pending":
            raise TransactionError(f"transaction already {self._state}")
        with self.database._commit_lock:
            for name in self._overlay.table_names():
                self._overlay.pin(name)
        self._state = "open"
        return self

    @property
    def epoch_vector(self) -> dict[str, tuple[int, int]]:
        """The pinned ``{table: (generation, epoch)}`` coordinates."""
        return {
            name: (snapshot.generation, snapshot.epoch)
            for name, snapshot in self._pins.items()
        }

    @property
    def state(self) -> str:
        return self._state

    def commit(self) -> int:
        """Publish the scope's effects and release the pins; returns
        the summed counts the scope's DML statements returned.

        Under the commit lock, commit takes every written table's writer
        lock in sorted name order (the lock order) and carries each
        table's victims onto its live generation, checking that none was
        deleted since, before it applies anything: then each table is
        one delta write, all in one WAL transaction.  A commit that
        raises applies nothing and leaves the scope ``rolled-back``."""
        self._check_open()
        total = sum(self._counts)
        try:
            self._publish(self._overlay.writes())
        except BaseException:
            self._end("rolled-back", "txn.rollbacks")
            raise
        self._end("committed", "txn.commits")
        return total

    def _publish(self, writes) -> None:
        engine, wal = self.database.engine, self.database._wal
        with self.database._commit_lock, ExitStack() as locks:
            resolved = []
            for name, pin, (positions, indices, rows) in writes:
                table = pin.owner
                locks.enter_context(table._lock)
                if not table.is_valid or engine.delta_handle(name) is not table:
                    raise TransactionConflict.on(
                        name, "dropped or changed by a schema change"
                    )
                victims = table.carry_victims(pin.generation, positions, indices)
                if victims is None:
                    raise TransactionConflict.on(
                        name, "a row it deleted or updated was deleted "
                        "by another commit"
                    )
                resolved.append((table, victims, rows))
            logged = wal is not None and bool(resolved)
            if logged:
                wal.begin()
            try:
                for table, (positions, indices), rows in resolved:
                    table.publish(positions, indices, rows)
            except BaseException:
                if logged:  # records without a commit record never replay
                    wal.abort()
                raise
            if logged:
                wal.commit()

    def rollback(self) -> int:
        """Discard the scope's writes and release the pins; returns
        how many DML statements were discarded."""
        self._check_open()
        discarded = self.pending_writes
        self._end("rolled-back", "txn.rollbacks")
        return discarded

    def _end(self, state: str, counter: str) -> None:
        self._overlay.close()
        self._counts.clear()
        self._state = state
        self.database.adapter.metrics.counter(counter).inc()

    def __enter__(self) -> "Transaction":
        return self.begin()

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._state != "open":
            return
        if exc_type is None:
            self.commit()
        else:
            self.rollback()

    def _check_open(self) -> None:
        if self._state != "open":
            raise TransactionError(
                f"transaction is {self._state}, not open"
            )

    # -- execution ------------------------------------------------------

    def execute(self, statement: str, params=None):
        """Run a SELECT or EXPLAIN against the pinned state plus the
        scope's own writes, or DML on the scope's overlay (returning
        its affected-row count); SMOs and DDL raise."""
        return self.run(statement, params)[1]

    def run(self, statement: str, params=None):
        """:meth:`execute`, returning ``(node, result)`` like
        :meth:`Session.run`."""
        self._check_open()
        parsed = bind_and_parse(statement, params)
        write = isinstance(parsed, _DML)
        if not write and not isinstance(parsed, (Select, Explain)):
            raise TransactionError(
                "schema changes (SMOs and DDL) are not transactional; "
                "run them outside the scope"
            )
        if write and self.read_only:
            raise TransactionError(
                "cannot write inside a read-only transaction"
            )
        # A write runs here, once: a bad statement (an unknown table, a
        # row of the wrong arity) fails now, and later reads see it.
        node, result = self._session.run(parsed)
        if write:
            self._counts.append(result)
        return node, result

    def executemany(self, statement: str, param_rows) -> int:
        """:meth:`execute` per parameter tuple; returns the summed
        affected-row count."""
        return execute_each(self.execute, statement, param_rows)

    def result_columns(self, node) -> tuple[str, ...] | None:
        """The result-set columns of ``node`` as this scope sees them
        (see :meth:`Session.result_columns`)."""
        return self._session.result_columns(node)

    @property
    def pending_writes(self) -> int:
        """The scope's DML statements awaiting commit."""
        return len(self._counts)
