"""Whole-catalog transactions: multi-table epoch-vector snapshots.

PR 2's :class:`~repro.delta.Snapshot` pins *one* table's (generation,
epoch) pair.  A :class:`Transaction` extends that to the whole catalog:
entering the scope pins every table atomically (the runtime is
single-threaded, so no write can interleave with the acquisition loop),
producing an **epoch vector** — ``{table: (generation, epoch)}`` — that
stays frozen while concurrent inserts, deletes, updates and
``compact_step()`` calls proceed outside the scope.  Cross-table reads
inside the scope are therefore mutually consistent: they all observe
the catalog as of one instant.

The pins live on the transaction's own
:class:`~repro.db.overlay.TransactionView`, which answers the scope's
schema, row and count reads from them, so only reads issued through
the transaction see the frozen view — other sessions of the same
database keep reading live state throughout.

Write semantics follow the classic deferred-update design, with
read-your-writes on top:

* ``read_only=True`` scopes reject DML outright;
* read-write scopes apply DML to a per-table **overlay** (see
  :mod:`repro.db.overlay`) *and* buffer the parsed statement with its
  text; reads inside the scope see the pinned state plus the scope's
  own writes (read-your-writes), while every other session keeps
  reading live state.  Commit runs the buffered statements against
  live state without parsing them again (when the scope exits
  cleanly); an exception rolls overlay and buffer away untouched.
  See ``docs/ARCHITECTURE.md`` ("Concurrency") and
  ``docs/migration.md``.

Tables created by *other* sessions after :meth:`Transaction.begin` are
pinned on first touch, so a read through the scope never serves live
(mutating) state.

Schema changes (SMOs, CREATE/DROP/ALTER) are not transactional and are
rejected inside any scope.
"""

from __future__ import annotations

from repro.db.overlay import TransactionView
from repro.db.session import Session, bind_and_parse, execute_each
from repro.errors import CodsError, TransactionError
from repro.smo.ops import SchemaModificationOperator
from repro.sql.ast import (
    Delete,
    Explain,
    InsertSelect,
    InsertValues,
    Select,
    Statement,
    Update,
)
from repro.sql.executor import script_error
from repro.wal.crashpoints import crash_point

_DML = (InsertValues, InsertSelect, Update, Delete)


class Transaction:
    """A pinned, whole-catalog scope over the database's MVCC engine.

    Use as a context manager::

        with db.transaction(read_only=True) as tx:
            before = tx.execute("SELECT * FROM s")
            # concurrent DML / compaction elsewhere ...
            assert tx.execute("SELECT * FROM s") == before

        with db.transaction() as tx:
            tx.execute("INSERT INTO s VALUES (1, 'a')")  # buffered
        # committed here; an exception inside the block rolls back
    """

    def __init__(self, database, read_only: bool = False):
        self.database = database
        self.read_only = read_only
        # The session reads through the transaction's view (its pins,
        # and an overlay per written table), so only this transaction
        # sees them; buffered writes run through a session on the
        # database's shared adapter at commit.
        self._overlay = TransactionView(database.adapter)
        self._pins = self._overlay.pins
        self._session = Session(database, adapter=self._overlay)
        self._commit_session = database.session()
        # (bound text, parsed statement) per buffered write.
        self._buffered: list[tuple[str, Statement]] = []
        self._state = "pending"  # -> open -> committed | rolled-back

    # -- lifecycle ------------------------------------------------------

    def begin(self) -> "Transaction":
        """Pin every table of the catalog at its current (generation,
        epoch); reads through this transaction observe that frozen
        state until the scope ends (other sessions read live).

        The pin loop holds the database's commit lock: a committing
        transaction (which also holds it) can therefore never land
        *between* two of our pins, so the epoch vector is atomic with
        respect to whole-transaction commits — no torn vectors."""
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
        """Release the pins and run the buffered writes (parsed when
        they were issued) against the live state; returns the summed
        affected-row count.

        Replay is sequential and non-atomic: a statement that fails
        mid-commit raises annotated with its 1-based buffer position
        and leaves the transaction in the terminal ``commit-failed``
        state — earlier statements stay applied and are *removed* from
        the buffer, so ``pending_writes`` names exactly the statements
        that did not land.
        """
        self._check_open()
        self._overlay.close()
        total = 0
        # Under durability the whole replay is one WAL transaction: its
        # commit record lands (and is fsynced, per the flush policy)
        # when the loop finishes.  A *statement* failure mid-replay
        # leaves the earlier statements applied (documented above), so
        # that path commits the WAL transaction too — and force-flushes
        # it, because by the time the caller sees the error it has been
        # told the prefix is applied, so the prefix must survive a
        # crash even under the group policy's buffered-commit window.
        # Any other unwind (notably the fault-injection harness's
        # simulated power cut) aborts instead: abort touches no disk,
        # so the partial replay is forgotten exactly as a real crash
        # would forget it.
        #
        # The replay holds the database's commit lock (the head of the
        # lock order): whole commits serialize against each other and
        # against checkpoints, and each statement then takes its
        # table's writer lock underneath.
        wal = self.database._wal
        in_wal_txn = wal is not None and bool(self._buffered)
        with self.database._commit_lock:
            if in_wal_txn:
                wal.begin()
            try:
                for position, (text, statement) in enumerate(
                    self._buffered, start=1
                ):
                    try:
                        result = self._commit_session.execute(statement)
                    except CodsError as exc:
                        self._state = "commit-failed"
                        self._buffered = self._buffered[position - 1:]
                        if in_wal_txn:
                            in_wal_txn = False
                            # A crash here loses the prefix's commit
                            # record — recovery then rolls the whole
                            # transaction back, which is fine: the
                            # caller never saw this failure ack.
                            crash_point("txn.commit.statement-failed")
                            wal.commit()
                            wal.flush()
                        raise script_error(exc, position, text) from exc
                    if isinstance(result, int):
                        total += result
            except BaseException:
                if in_wal_txn and wal.in_transaction:
                    wal.abort()
                raise
            if in_wal_txn:
                wal.commit()
        self._buffered = []
        self._state = "committed"
        self.database.adapter.metrics.counter("txn.commits").inc()
        return total

    def rollback(self) -> int:
        """Discard the buffered writes and release the pins; returns
        how many statements were discarded."""
        self._check_open()
        self._overlay.close()
        self._state = "rolled-back"
        discarded = len(self._buffered)
        self._buffered.clear()
        self.database.adapter.metrics.counter("txn.rollbacks").inc()
        return discarded

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
        """Run a read against the pinned state (plus this scope's own
        writes), or apply-and-buffer a write.

        SELECTs return their rows immediately (resolved against the
        epoch vector, with the scope's buffered DML overlaid —
        read-your-writes).  In a read-write scope, DML lands in the
        overlay, returns its affected-row count, and runs against live
        state at commit.  SMOs and DDL raise — schema changes are not
        transactional.
        """
        return self.run(statement, params)[1]

    def run(self, statement: str, params=None):
        """:meth:`execute`, returning ``(node, result)`` like
        :meth:`Session.run` — the statement is bound and parsed once,
        here, and never again at commit."""
        self._check_open()
        text, parsed = bind_and_parse(statement, params)
        if isinstance(parsed, SchemaModificationOperator):
            raise TransactionError(
                "schema modification operators are not transactional; "
                "run them outside the scope"
            )
        if isinstance(parsed, (Select, Explain)):
            # EXPLAIN [ANALYZE] is a read: it plans (or runs) its SELECT
            # against the pinned state like any other query here.
            return self._session.run(parsed)
        if isinstance(parsed, _DML):
            if self.read_only:
                raise TransactionError(
                    "cannot write inside a read-only transaction"
                )
            # Apply to the overlay first: the count comes back now,
            # bad statements (an unknown table, a row of the wrong
            # arity) fail here instead of at commit, where earlier
            # statements have already been applied, and later reads in
            # this scope see the write.
            result = self._session.execute(parsed)
            self._buffered.append((text, parsed))
            return parsed, result
        raise TransactionError(
            "DDL is not transactional; run it outside the scope"
        )

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
        """Buffered statements awaiting commit."""
        return len(self._buffered)
