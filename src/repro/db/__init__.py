"""repro.db — the serving façade over the CODS reproduction.

One ``Database`` object consolidates the four entry points the system
grew across PRs — SMOs (:class:`~repro.core.engine.EvolutionEngine`),
SQL (:class:`~repro.sql.executor.SqlExecutor` + adapters), DML/MVCC
(:class:`~repro.delta.MutableTable`/:class:`~repro.delta.Snapshot`) and
persistence (:mod:`repro.storage.filefmt`) — behind a DB-API-flavored
surface:

* :class:`Database` — opens/creates a catalog directory served by the
  CODS engine (the paper's row and query-level column baselines are
  plain adapter classes in :mod:`repro.sql.adapter`, not served here);
* :class:`Session` / :class:`Cursor` — ``execute()`` /
  ``executemany()`` / ``execute_script()`` accepting SQL **and** SMO
  text through one front door that parses each statement once and
  routes it by its parsed type;
* :class:`Transaction` — ``db.transaction(read_only=...)`` pins a
  whole-catalog epoch vector for mutually consistent multi-table
  reads, with all-or-nothing commit/rollback.

Quickstart::

    from repro.db import Database

    db = Database()                       # in-memory catalog
    db.execute("CREATE TABLE r (k INT, s STRING)")
    db.executemany("INSERT INTO r VALUES (?, ?)", [(1, "a"), (2, "b")])
    db.execute("DECOMPOSE TABLE r INTO a (k), b (k, s)")
    with db.transaction(read_only=True) as tx:
        rows = tx.execute("SELECT * FROM b")

See ``docs/ARCHITECTURE.md`` ("The API layer") and ``docs/migration.md``
for the mapping from the old entry points.
"""

from repro.db.database import Database, connect
from repro.db.session import Cursor, Session, bind_parameters
from repro.db.transaction import Transaction
from repro.sql.parser import iter_script_statements

__all__ = [
    "Cursor",
    "Database",
    "Session",
    "Transaction",
    "bind_parameters",
    "connect",
    "iter_script_statements",
]
