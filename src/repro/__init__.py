"""repro — a reproduction of *CODS: Evolving Data Efficiently and
Scalably in Column Oriented Databases* (Liu, Natarajan, He, Hsiao, Chen;
PVLDB 3(2), 2010).

The package implements the paper's platform end to end:

* :mod:`repro.bitmap` — WAH-compressed bitmaps, the one storage
  encoding of every column;
* :mod:`repro.storage` — a bitmap-encoded column store with catalog,
  CSV and binary persistence;
* :mod:`repro.fd` — functional-dependency theory (lossless-join checks);
* :mod:`repro.smo` — the 11 Schema Modification Operators of Table 1,
  with a textual language, plans and history;
* :mod:`repro.core` — the CODS contribution: data-level data evolution
  (distinction, bitmap filtering, key–foreign-key and general two-pass
  mergence) on compressed columns;
* :mod:`repro.delta` — the write path: per-table delta stores with
  ``insert``/``update``/``delete``, query-time merged reads, and
  threshold-driven compaction back into fresh WAH columns (SMOs applied
  to a table with pending writes auto-flush its delta first);
* :mod:`repro.rowstore` / :mod:`repro.sql` — a row-store engine and a
  SQL subset powering the query-level baselines;
* :mod:`repro.baselines` — the comparators of Figure 3 (commercial-style
  row store, SQLite, column store at query level);
* :mod:`repro.workload` / :mod:`repro.bench` — evaluation workloads and
  the harness regenerating the paper's figures;
* :mod:`repro.demo` — the demonstration platform as a CLI.

The single documented entry point is :class:`repro.db.Database` — one
``execute()`` for SQL *and* SMO text, whole-catalog transactions, and
catalog-directory persistence (``docs/migration.md`` maps the older
per-layer entry points onto it)::

    from repro.db import Database

    db = Database()                       # in-memory catalog
    db.execute("CREATE TABLE R (Employee STRING, Skill STRING, "
               "Address STRING)")
    db.executemany(
        "INSERT INTO R VALUES (?, ?, ?)",
        [("Jones", "Typing", "425 Grant"),
         ("Jones", "Whittling", "425 Grant"),
         ("Ellis", "Alchemy", "747 Ind")],
    )
    db.execute(
        "DECOMPOSE TABLE R INTO S (Employee, Skill), T (Employee, Address)"
    )
    with db.transaction(read_only=True) as tx:
        print(tx.execute("SELECT * FROM T"))

The per-layer classes remain importable for library use (the façade is
built on them)::

    engine = db.engine                        # the EvolutionEngine
    mutable = engine.mutable("S")             # delta-backed DML handle
    mutable.insert(("Harrison", "Juggling"))
    mutable.compact()                         # fresh all-WAH table
"""

from repro.baselines import (
    CodsSystem,
    EvolutionSystem,
    QueryLevelEvolution,
    SqliteEvolution,
    make_system,
)
from repro.bitmap import WAHBitmap
from repro.core import EvolutionEngine, EvolutionStatus
from repro.db import Database, Session, Transaction, connect
from repro.delta import (
    CompactionPolicy,
    DeltaStats,
    DeltaStore,
    MutableTable,
)
from repro.errors import (
    BitmapError,
    CapabilityError,
    CodsError,
    EvolutionError,
    LosslessJoinError,
    SchemaError,
    SmoValidationError,
    SqlError,
    StorageError,
    TransactionConflict,
    TransactionError,
)
from repro.fd import FunctionalDependency
from repro.smo import (
    AddColumn,
    CopyTable,
    CreateTable,
    DecomposeTable,
    DropColumn,
    DropTable,
    EvolutionPlan,
    MergeTables,
    PartitionTable,
    RenameColumn,
    RenameTable,
    UnionTables,
    parse_smo,
)
from repro.sql import MutableColumnAdapter, SqlExecutor
from repro.storage import (
    Catalog,
    ColumnSchema,
    DataType,
    Table,
    TableSchema,
    load_csv,
    load_table,
    save_csv,
    save_table,
    table_from_python,
)
from repro.workload import (
    EmployeeWorkload,
    GeneralMergeWorkload,
    MixedReadWriteWorkload,
    SalesStarWorkload,
)

__version__ = "1.0.0"

__all__ = [
    "AddColumn",
    "BitmapError",
    "CapabilityError",
    "Catalog",
    "CodsError",
    "CodsSystem",
    "ColumnSchema",
    "CompactionPolicy",
    "CopyTable",
    "CreateTable",
    "DataType",
    "Database",
    "DecomposeTable",
    "DeltaStats",
    "DeltaStore",
    "DropColumn",
    "DropTable",
    "EmployeeWorkload",
    "EvolutionEngine",
    "EvolutionError",
    "EvolutionPlan",
    "EvolutionStatus",
    "EvolutionSystem",
    "FunctionalDependency",
    "GeneralMergeWorkload",
    "LosslessJoinError",
    "MergeTables",
    "MixedReadWriteWorkload",
    "MutableColumnAdapter",
    "MutableTable",
    "PartitionTable",
    "QueryLevelEvolution",
    "RenameColumn",
    "RenameTable",
    "SalesStarWorkload",
    "SchemaError",
    "Session",
    "SmoValidationError",
    "SqlError",
    "SqlExecutor",
    "SqliteEvolution",
    "StorageError",
    "Table",
    "TableSchema",
    "Transaction",
    "TransactionConflict",
    "TransactionError",
    "UnionTables",
    "WAHBitmap",
    "connect",
    "load_csv",
    "load_table",
    "make_system",
    "parse_smo",
    "save_csv",
    "save_table",
    "table_from_python",
]
