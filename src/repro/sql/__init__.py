"""A SQL subset: parser + executor over pluggable storage engines."""

from repro.sql.adapter import (
    AdapterCapabilities,
    ColumnStoreAdapter,
    EngineAdapter,
    MutableColumnAdapter,
    RowEngineAdapter,
)
from repro.sql.ast import (
    Aggregate,
    CreateIndex,
    CreateTable,
    Delete,
    DropTable,
    InsertSelect,
    InsertValues,
    JoinClause,
    RenameTable,
    Select,
    Update,
)
from repro.sql.executor import SqlExecutor
from repro.sql.parser import iter_script_statements, parse_sql

__all__ = [
    "AdapterCapabilities",
    "Aggregate",
    "ColumnStoreAdapter",
    "CreateIndex",
    "CreateTable",
    "Delete",
    "DropTable",
    "EngineAdapter",
    "InsertSelect",
    "InsertValues",
    "JoinClause",
    "MutableColumnAdapter",
    "RenameTable",
    "Select",
    "SqlExecutor",
    "Update",
    "iter_script_statements",
    "parse_sql",
]
