"""SQLite baseline — the "S" series of Figure 3.

Unlike the other comparators this is the *real* system (Python's stdlib
``sqlite3``): the same evolution SQL the paper shows is executed by a
production row-oriented engine.  Values are mapped to SQLite's dynamic
types and back through the tracked schemas.
"""

from __future__ import annotations

import datetime
import sqlite3

from repro.baselines.base import EvolutionSystem
from repro.baselines.query_level import QueryLevelEvolution
from repro.errors import EvolutionError
from repro.smo.ops import (
    AddColumn,
    CopyTable,
    CreateTable,
    DecomposeTable,
    DropColumn,
    DropTable,
    MergeTables,
    PartitionTable,
    RenameColumn,
    RenameTable,
    SchemaModificationOperator,
    UnionTables,
)
from repro.smo.plan import simulate
from repro.storage.schema import TableSchema
from repro.storage.table import Table
from repro.storage.types import DataType

_SQLITE_TYPES = {
    DataType.INT: "INTEGER",
    DataType.FLOAT: "REAL",
    DataType.STRING: "TEXT",
    DataType.BOOL: "INTEGER",
    DataType.DATE: "TEXT",
}


def _to_sqlite(value, dtype: DataType):
    if value is None:
        return None
    if dtype is DataType.BOOL:
        return int(value)
    if dtype is DataType.DATE:
        return value.isoformat()
    return value


def _from_sqlite(value, dtype: DataType):
    if value is None:
        return None
    if dtype is DataType.BOOL:
        return bool(value)
    if dtype is DataType.DATE:
        return datetime.date.fromisoformat(value)
    if dtype is DataType.FLOAT:
        return float(value)
    return value


class SqliteEvolution(EvolutionSystem):
    """Query-level evolution through a real SQLite database."""

    name = "SQLite (query-level)"

    def __init__(self, path: str = ":memory:", with_indexes: bool = False):
        self.connection = sqlite3.connect(path)
        self.connection.execute("PRAGMA journal_mode=MEMORY")
        self.connection.execute("PRAGMA synchronous=OFF")
        self.with_indexes = with_indexes
        self.schemas: dict[str, TableSchema] = {}
        self.extra_fds: tuple = ()

    def declare_fd(self, fd) -> None:
        self.extra_fds = self.extra_fds + (fd,)

    # -- plumbing -----------------------------------------------------------

    def _create_sql(self, schema: TableSchema) -> str:
        columns = ", ".join(
            f'"{c.name}" {_SQLITE_TYPES[c.dtype]}' for c in schema.columns
        )
        return f'CREATE TABLE "{schema.name}" ({columns})'

    def _create_indexes(self, schema: TableSchema) -> None:
        indexed = []
        for key in schema.all_keys():
            for attr in key:
                if attr not in indexed:
                    self.connection.execute(
                        f'CREATE INDEX "idx_{schema.name}_{attr}" ON '
                        f'"{schema.name}" ("{attr}")'
                    )
                    indexed.append(attr)

    # -- interface ------------------------------------------------------------

    def load(self, table: Table) -> None:
        schema = table.schema
        self.connection.execute(self._create_sql(schema))
        placeholders = ", ".join("?" for _ in schema.columns)
        dtypes = [c.dtype for c in schema.columns]
        self.connection.executemany(
            f'INSERT INTO "{schema.name}" VALUES ({placeholders})',
            (
                tuple(_to_sqlite(v, d) for v, d in zip(row, dtypes))
                for row in table.to_rows()
            ),
        )
        self.connection.commit()
        self.schemas[schema.name] = schema
        if self.with_indexes:
            self._create_indexes(schema)

    def extract(self, name: str) -> Table:
        schema = self.schemas[name]
        dtypes = [c.dtype for c in schema.columns]
        cursor = self.connection.execute(
            f'SELECT {", ".join(chr(34) + c + chr(34) for c in schema.column_names)} '
            f'FROM "{name}"'
        )
        rows = [
            tuple(_from_sqlite(v, d) for v, d in zip(row, dtypes))
            for row in cursor
        ]
        return Table.from_rows(schema.renamed(name), rows)

    def table_names(self) -> list[str]:
        return sorted(self.schemas)

    def close(self) -> None:
        self.connection.close()

    # -- execution ---------------------------------------------------------------

    def apply(self, op: SchemaModificationOperator) -> None:
        new_schemas = simulate(op, self.schemas)
        execute = self.connection.execute
        if isinstance(op, DecomposeTable):
            changed = QueryLevelEvolution._changed_side(self, op)
            for side, out, attrs in (
                ("left", op.left_name, op.left_attrs),
                ("right", op.right_name, op.right_attrs),
            ):
                execute(self._create_sql(new_schemas[out]))
                distinct = "DISTINCT " if side == changed else ""
                columns = ", ".join(f'"{a}"' for a in attrs)
                execute(
                    f'INSERT INTO "{out}" SELECT {distinct}{columns} '
                    f'FROM "{op.table}"'
                )
            execute(f'DROP TABLE "{op.table}"')
            if self.with_indexes:
                self._create_indexes(new_schemas[op.left_name])
                self._create_indexes(new_schemas[op.right_name])
        elif isinstance(op, MergeTables):
            join = op.join_attrs or tuple(
                a
                for a in self.schemas[op.left].column_names
                if a in self.schemas[op.right].attribute_set
            )
            out_schema = new_schemas[op.out_name]
            execute(self._create_sql(out_schema))
            using = ", ".join(f'"{a}"' for a in join)
            columns = ", ".join(f'"{c}"' for c in out_schema.column_names)
            execute(
                f'INSERT INTO "{op.out_name}" SELECT {columns} FROM '
                f'"{op.left}" JOIN "{op.right}" USING ({using})'
            )
            execute(f'DROP TABLE "{op.left}"')
            execute(f'DROP TABLE "{op.right}"')
            if self.with_indexes:
                self._create_indexes(out_schema)
        elif isinstance(op, CreateTable):
            execute(self._create_sql(op.schema))
        elif isinstance(op, DropTable):
            execute(f'DROP TABLE "{op.table}"')
        elif isinstance(op, RenameTable):
            execute(
                f'ALTER TABLE "{op.table}" RENAME TO "{op.new_name}"'
            )
        elif isinstance(op, CopyTable):
            execute(self._create_sql(new_schemas[op.new_name]))
            execute(
                f'INSERT INTO "{op.new_name}" SELECT * FROM "{op.table}"'
            )
            if self.with_indexes:
                self._create_indexes(new_schemas[op.new_name])
        elif isinstance(op, UnionTables):
            temp = f"__union_{op.out_name}"
            execute(self._create_sql(new_schemas[op.out_name].renamed(temp)))
            for source in (op.left, op.right):
                execute(f'INSERT INTO "{temp}" SELECT * FROM "{source}"')
            execute(f'DROP TABLE "{op.left}"')
            if op.right != op.left:
                execute(f'DROP TABLE "{op.right}"')
            execute(f'ALTER TABLE "{temp}" RENAME TO "{op.out_name}"')
            if self.with_indexes:
                self._create_indexes(new_schemas[op.out_name])
        elif isinstance(op, PartitionTable):
            for out, where in (
                (op.true_name, str(op.predicate)),
                (op.false_name, f"NOT ({op.predicate})"),
            ):
                execute(self._create_sql(new_schemas[out]))
                execute(
                    f'INSERT INTO "{out}" SELECT * FROM "{op.table}" '
                    f"WHERE {where}"
                )
            execute(f'DROP TABLE "{op.table}"')
            if self.with_indexes:
                self._create_indexes(new_schemas[op.true_name])
                self._create_indexes(new_schemas[op.false_name])
        elif isinstance(op, AddColumn):
            if op.values is not None:
                raise EvolutionError(
                    "SQLite baseline supports ADD COLUMN with defaults only"
                )
            default = _to_sqlite(op.default, op.column.dtype)
            rendered = (
                "NULL"
                if default is None
                else repr(default)
                if not isinstance(default, str)
                else "'" + default.replace("'", "''") + "'"
            )
            execute(
                f'ALTER TABLE "{op.table}" ADD COLUMN "{op.column.name}" '
                f"{_SQLITE_TYPES[op.column.dtype]} DEFAULT {rendered}"
            )
            # Backfill existing rows (ALTER ADD fills new rows only when
            # the default is non-constant; here it fills all, but be
            # explicit for clarity):
            execute(
                f'UPDATE "{op.table}" SET "{op.column.name}" = {rendered} '
                f'WHERE "{op.column.name}" IS NULL'
            )
        elif isinstance(op, DropColumn):
            execute(
                f'ALTER TABLE "{op.table}" DROP COLUMN "{op.column}"'
            )
        elif isinstance(op, RenameColumn):
            execute(
                f'ALTER TABLE "{op.table}" RENAME COLUMN "{op.column}" '
                f'TO "{op.new_name}"'
            )
        else:  # pragma: no cover - future operators
            raise EvolutionError(f"unsupported operator {op!r}")
        self.connection.commit()
        self.schemas = new_schemas
