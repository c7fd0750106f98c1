"""The catalog: named tables and a version counter.

The PRISM line of work the paper builds on (Curino et al., VLDB 2008)
treats a database's life as a sequence of schema versions connected by
SMOs.  The catalog counts its mutations (``version``, kept in memory
only); the operators themselves are recorded by the engine's
:class:`repro.smo.history.EvolutionHistory`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.errors import SchemaError
from repro.storage.schema import TableSchema
from repro.storage.table import Table


@dataclass
class Catalog:
    """A mutable collection of named tables with a version counter."""

    tables: dict = field(default_factory=dict)
    version: int = 0
    #: Serializes mutations (the version counter is not atomic to
    #: update) — DDL from one session can race the background
    #: compactor's post-compaction ``put``.  Reads stay
    #: lock-free: dict get/set are atomic, and multi-table consistency
    #: is the transaction layer's job, not the catalog's.
    _lock: threading.RLock = field(
        default_factory=threading.RLock, repr=False, compare=False
    )

    # -- queries ------------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self.tables

    def table(self, name: str) -> Table:
        try:
            return self.tables[name]
        except KeyError:
            raise SchemaError(f"no table named {name!r}") from None

    def schema(self, name: str) -> TableSchema:
        return self.table(name).schema

    def table_names(self) -> list[str]:
        return sorted(self.tables)

    # -- mutations ------------------------------------------------------------

    def put(self, table: Table) -> None:
        """Insert or replace a table under its schema name."""
        with self._lock:
            self.tables[table.schema.name] = table
            self.version += 1

    def create(self, table: Table) -> None:
        """Insert a table; fails if the name exists."""
        with self._lock:
            if table.schema.name in self.tables:
                raise SchemaError(
                    f"table {table.schema.name!r} already exists"
                )
            self.put(table)

    def drop(self, name: str) -> Table:
        """Remove and return a table."""
        with self._lock:
            table = self.table(name)
            del self.tables[name]
            self.version += 1
            return table

    def rename(self, old: str, new: str) -> None:
        with self._lock:
            table = self.table(old)
            if new in self.tables:
                raise SchemaError(f"table {new!r} already exists")
            del self.tables[old]
            self.tables[new] = table.renamed(new)
            self.version += 1

    # -- introspection ------------------------------------------------------------

    def describe(self) -> str:
        """Human-readable schema listing (demo UI)."""
        lines = []
        for name in self.table_names():
            table = self.tables[name]
            columns = ", ".join(
                f"{c.name} {c.dtype}" for c in table.schema.columns
            )
            key = (
                f", KEY({', '.join(table.schema.primary_key)})"
                if table.schema.primary_key
                else ""
            )
            lines.append(f"{name}({columns}{key}) -- {table.nrows} rows")
        return "\n".join(lines) if lines else "(empty catalog)"
