"""Query-level data evolution (the approach CODS replaces).

Every SMO is translated into the SQL a DBA would write — the paper's
Section 1 example verbatim for DECOMPOSE:

    INSERT INTO S SELECT Employee, Skill FROM R
    INSERT INTO T SELECT DISTINCT Employee, Address FROM R

— executed through the row-at-a-time SQL engine, materializing results
and reloading them into fresh tables.  With ``with_indexes=True`` the
driver also rebuilds B+-tree indexes on the key columns of every table
it produces (the "C+I" series of Figure 3).
"""

from __future__ import annotations

from repro.baselines.base import EvolutionSystem
from repro.errors import EvolutionError, LosslessJoinError
from repro.fd import check_lossless, fds_from_keys, holds_each
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
from repro.sql.adapter import EngineAdapter
from repro.sql.executor import SqlExecutor
from repro.storage.schema import TableSchema
from repro.storage.table import Table


def render_create_table(schema: TableSchema) -> str:
    """Render CREATE TABLE in the library's SQL dialect."""
    parts = [f"{c.name} {c.dtype}" for c in schema.columns]
    if schema.primary_key:
        parts.append(f"KEY ({', '.join(schema.primary_key)})")
    return f"CREATE TABLE {schema.name} ({', '.join(parts)})"


class QueryLevelEvolution(EvolutionSystem):
    """Evolution via SQL over any :class:`EngineAdapter`."""

    def __init__(
        self,
        adapter: EngineAdapter,
        name: str = "query-level",
        with_indexes: bool = False,
    ):
        self.adapter = adapter
        self.executor = SqlExecutor(adapter)
        self.name = name
        self.with_indexes = with_indexes
        self.schemas: dict[str, TableSchema] = {}
        self.extra_fds: tuple = ()

    def declare_fd(self, fd) -> None:
        self.extra_fds = self.extra_fds + (fd,)

    # -- loading -----------------------------------------------------------

    def load(self, table: Table) -> None:
        self.adapter.create_table(table.schema)
        self.adapter.insert_rows(table.schema.name, table.to_rows())
        self.schemas[table.schema.name] = table.schema
        if self.with_indexes:
            self._create_indexes(table.schema)

    def extract(self, name: str) -> Table:
        schema = self.schemas.get(name) or self.adapter.schema(name)
        return Table.from_rows(schema.renamed(name), self._scan(name))

    def table_names(self) -> list[str]:
        return sorted(self.schemas)

    # -- helpers -------------------------------------------------------------

    def _scan(self, name: str):
        """Every row of ``name`` as tuples."""
        from repro.exec import iter_rows

        return iter_rows(self.adapter.scan_batches(name))

    def _create_indexes(self, schema: TableSchema) -> None:
        """Rebuild indexes on all declared key columns of a table."""
        indexed = []
        for key in schema.all_keys():
            for attr in key:
                if attr not in indexed:
                    self.executor.execute(
                        f"CREATE INDEX idx_{schema.name}_{attr} ON "
                        f"{schema.name} ({attr})"
                    )
                    indexed.append(attr)

    def _changed_side(self, op: DecomposeTable) -> str:
        """Which output needs DISTINCT — same decision CODS makes."""
        schema = self.schemas[op.table]
        fds = list(fds_from_keys(schema)) + list(
            getattr(self, "extra_fds", ())
        )
        try:
            plan = check_lossless(
                schema.column_names, op.left_attrs, op.right_attrs, fds
            )
            return plan.changed_side
        except LosslessJoinError:
            table = self.extract(op.table)
            common = sorted(set(op.left_attrs) & set(op.right_attrs))
            left_holds, right_holds = holds_each(
                table, common, (op.left_attrs, op.right_attrs)
            )
            if not left_holds and not right_holds:
                raise
            if left_holds and right_holds:
                return (
                    "left"
                    if len(op.left_attrs) <= len(op.right_attrs)
                    else "right"
                )
            return "left" if left_holds else "right"

    # -- execution ------------------------------------------------------------

    def apply(self, op: SchemaModificationOperator) -> None:
        new_schemas = simulate(op, self.schemas)
        handler = {
            DecomposeTable: self._decompose,
            MergeTables: self._merge,
            CreateTable: self._create,
            DropTable: self._drop,
            RenameTable: self._rename,
            CopyTable: self._copy,
            UnionTables: self._union,
            PartitionTable: self._partition,
            AddColumn: self._add_column,
            DropColumn: self._drop_column,
            RenameColumn: self._rename_column,
        }.get(type(op))
        if handler is None:  # pragma: no cover - future operators
            raise EvolutionError(f"unsupported operator {op!r}")
        handler(op, new_schemas)
        self.schemas = new_schemas

    def _decompose(self, op: DecomposeTable, new_schemas) -> None:
        changed = self._changed_side(op)
        for side, out_name, attrs in (
            ("left", op.left_name, op.left_attrs),
            ("right", op.right_name, op.right_attrs),
        ):
            self.executor.execute(render_create_table(new_schemas[out_name]))
            distinct = "DISTINCT " if side == changed else ""
            self.executor.execute(
                f"INSERT INTO {out_name} SELECT {distinct}"
                f"{', '.join(attrs)} FROM {op.table}"
            )
        self.executor.execute(f"DROP TABLE {op.table}")
        if self.with_indexes:
            self._create_indexes(new_schemas[op.left_name])
            self._create_indexes(new_schemas[op.right_name])

    def _merge(self, op: MergeTables, new_schemas) -> None:
        join = op.join_attrs or tuple(
            a
            for a in self.schemas[op.left].column_names
            if a in self.schemas[op.right].attribute_set
        )
        out_schema = new_schemas[op.out_name]
        self.executor.execute(render_create_table(out_schema))
        columns = ", ".join(out_schema.column_names)
        self.executor.execute(
            f"INSERT INTO {op.out_name} SELECT {columns} FROM {op.left} "
            f"JOIN {op.right} ON ({', '.join(join)})"
        )
        self.executor.execute(f"DROP TABLE {op.left}")
        self.executor.execute(f"DROP TABLE {op.right}")
        if self.with_indexes:
            self._create_indexes(out_schema)

    def _create(self, op: CreateTable, new_schemas) -> None:
        self.executor.execute(render_create_table(op.schema))

    def _drop(self, op: DropTable, new_schemas) -> None:
        self.executor.execute(f"DROP TABLE {op.table}")

    def _rename(self, op: RenameTable, new_schemas) -> None:
        self.executor.execute(
            f"ALTER TABLE {op.table} RENAME TO {op.new_name}"
        )

    def _copy(self, op: CopyTable, new_schemas) -> None:
        self.executor.execute(render_create_table(new_schemas[op.new_name]))
        self.executor.execute(
            f"INSERT INTO {op.new_name} SELECT * FROM {op.table}"
        )
        if self.with_indexes:
            self._create_indexes(new_schemas[op.new_name])

    def _union(self, op: UnionTables, new_schemas) -> None:
        out_schema = new_schemas[op.out_name]
        temp_name = f"__union_{op.out_name}"
        self.executor.execute(
            render_create_table(out_schema.renamed(temp_name))
        )
        for source in (op.left, op.right):
            self.executor.execute(
                f"INSERT INTO {temp_name} SELECT * FROM {source}"
            )
        self.executor.execute(f"DROP TABLE {op.left}")
        if op.right != op.left:
            self.executor.execute(f"DROP TABLE {op.right}")
        self.executor.execute(
            f"ALTER TABLE {temp_name} RENAME TO {op.out_name}"
        )
        if self.with_indexes:
            self._create_indexes(out_schema)

    def _partition(self, op: PartitionTable, new_schemas) -> None:
        for out_name, where in (
            (op.true_name, str(op.predicate)),
            (op.false_name, f"NOT ({op.predicate})"),
        ):
            self.executor.execute(render_create_table(new_schemas[out_name]))
            self.executor.execute(
                f"INSERT INTO {out_name} SELECT * FROM {op.table} "
                f"WHERE {where}"
            )
        self.executor.execute(f"DROP TABLE {op.table}")
        if self.with_indexes:
            self._create_indexes(new_schemas[op.true_name])
            self._create_indexes(new_schemas[op.false_name])

    def _add_column(self, op: AddColumn, new_schemas) -> None:
        # Full scan + reload: literal SELECT items are outside the SQL
        # subset, so the driver stages the widened rows itself — the same
        # materialize-everything cost profile.
        schema = new_schemas[op.table]
        temp_name = f"__add_{op.table}"
        self.adapter.create_table(schema.renamed(temp_name))
        if op.values is not None:
            extras = list(op.values)
            rows = (
                row + (extras[index],)
                for index, row in enumerate(self._scan(op.table))
            )
        else:
            rows = (row + (op.default,) for row in self._scan(op.table))
        self.adapter.insert_rows(temp_name, rows)
        self.executor.execute(f"DROP TABLE {op.table}")
        self.executor.execute(
            f"ALTER TABLE {temp_name} RENAME TO {op.table}"
        )
        if self.with_indexes:
            self._create_indexes(schema)

    def _drop_column(self, op: DropColumn, new_schemas) -> None:
        schema = new_schemas[op.table]
        temp_name = f"__drop_{op.table}"
        self.executor.execute(render_create_table(schema.renamed(temp_name)))
        self.executor.execute(
            f"INSERT INTO {temp_name} SELECT "
            f"{', '.join(schema.column_names)} FROM {op.table}"
        )
        self.executor.execute(f"DROP TABLE {op.table}")
        self.executor.execute(
            f"ALTER TABLE {temp_name} RENAME TO {op.table}"
        )
        if self.with_indexes:
            self._create_indexes(schema)

    def _rename_column(self, op: RenameColumn, new_schemas) -> None:
        # Metadata-only in real systems; granted here to keep the
        # comparison conservative (Table 1 lists it as a no-data SMO).
        self.adapter.rename_column(op.table, op.column, op.new_name)
