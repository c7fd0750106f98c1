"""Column-store tables.

A :class:`Table` is a schema plus one :class:`BitmapColumn` per
attribute.  Row-level accessors exist (the demo UI and the query-level
baseline need them) but are explicit, separate entry points — the
data-level evolution algorithms never materialize rows.
"""

from __future__ import annotations

from repro.errors import SchemaError, StorageError
from repro.storage.column import BitmapColumn
from repro.storage.schema import ColumnSchema, TableSchema


def canonical_sort_key(row) -> tuple:
    """Total order over heterogeneous row tuples: NULLs first, then by
    value type, then by value.  Shared by every ``sorted_rows``
    implementation so multiset comparisons agree across table kinds."""
    return tuple(
        (value is not None, str(type(value)), value) for value in row
    )


class Table:
    """An immutable-by-convention column-store table."""

    # __weakref__ lets read-path caches key decoded rows by generation
    # (repro.delta.snapshot) without pinning the table alive.
    __slots__ = ("schema", "_columns", "_nrows", "__weakref__")

    def __init__(self, schema: TableSchema, columns: dict, nrows: int):
        self.schema = schema
        self._columns = columns
        self._nrows = int(nrows)
        if set(columns) != set(schema.column_names):
            raise SchemaError(
                f"table {schema.name!r}: columns {sorted(columns)} do not "
                f"match schema {list(schema.column_names)}"
            )
        for name, column in columns.items():
            if column.nrows != nrows:
                raise StorageError(
                    f"column {name!r} has {column.nrows} rows; table "
                    f"{schema.name!r} has {nrows}"
                )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_columns(cls, schema: TableSchema, data: dict) -> "Table":
        """Build from ``{column_name: row-ordered values}``."""
        lengths = {len(values) for values in data.values()}
        if len(lengths) > 1:
            raise StorageError(f"ragged columns: lengths {sorted(lengths)}")
        nrows = lengths.pop() if lengths else 0
        columns = {}
        for column_schema in schema.columns:
            if column_schema.name not in data:
                raise SchemaError(
                    f"missing data for column {column_schema.name!r}"
                )
            columns[column_schema.name] = BitmapColumn.from_values(
                column_schema.name,
                column_schema.dtype,
                data[column_schema.name],
            )
        return cls(schema, columns, nrows)

    @classmethod
    def from_rows(cls, schema: TableSchema, rows) -> "Table":
        """Build from an iterable of row tuples (schema column order)."""
        rows = list(rows)
        names = schema.column_names
        data = {
            name: [row[index] for row in rows]
            for index, name in enumerate(names)
        }
        return cls.from_columns(schema, data)

    @classmethod
    def empty(cls, schema: TableSchema) -> "Table":
        return cls.from_columns(schema, {n: [] for n in schema.column_names})

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def nrows(self) -> int:
        return self._nrows

    @property
    def column_names(self) -> tuple[str, ...]:
        return self.schema.column_names

    def column(self, name: str) -> BitmapColumn:
        try:
            return self._columns[name]
        except KeyError:
            raise SchemaError(
                f"no column {name!r} in table {self.schema.name!r}"
            ) from None

    def columns(self) -> list[BitmapColumn]:
        """Columns in schema order."""
        return [self._columns[name] for name in self.schema.column_names]

    # ------------------------------------------------------------------
    # Row materialization (the expensive path, used by baselines/demo)
    # ------------------------------------------------------------------

    def to_rows(self) -> list[tuple]:
        """Materialize all rows in row order — the "merge into tuples"
        stage of query-level evolution (Figure 2, right side)."""
        if self._nrows == 0:
            return []
        value_lists = [
            self._columns[name].to_values() for name in self.schema.column_names
        ]
        return list(zip(*value_lists))

    def iter_rows(self):
        """Iterate rows without holding more than the decoded columns."""
        return iter(self.to_rows())

    def head(self, limit: int = 10) -> list[tuple]:
        """First ``limit`` rows (for display)."""
        return self.to_rows()[:limit]

    # ------------------------------------------------------------------
    # Structural operations
    # ------------------------------------------------------------------

    def renamed(self, new_name: str) -> "Table":
        """Same data under a new table name (shares columns)."""
        return Table(self.schema.renamed(new_name), self._columns, self._nrows)

    def project(self, attrs, new_name: str, primary_key=()) -> "Table":
        """Projection onto ``attrs`` without duplicate elimination.

        Columns are *shared*, not copied — this is Property 1 of the
        paper at work: the unchanged output table of a decomposition is
        just a projection view over existing compressed columns.
        """
        schema = self.schema.project(attrs, new_name, primary_key)
        columns = {name: self._columns[name] for name in schema.column_names}
        return Table(schema, columns, self._nrows)

    def with_column(self, column_schema: ColumnSchema,
                    column: BitmapColumn) -> "Table":
        if column.nrows != self._nrows:
            raise StorageError(
                f"new column {column_schema.name!r} has {column.nrows} rows; "
                f"table has {self._nrows}"
            )
        schema = self.schema.with_column(column_schema)
        columns = dict(self._columns)
        columns[column_schema.name] = column
        return Table(schema, columns, self._nrows)

    def without_column(self, name: str) -> "Table":
        schema = self.schema.without_column(name)
        columns = {n: c for n, c in self._columns.items() if n != name}
        return Table(schema, columns, self._nrows)

    def with_renamed_column(self, old: str, new: str) -> "Table":
        schema = self.schema.with_renamed_column(old, new)
        columns = {}
        for n, c in self._columns.items():
            if n == old:
                columns[new] = c.renamed(new)
            else:
                columns[n] = c
        return Table(schema, columns, self._nrows)

    def concat(self, other: "Table", new_name: str | None = None) -> "Table":
        """UNION ALL of two union-compatible tables."""
        if not self.schema.compatible_with(other.schema):
            raise SchemaError(
                f"tables {self.name!r} and {other.name!r} are not "
                "union-compatible"
            )
        name = new_name or self.schema.name
        columns = {
            column_name: self._columns[column_name].concat(
                other._columns[column_name]
            )
            for column_name in self.schema.column_names
        }
        return Table(
            self.schema.renamed(name), columns, self._nrows + other._nrows
        )

    # ------------------------------------------------------------------
    # Comparison helpers (tests, verification)
    # ------------------------------------------------------------------

    def sorted_rows(self) -> list[tuple]:
        """All rows sorted canonically (None sorts first)."""
        return sorted(self.to_rows(), key=canonical_sort_key)

    def same_content(self, other: "Table", ordered: bool = False) -> bool:
        """Logical equality: same schema shape and same multiset of rows
        (or same sequence when ``ordered``)."""
        if self.schema.column_names != other.schema.column_names:
            return False
        if self._nrows != other._nrows:
            return False
        if ordered:
            return self.to_rows() == other.to_rows()
        return self.sorted_rows() == other.sorted_rows()

    def __repr__(self) -> str:
        return (
            f"Table({self.schema.name!r}, rows={self._nrows}, "
            f"columns={list(self.schema.column_names)})"
        )


def table_from_python(name: str, spec: dict, primary_key=(),
                      candidate_keys=()) -> Table:
    """Convenience constructor: ``spec`` maps column name to
    ``(DataType, values)``; used heavily by tests and examples."""
    columns = tuple(
        ColumnSchema(cname, dtype) for cname, (dtype, _values) in spec.items()
    )
    schema = TableSchema(
        name, columns, tuple(primary_key), tuple(candidate_keys)
    )
    data = {cname: values for cname, (_dtype, values) in spec.items()}
    return Table.from_columns(schema, data)
