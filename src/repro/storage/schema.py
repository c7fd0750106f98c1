"""Table schemas: ordered columns plus key metadata.

Key metadata matters to CODS: the decomposition algorithm needs to know
which side of a lossless-join decomposition carries the key of the
common attributes (paper Section 2.4), and the key-foreign-key mergence
(Section 2.5.1) requires the join attributes to be a key of one input.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SchemaError, StorageError
from repro.storage.types import DataType, coerce


@dataclass(frozen=True)
class ColumnSchema:
    """One column: a name and a logical type."""

    name: str
    dtype: DataType
    nullable: bool = True

    def __post_init__(self):
        if not self.name or not self.name.replace("_", "").isalnum():
            raise SchemaError(f"invalid column name {self.name!r}")

    def renamed(self, new_name: str) -> "ColumnSchema":
        return ColumnSchema(new_name, self.dtype, self.nullable)


@dataclass(frozen=True)
class TableSchema:
    """An ordered set of columns with optional key declarations.

    ``primary_key`` is a tuple of column names (possibly composite).
    ``candidate_keys`` may list further keys; they feed the lossless-join
    validation of DECOMPOSE and the reusable-side detection of MERGE.
    """

    name: str
    columns: tuple[ColumnSchema, ...]
    primary_key: tuple[str, ...] = ()
    candidate_keys: tuple[tuple[str, ...], ...] = field(default_factory=tuple)

    def __post_init__(self):
        if not self.name:
            raise SchemaError("table name must be non-empty")
        names = [column.name for column in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names in table {self.name!r}")
        for key in (self.primary_key, *self.candidate_keys):
            for attr in key:
                if attr not in names:
                    raise SchemaError(
                        f"key column {attr!r} not in table {self.name!r}"
                    )

    # -- lookups ----------------------------------------------------------

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(column.name for column in self.columns)

    @property
    def attribute_set(self) -> frozenset[str]:
        return frozenset(self.column_names)

    def has_column(self, name: str) -> bool:
        return any(column.name == name for column in self.columns)

    def column(self, name: str) -> ColumnSchema:
        for column in self.columns:
            if column.name == name:
                return column
        raise SchemaError(f"no column {name!r} in table {self.name!r}")

    def index_of(self, name: str) -> int:
        for index, column in enumerate(self.columns):
            if column.name == name:
                return index
        raise SchemaError(f"no column {name!r} in table {self.name!r}")

    def all_keys(self) -> tuple[tuple[str, ...], ...]:
        """Primary key first, then candidate keys (deduplicated)."""
        keys: list[tuple[str, ...]] = []
        if self.primary_key:
            keys.append(self.primary_key)
        for key in self.candidate_keys:
            if key not in keys:
                keys.append(key)
        return tuple(keys)

    def is_key(self, attrs) -> bool:
        """True if ``attrs`` is a superset of any declared key."""
        attrs = frozenset(attrs)
        return any(attrs >= frozenset(key) for key in self.all_keys())

    # -- coercion ---------------------------------------------------------

    def coerce_row(self, row) -> tuple:
        """``row`` (schema column order) with every value coerced to
        its column's type; a wrong arity raises :class:`StorageError`."""
        row = tuple(row)
        if len(row) != len(self.columns):
            raise StorageError(
                f"row arity {len(row)} != {len(self.columns)} for "
                f"table {self.name!r}"
            )
        return tuple(
            coerce(value, column.dtype)
            for value, column in zip(row, self.columns)
        )

    def coerce_assignments(self, assignments) -> dict:
        """An UPDATE's ``{column: value}`` (a mapping or pairs) coerced
        to the columns' types; unknown columns raise before coercion."""
        pairs = dict(assignments).items()
        columns = [self.column(name) for name, _value in pairs]
        return {
            column.name: coerce(value, column.dtype)
            for column, (_name, value) in zip(columns, pairs)
        }

    # -- derivations ------------------------------------------------------

    def renamed(self, new_name: str) -> "TableSchema":
        return TableSchema(
            new_name, self.columns, self.primary_key, self.candidate_keys
        )

    def with_column(self, column: ColumnSchema) -> "TableSchema":
        if self.has_column(column.name):
            raise SchemaError(
                f"column {column.name!r} already exists in {self.name!r}"
            )
        return TableSchema(
            self.name,
            self.columns + (column,),
            self.primary_key,
            self.candidate_keys,
        )

    def without_column(self, name: str) -> "TableSchema":
        self.column(name)  # raises if missing
        if name in self.primary_key:
            raise SchemaError(
                f"cannot drop key column {name!r} of table {self.name!r}"
            )
        keys = tuple(k for k in self.candidate_keys if name not in k)
        return TableSchema(
            self.name,
            tuple(c for c in self.columns if c.name != name),
            self.primary_key,
            keys,
        )

    def with_renamed_column(self, old: str, new: str) -> "TableSchema":
        self.column(old)  # raises if missing
        if self.has_column(new):
            raise SchemaError(f"column {new!r} already exists in {self.name!r}")

        def fix(key: tuple[str, ...]) -> tuple[str, ...]:
            return tuple(new if attr == old else attr for attr in key)

        return TableSchema(
            self.name,
            tuple(c.renamed(new) if c.name == old else c for c in self.columns),
            fix(self.primary_key),
            tuple(fix(k) for k in self.candidate_keys),
        )

    def project(self, attrs, new_name: str, primary_key=()) -> "TableSchema":
        """Schema of a projection onto ``attrs`` (order preserved)."""
        attrs = list(attrs)
        missing = [a for a in attrs if not self.has_column(a)]
        if missing:
            raise SchemaError(
                f"columns {missing} not in table {self.name!r}"
            )
        columns = tuple(self.column(a) for a in attrs)
        keys = tuple(
            key
            for key in self.candidate_keys
            if all(attr in attrs for attr in key)
        )
        return TableSchema(new_name, columns, tuple(primary_key), keys)

    def compatible_with(self, other: "TableSchema") -> bool:
        """Same column names and types in the same order (for UNION)."""
        return self.column_names == other.column_names and all(
            a.dtype == b.dtype for a, b in zip(self.columns, other.columns)
        )
