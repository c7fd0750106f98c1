"""Row-oriented heap tables.

The "commercial RDBMS" baseline stores tuples row by row: every access
touches whole rows, which is precisely the cost model the paper argues
column stores escape during data evolution.
"""

from __future__ import annotations

from repro.errors import SchemaError
from repro.rowstore.btree import BPlusTree
from repro.storage.schema import TableSchema


class HeapTable:
    """A schema plus a list of row tuples plus optional indexes."""

    def __init__(self, schema: TableSchema):
        self.schema = schema
        self.rows: list[tuple] = []
        self.indexes: dict[str, BPlusTree] = {}

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def column_index(self, name: str) -> int:
        return self.schema.index_of(name)

    # -- mutation -----------------------------------------------------------

    def insert(self, row) -> None:
        """Insert one row (coerced to schema types), maintaining indexes."""
        coerced = self.schema.coerce_row(row)
        row_id = len(self.rows)
        self.rows.append(coerced)
        for column_name, tree in self.indexes.items():
            tree.insert(coerced[self.column_index(column_name)], row_id)

    def insert_many(self, rows) -> int:
        count = 0
        for row in rows:
            self.insert(row)
            count += 1
        return count

    # -- indexes ----------------------------------------------------------

    def create_index(self, column_name: str) -> BPlusTree:
        """Build a B+-tree index on one column (bulk load)."""
        if not self.schema.has_column(column_name):
            raise SchemaError(
                f"no column {column_name!r} in table {self.schema.name!r}"
            )
        position = self.column_index(column_name)
        tree = BPlusTree.bulk_load(
            (row[position], row_id) for row_id, row in enumerate(self.rows)
        )
        self.indexes[column_name] = tree
        return tree

    # -- access ----------------------------------------------------------

    def scan(self):
        """Full scan: yields every row tuple."""
        return iter(self.rows)

    def lookup(self, column_name: str, value) -> list[tuple]:
        """Index lookup if available, else a filtered scan."""
        position = self.column_index(column_name)
        tree = self.indexes.get(column_name)
        if tree is not None:
            return [self.rows[row_id] for row_id in tree.search(value)]
        return [row for row in self.rows if row[position] == value]

    def __repr__(self) -> str:
        return (
            f"HeapTable({self.schema.name!r}, rows={len(self.rows)}, "
            f"indexes={sorted(self.indexes)})"
        )
