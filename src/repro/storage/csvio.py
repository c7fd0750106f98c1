"""CSV import/export for column-store tables.

The demo workflow ("load data" in Figure 4) ingests CSV files.  Types
can be declared via a schema or inferred from the data.
"""

from __future__ import annotations

import csv
import re
from pathlib import Path

from repro.errors import StorageError
from repro.storage.schema import ColumnSchema, TableSchema
from repro.storage.table import Table
from repro.storage.types import DataType, parse_text, render_text

#: The statement tokenizer's identifier rule (``repro.smo.parser``).
_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


def infer_type(samples) -> DataType:
    """Infer the narrowest type that parses every non-empty sample."""
    non_empty = [s for s in samples if s != ""]
    if not non_empty:
        return DataType.STRING

    def all_parse(dtype: DataType) -> bool:
        for sample in non_empty:
            try:
                parse_text(sample, dtype)
            except Exception:
                return False
        return True

    for dtype in (DataType.INT, DataType.FLOAT, DataType.BOOL, DataType.DATE):
        if all_parse(dtype):
            return dtype
    return DataType.STRING


def load_csv(
    path,
    table_name: str | None = None,
    schema: TableSchema | None = None,
    primary_key=(),
) -> Table:
    """Load a CSV file (with header row) into a column-store table.

    If ``schema`` is given its column names must match the header; types
    are otherwise inferred from the full file contents.  The table is
    named ``table_name``, else the schema's name, else the file stem,
    which must then be an identifier a statement can name.
    """
    path = Path(path)
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise StorageError(f"{path}: empty CSV file") from None
        rows = list(reader)
    for index, row in enumerate(rows):
        if len(row) != len(header):
            raise StorageError(
                f"{path}: row {index + 2} has {len(row)} fields, "
                f"expected {len(header)}"
            )
    if table_name:
        name = table_name
    elif schema is not None:
        name = schema.name
    else:
        name = path.stem
        if not _IDENTIFIER.fullmatch(name):
            raise StorageError(
                f"{path}: file name {name!r} is not a table name a "
                "statement can use; name the table explicitly (demo: "
                "load <path> <name>)"
            )
    if schema is None:
        dtypes = [
            infer_type([row[i] for row in rows]) for i in range(len(header))
        ]
        schema = TableSchema(
            name,
            tuple(
                ColumnSchema(header[i], dtypes[i]) for i in range(len(header))
            ),
            tuple(primary_key),
        )
    else:
        if tuple(schema.column_names) != tuple(header):
            raise StorageError(
                f"{path}: header {header} does not match schema "
                f"{list(schema.column_names)}"
            )
        schema = schema.renamed(name)
    data = {
        column.name: [
            parse_text(row[index], column.dtype) for row in rows
        ]
        for index, column in enumerate(schema.columns)
    }
    return Table.from_columns(schema, data)


def save_csv(table: Table, path) -> None:
    """Write a table to CSV (header row + all rows, row order)."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(table.schema.column_names)
        for row in table.to_rows():
            writer.writerow([render_text(value) for value in row])
