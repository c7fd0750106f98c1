"""Column-oriented storage: schemas, bitmap columns, tables, catalog, IO."""

from repro.storage.catalog import Catalog
from repro.storage.column import BitmapColumn
from repro.storage.csvio import infer_type, load_csv, save_csv
from repro.storage.dictionary import Dictionary
from repro.storage.filefmt import (
    delta_sidecar_path,
    load_delta,
    load_engine,
    load_table,
    save_delta,
    save_engine,
    save_table,
)
from repro.storage.schema import ColumnSchema, TableSchema
from repro.storage.statistics import TableStats, table_statistics
from repro.storage.table import Table, table_from_python
from repro.storage.verify import (
    VerificationReport,
    verify_catalog,
    verify_column,
    verify_table,
)
from repro.storage.types import (
    DataType,
    coerce,
    parse_text,
    parse_type_name,
    render_text,
)

__all__ = [
    "BitmapColumn",
    "Catalog",
    "ColumnSchema",
    "DataType",
    "Dictionary",
    "Table",
    "TableSchema",
    "TableStats",
    "VerificationReport",
    "verify_catalog",
    "verify_column",
    "verify_table",
    "coerce",
    "delta_sidecar_path",
    "infer_type",
    "load_csv",
    "load_delta",
    "load_engine",
    "load_table",
    "parse_text",
    "parse_type_name",
    "render_text",
    "save_csv",
    "save_delta",
    "save_engine",
    "save_table",
    "table_from_python",
    "table_statistics",
]
