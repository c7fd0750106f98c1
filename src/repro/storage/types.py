"""Data types for the column store.

The CODS storage model encodes every column as a set of per-value
bitmaps, so values only need to be hashable, orderable and serializable.
We support the types the paper's examples use (strings and numbers) plus
booleans and dates for the warehouse workloads.
"""

from __future__ import annotations

import datetime
from enum import Enum

from repro.errors import SchemaError


class DataType(Enum):
    """Logical column types."""

    INT = "INT"
    FLOAT = "FLOAT"
    STRING = "STRING"
    BOOL = "BOOL"
    DATE = "DATE"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


def coerce(value, dtype: DataType):
    """Coerce ``value`` to the Python representation of ``dtype``.

    ``None`` passes through (NULL).  Raises :class:`SchemaError` on
    values that cannot be represented.
    """
    if value is None:
        return None
    try:
        if dtype is DataType.INT:
            if isinstance(value, bool):
                return int(value)
            if isinstance(value, float) and not value.is_integer():
                raise ValueError(f"non-integral float {value!r}")
            return int(value)
        if dtype is DataType.FLOAT:
            return float(value)
        if dtype is DataType.STRING:
            return value if isinstance(value, str) else str(value)
        if dtype is DataType.BOOL:
            if isinstance(value, str):
                lowered = value.strip().lower()
                if lowered in ("true", "t", "1", "yes"):
                    return True
                if lowered in ("false", "f", "0", "no"):
                    return False
                raise ValueError(f"not a boolean: {value!r}")
            return bool(value)
        if dtype is DataType.DATE:
            if isinstance(value, datetime.date):
                return value
            return datetime.date.fromisoformat(str(value))
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"cannot coerce {value!r} to {dtype}") from exc
    raise SchemaError(f"unknown data type {dtype!r}")  # pragma: no cover


def encode_value(value):
    """One value as JSON-ready data: a date becomes ``{"__date__":
    iso}``, anything else passes through.  The one value codec of
    ``.cods`` dictionaries and delta sidecars, WAL records and the
    wire protocol's rows."""
    if isinstance(value, datetime.date):
        return {"__date__": value.isoformat()}
    return value


def decode_value(value):
    """Inverse of :func:`encode_value`."""
    if isinstance(value, dict) and "__date__" in value:
        return datetime.date.fromisoformat(value["__date__"])
    return value


def parse_text(text: str, dtype: DataType):
    """Parse a CSV cell into a value of ``dtype`` (empty string = NULL)."""
    if text == "":
        return None
    return coerce(text, dtype)


def render_text(value) -> str:
    """Render a value for CSV output (NULL becomes the empty string)."""
    if value is None:
        return ""
    if isinstance(value, datetime.date):
        return value.isoformat()
    return str(value)


def parse_type_name(name: str) -> DataType:
    """Parse a SQL-ish type name (``INT``, ``VARCHAR``, ``TEXT``, …)."""
    upper = name.strip().upper()
    aliases = {
        "INT": DataType.INT,
        "INTEGER": DataType.INT,
        "BIGINT": DataType.INT,
        "SMALLINT": DataType.INT,
        "FLOAT": DataType.FLOAT,
        "REAL": DataType.FLOAT,
        "DOUBLE": DataType.FLOAT,
        "DECIMAL": DataType.FLOAT,
        "NUMERIC": DataType.FLOAT,
        "STRING": DataType.STRING,
        "TEXT": DataType.STRING,
        "VARCHAR": DataType.STRING,
        "CHAR": DataType.STRING,
        "BOOL": DataType.BOOL,
        "BOOLEAN": DataType.BOOL,
        "DATE": DataType.DATE,
    }
    base = upper.split("(")[0].strip()
    if base not in aliases:
        raise SchemaError(f"unknown type name {name!r}")
    return aliases[base]
