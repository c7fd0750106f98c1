"""Binary on-disk format for column-store tables (``.cods`` files).

Layout (all integers little-endian):

    magic "CODS" | u16 format version | u32 schema JSON length | schema JSON
    u32 column count
    per column:
        u32 codec name length | codec name (always "wah")
        u32 dictionary JSON length | dictionary JSON (vid order)
        u32 bitmap count
        per bitmap: u32 byte length | WAH bitmap bytes

Bitmaps are stored in their *compressed* form byte-for-byte, so loading
a table never decompresses anything — matching the paper's premise that
data can move between disk and the evolution engine fully compressed.

Tables with a pending write buffer (:mod:`repro.delta`) persist that
state in a ``.delta`` sidecar next to the ``.cods`` file:

    magic "CODD" | u16 format version | u32 payload JSON length | JSON

The delta is uncompressed in memory, so it is stored uncompressed too:
the JSON carries the appended column vectors, the per-row insert
epochs, both epoch-tagged deletion maps and the epoch counter (an
``index`` object older writers added is ignored on load).  Version 3
adds the write-ahead-log
checkpoint fields: ``wal_lsn`` (the log position this sidecar
checkpoints) and ``main_file`` (the versioned main this sidecar
masks — the sidecar is the per-table atomic commit point of the
checkpoint protocol, see ``docs/wal-format.md``).  Versions 1 (no
epochs, deletion *sets*) and 2 are still readable.  All layouts are
specified field by field in ``docs/delta-format.md``.

Every file in this module is written atomically: to a temp file that is
fsynced and ``os.replace``\\ d into place, so a crash mid-save can never
leave a truncated or half-written table, sidecar or manifest behind.
"""

from __future__ import annotations

import datetime
import json
import os
import struct
from contextlib import contextmanager
from pathlib import Path

from repro.bitmap.batch import batch_validate
from repro.bitmap.wah import WAHBitmap
from repro.errors import (
    BitmapError,
    SchemaError,
    SerializationError,
    StorageError,
)
from repro.storage.column import BitmapColumn
from repro.storage.dictionary import Dictionary
from repro.storage.schema import ColumnSchema, TableSchema
from repro.storage.table import Table
from repro.storage.types import DataType, coerce

_MAGIC = b"CODS"
_VERSION = 1
_DELTA_MAGIC = b"CODD"
_DELTA_VERSION = 3
_CODEC = b"wah"


def delta_sidecar_path(path) -> Path:
    """The ``.delta`` sidecar belonging to a ``.cods`` table file."""
    path = Path(path)
    return path.with_name(path.name + ".delta")


@contextmanager
def _atomic_write(path, label: str):
    """Write-to-temp + fsync + ``os.replace``: the file at ``path`` is
    either its old content or the complete new one, never a torn
    in-between.  ``label`` names the crash points so the fault-injection
    harness can abort before the temp write and before the rename."""
    # Imported lazily: repro.wal's own modules import this one, so a
    # module-level import of the wal package here would be circular.
    from repro.wal.crashpoints import crash_point

    path = Path(path)
    temp = path.with_name(path.name + ".tmp")
    crash_point(f"{label}.temp")
    with temp.open("wb") as handle:
        yield handle
        handle.flush()
        os.fsync(handle.fileno())
    crash_point(f"{label}.replace")
    os.replace(temp, path)


def _encode_value(value):
    if isinstance(value, datetime.date):
        return {"__date__": value.isoformat()}
    return value


def _decode_value(value):
    if isinstance(value, dict) and "__date__" in value:
        return datetime.date.fromisoformat(value["__date__"])
    return value


def _schema_to_json(schema: TableSchema) -> dict:
    return {
        "name": schema.name,
        "columns": [
            {"name": c.name, "dtype": c.dtype.value, "nullable": c.nullable}
            for c in schema.columns
        ],
        "primary_key": list(schema.primary_key),
        "candidate_keys": [list(k) for k in schema.candidate_keys],
    }


def _schema_from_json(payload: dict) -> TableSchema:
    return TableSchema(
        payload["name"],
        tuple(
            ColumnSchema(c["name"], DataType(c["dtype"]), c["nullable"])
            for c in payload["columns"]
        ),
        tuple(payload["primary_key"]),
        tuple(tuple(k) for k in payload["candidate_keys"]),
    )


def _write_block(handle, data: bytes) -> None:
    handle.write(struct.pack("<I", len(data)))
    handle.write(data)


def _read_block(handle) -> bytes:
    header = handle.read(4)
    if len(header) != 4:
        raise SerializationError("truncated .cods file")
    (length,) = struct.unpack("<I", header)
    data = handle.read(length)
    if len(data) != length:
        raise SerializationError("truncated .cods file")
    return data


def save_table(table: Table, path) -> None:
    """Serialize a table (schema, dictionaries, compressed bitmaps);
    atomic via temp file + ``os.replace``."""
    path = Path(path)
    with _atomic_write(path, "save.table") as handle:
        handle.write(_MAGIC)
        handle.write(struct.pack("<HQ", _VERSION, table.nrows))
        _write_block(
            handle, json.dumps(_schema_to_json(table.schema)).encode()
        )
        handle.write(struct.pack("<I", len(table.schema.column_names)))
        for name in table.schema.column_names:
            column = table.column(name)
            _write_block(handle, _CODEC)
            dictionary_json = json.dumps(
                [_encode_value(v) for v in column.dictionary.values()]
            )
            _write_block(handle, dictionary_json.encode())
            handle.write(struct.pack("<I", column.distinct_count))
            for bitmap in column.bitmaps:
                _write_block(handle, bitmap.to_bytes())


def load_table(path) -> Table:
    """Inverse of :func:`save_table`; bitmaps stay compressed.

    Each column's words are checked in one pass
    (:func:`~repro.bitmap.batch.batch_validate`): a bitmap that does
    not describe exactly ``nrows`` bits raises
    :class:`SerializationError` naming the file and the column."""
    path = Path(path)
    with path.open("rb") as handle:
        if handle.read(4) != _MAGIC:
            raise SerializationError(f"{path}: not a .cods file")
        version, nrows = struct.unpack("<HQ", handle.read(10))
        if version != _VERSION:
            raise SerializationError(
                f"{path}: unsupported format version {version}"
            )
        schema = _schema_from_json(json.loads(_read_block(handle).decode()))
        (column_count,) = struct.unpack("<I", handle.read(4))
        if column_count != len(schema.columns):
            raise SerializationError(f"{path}: column count mismatch")
        columns = {}
        for column_schema in schema.columns:
            codec = _read_block(handle)
            if codec != _CODEC:
                raise SerializationError(
                    f"{path}: column {column_schema.name!r} has bitmap "
                    f"codec {codec!r}; only {_CODEC.decode()!r} is readable"
                )
            values = [
                _decode_value(v)
                for v in json.loads(_read_block(handle).decode())
            ]
            (bitmap_count,) = struct.unpack("<I", handle.read(4))
            if bitmap_count != len(values):
                raise SerializationError(
                    f"{path}: bitmap/dictionary mismatch in column "
                    f"{column_schema.name!r}"
                )
            try:
                bitmaps = [
                    WAHBitmap.from_bytes(_read_block(handle))
                    for _ in range(bitmap_count)
                ]
                batch_validate(bitmaps, nrows)
            except (BitmapError, SerializationError) as exc:
                raise SerializationError(
                    f"{path}: column {column_schema.name!r}: {exc}"
                ) from exc
            columns[column_schema.name] = BitmapColumn(
                column_schema.name,
                column_schema.dtype,
                Dictionary(values),
                bitmaps,
                nrows,
            )
    return Table(schema, columns, nrows)


def save_delta(store, path, wal_lsn=None, main_file=None) -> None:
    """Serialize a :class:`repro.delta.DeltaStore` (uncompressed);
    atomic via temp file + ``os.replace``.

    The payload carries the full MVCC state — per-row insert epochs,
    epoch-tagged deletion maps, the epoch counter (see
    ``docs/delta-format.md``).  The write-ahead-log
    checkpoint path passes ``wal_lsn`` (the log position this sidecar
    makes durable) and ``main_file`` (the versioned main file it
    masks); plain saves omit both."""
    path = Path(path)
    payload = {
        "table": store.schema.name,
        "epoch": store.epoch,
        "columns": {
            name: [_encode_value(v) for v in values]
            for name, values in store.columns.items()
        },
        "insert_epochs": list(store.insert_epochs),
        "deleted_main": sorted(
            [position, at] for position, at in store.deleted_main.items()
        ),
        "deleted_delta": sorted(
            [index, at] for index, at in store.deleted_delta.items()
        ),
    }
    if wal_lsn is not None:
        payload["wal_lsn"] = int(wal_lsn)
    if main_file is not None:
        payload["main_file"] = str(main_file)
    with _atomic_write(path, "save.delta") as handle:
        handle.write(_DELTA_MAGIC)
        handle.write(struct.pack("<H", _DELTA_VERSION))
        _write_block(handle, json.dumps(payload).encode())


def _delta_columns_from_payload(path, payload, schema):
    """Decode and validate the column vectors shared by both versions."""
    if set(payload["columns"]) != set(schema.column_names):
        raise SerializationError(
            f"{path}: delta columns {sorted(payload['columns'])} do not "
            f"match schema {list(schema.column_names)}"
        )
    columns = {
        name: [
            coerce(_decode_value(v), schema.column(name).dtype)
            for v in values
        ]
        for name, values in payload["columns"].items()
    }
    lengths = {len(values) for values in columns.values()}
    if len(lengths) > 1:
        raise SerializationError(f"{path}: ragged delta columns")
    return columns, (lengths.pop() if lengths else 0)


def _read_delta_payload(path) -> tuple[int, dict]:
    """A sidecar's (version, raw payload) — the schema-free peek the
    catalog-open path uses to resolve ``main_file``/``wal_lsn`` before
    any main table has been loaded."""
    path = Path(path)
    with path.open("rb") as handle:
        if handle.read(4) != _DELTA_MAGIC:
            raise SerializationError(f"{path}: not a .delta file")
        version_bytes = handle.read(2)
        if len(version_bytes) != 2:
            raise SerializationError(f"{path}: truncated .delta file")
        (version,) = struct.unpack("<H", version_bytes)
        if version not in (1, 2, _DELTA_VERSION):
            raise SerializationError(
                f"{path}: unsupported delta format version {version}"
            )
        try:
            payload = json.loads(_read_block(handle).decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise SerializationError(
                f"{path}: undecodable .delta payload: {exc}"
            ) from exc
    if not isinstance(payload, dict):
        raise SerializationError(
            f"{path}: .delta payload is not a JSON object"
        )
    return version, payload


def load_delta(path, schema: TableSchema):
    """Inverse of :func:`save_delta`; validated against ``schema``.

    Version-1 sidecars predate MVCC: their deletion *sets* become
    deletion maps with synthetic epochs (inserts at epoch 1, deletions
    at epoch 2).  The ``index`` object older writers stored is ignored.
    Any malformed payload raises :class:`SerializationError` naming the
    file."""
    from repro.delta.store import DeltaStore

    path = Path(path)
    version, payload = _read_delta_payload(path)
    try:
        state = _delta_state_from_payload(path, version, payload, schema)
    except (
        AttributeError, KeyError, TypeError, ValueError, SchemaError
    ) as exc:
        raise SerializationError(
            f"{path}: malformed .delta payload: {exc!r}"
        ) from exc
    try:
        return DeltaStore.restore(schema, *state)
    except StorageError as exc:
        raise SerializationError(f"{path}: {exc}") from exc


def _delta_state_from_payload(path, version, payload, schema):
    """``DeltaStore.restore``'s arguments after ``schema``, decoded
    from a sidecar payload of either format."""
    columns, n_appended = _delta_columns_from_payload(path, payload, schema)
    if version == 1:
        insert_epochs = [1] * n_appended
        deleted_main = {int(p): 2 for p in payload["deleted_main"]}
        deleted_delta = {int(i): 2 for i in payload["deleted_delta"]}
        epoch = 2 if (deleted_main or deleted_delta) else min(n_appended, 1)
    else:
        insert_epochs = [int(e) for e in payload["insert_epochs"]]
        deleted_main = {
            int(position): int(at) for position, at in payload["deleted_main"]
        }
        deleted_delta = {
            int(index): int(at) for index, at in payload["deleted_delta"]
        }
        epoch = int(payload["epoch"])
        if not isinstance(payload.get("index", {}), dict):
            raise SerializationError(f"{path}: `index` is not an object")
    for index in deleted_delta:
        if index < 0 or index >= n_appended:
            raise SerializationError(
                f"{path}: deleted delta index {index} out of range"
            )
    return columns, insert_epochs, deleted_main, deleted_delta, epoch


def _load_delta_for_table(sidecar, table):
    """Load a sidecar and validate it against the main it masks."""
    loaded = load_delta(sidecar, table.schema)
    out_of_range = [p for p in loaded.deleted_main if p >= table.nrows]
    if out_of_range:
        raise SerializationError(
            f"{sidecar}: deleted positions {out_of_range} beyond the "
            f"main store's {table.nrows} rows"
        )
    return loaded


def save_mutable_table(mutable, path) -> None:
    """Persist a :class:`repro.delta.MutableTable`: the compressed main
    as a ``.cods`` file plus (when non-empty) the delta sidecar.  A
    stale sidecar from an earlier save is removed."""
    path = Path(path)
    save_table(mutable.main, path)
    sidecar = delta_sidecar_path(path)
    if mutable.has_pending_changes:
        save_delta(mutable.delta, sidecar)
    elif sidecar.exists():
        sidecar.unlink()


def _resolve_main_path(path) -> tuple[Path, Path]:
    """The (main file, sidecar) pair for the table addressed by the
    canonical ``.cods`` path.  A v3 sidecar may point at a *versioned*
    main file (the WAL checkpoint protocol writes a fresh main under a
    new name, then atomically republishes the sidecar to point at it —
    so a crash between the two writes leaves the old, still-consistent
    pair)."""
    path = Path(path)
    sidecar = delta_sidecar_path(path)
    if sidecar.exists():
        version, payload = _read_delta_payload(sidecar)
        main_file = payload.get("main_file")
        if version >= 3 and main_file is not None:
            return path.with_name(main_file), sidecar
    return path, sidecar


def load_mutable_table(path, policy=None):
    """Inverse of :func:`save_mutable_table`: restores the write buffer
    from the sidecar when present (following the sidecar's
    ``main_file`` pointer when it names a versioned main)."""
    from repro.delta.mutable import MutableTable

    main_path, sidecar = _resolve_main_path(path)
    table = load_table(main_path)
    mutable = MutableTable(table, policy)
    if sidecar.exists():
        mutable.restore_delta(_load_delta_for_table(sidecar, table))
    return mutable


def save_manifest(catalog, directory) -> None:
    """Atomically (re)write ``catalog.json`` for the current table set."""
    manifest = {"tables": catalog.table_names(), "version": catalog.version}
    with _atomic_write(Path(directory) / "catalog.json", "save.manifest") as f:
        f.write(json.dumps(manifest).encode())


def save_catalog(catalog, directory) -> None:
    """Save every table of a catalog into ``directory`` as .cods files.

    Tables first, manifest last: the manifest names only files that are
    already complete on disk, so a crash mid-save leaves the previous
    catalog loadable."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name in catalog.table_names():
        save_table(catalog.table(name), directory / f"{name}.cods")
    save_manifest(catalog, directory)


def load_catalog(directory):
    """Inverse of :func:`save_catalog`."""
    from repro.storage.catalog import Catalog

    directory = Path(directory)
    manifest_path = directory / "catalog.json"
    if not manifest_path.exists():
        raise SerializationError(f"{directory}: no catalog.json")
    manifest = json.loads(manifest_path.read_text())
    catalog = Catalog()
    for name in manifest["tables"]:
        catalog.put(load_table(directory / f"{name}.cods"), f"LOAD {name}")
    return catalog


def save_engine(engine, directory) -> None:
    """Save an evolution engine's catalog plus, for every table with
    unflushed writes, its delta sidecar."""
    directory = Path(directory)
    save_catalog(engine.catalog, directory)
    for name in engine.catalog.table_names():
        sidecar = delta_sidecar_path(directory / f"{name}.cods")
        pending = engine.pending_delta(name)
        if pending is not None:
            save_delta(pending.delta, sidecar)
        elif sidecar.exists():
            sidecar.unlink()


def load_engine(directory, policy=None):
    """Inverse of :func:`save_engine`: a fresh
    :class:`~repro.core.engine.EvolutionEngine` with the write buffers
    re-attached.  Each table's main file is resolved through its
    sidecar's ``main_file`` pointer when present (WAL checkpoints), the
    canonical ``{name}.cods`` otherwise."""
    from repro.core.engine import EvolutionEngine
    from repro.storage.catalog import Catalog

    directory = Path(directory)
    manifest_path = directory / "catalog.json"
    if not manifest_path.exists():
        raise SerializationError(f"{directory}: no catalog.json")
    manifest = json.loads(manifest_path.read_text())
    catalog = Catalog()
    sidecars: dict[str, Path] = {}
    for name in manifest["tables"]:
        main_path, sidecar = _resolve_main_path(directory / f"{name}.cods")
        catalog.put(load_table(main_path), f"LOAD {name}")
        if sidecar.exists():
            sidecars[name] = sidecar
    engine = EvolutionEngine(catalog)
    for name, sidecar in sidecars.items():
        table = engine.catalog.table(name)
        engine.mutable(name, policy).restore_delta(
            _load_delta_for_table(sidecar, table)
        )
    return engine
