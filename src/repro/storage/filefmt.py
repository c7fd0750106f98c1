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
A column's blocks are written from and read into its packed word
buffer in one vectorized pass each
(:meth:`~repro.bitmap.batch.PackedBitmaps.to_blocks` /
:meth:`~repro.bitmap.batch.PackedBitmaps.from_blocks`).

Every saved table's write buffer (:mod:`repro.delta`), empty or not,
persists in a ``.delta`` sidecar next to the ``.cods`` file:

    magic "CODD" | u16 format version | u32 payload JSON length | JSON

The delta is uncompressed in memory, so it is stored uncompressed too:
the JSON carries the appended column vectors, the per-row insert
epochs, both epoch-tagged deletion maps and the epoch counter (an
``index`` object older writers added is ignored on load).  Version 3
adds ``main_file`` (the versioned main this sidecar masks — the sidecar
is the per-table atomic commit point of :func:`save_engine`) and, for a
database with a write-ahead log, ``wal_lsn`` (the log position this
sidecar checkpoints; see ``docs/wal-format.md``).  Versions 1 (no
epochs, deletion *sets*) and 2 are still readable.  All layouts are
specified field by field in ``docs/delta-format.md``.

Every file in this module is written atomically: to a temp file that is
fsynced and ``os.replace``\\ d into place, so a crash mid-save can never
leave a truncated or half-written table, sidecar or manifest behind.
A catalog directory has one writer, :func:`save_engine`, and one
reader, :func:`load_engine`.
"""

from __future__ import annotations

import io
import json
import os
import re
import struct
from contextlib import ExitStack, contextmanager
from pathlib import Path

from repro.bitmap.batch import PackedBitmaps, batch_validate
from repro.errors import (
    BitmapError,
    SchemaError,
    SerializationError,
    StorageError,
)
from repro.storage.column import BitmapColumn
from repro.storage.csvio import IDENTIFIER
from repro.storage.dictionary import Dictionary
from repro.storage.schema import ColumnSchema, TableSchema
from repro.storage.table import Table
from repro.storage.types import DataType, coerce, decode_value, encode_value

_MAGIC = b"CODS"
_VERSION = 1
_DELTA_MAGIC = b"CODD"
_DELTA_VERSION = 3
_CODEC = b"wah"
_VERSIONED = re.compile(r"^(?P<table>.+)\.g(?P<gen>\d+)\.cods$")


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
                [encode_value(v) for v in column.dictionary.values()]
            )
            _write_block(handle, dictionary_json.encode())
            handle.write(struct.pack("<I", column.distinct_count))
            handle.write(column.bitmaps.to_blocks())


def load_table(path) -> Table:
    """Inverse of :func:`save_table`; bitmaps stay compressed.

    Each column's words are checked in one pass
    (:func:`~repro.bitmap.batch.batch_validate`): a bitmap that does
    not describe exactly ``nrows`` bits raises
    :class:`SerializationError` naming the file and the column."""
    path = Path(path)
    data = path.read_bytes()
    with io.BytesIO(data) as handle:
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
                decode_value(v)
                for v in json.loads(_read_block(handle).decode())
            ]
            (bitmap_count,) = struct.unpack("<I", handle.read(4))
            if bitmap_count != len(values):
                raise SerializationError(
                    f"{path}: bitmap/dictionary mismatch in column "
                    f"{column_schema.name!r}"
                )
            try:
                bitmaps, end = PackedBitmaps.from_blocks(
                    data, handle.tell(), bitmap_count, nrows
                )
                handle.seek(end)
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
    ``docs/delta-format.md``).  :func:`save_engine` passes ``main_file``
    (the versioned main file it masks) and, with a log, ``wal_lsn``
    (the log position this sidecar makes durable)."""
    path = Path(path)
    payload = {
        "table": store.schema.name,
        "epoch": store.epoch,
        "columns": {
            name: [encode_value(v) for v in values]
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
            coerce(decode_value(v), schema.column(name).dtype)
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


def _resolve_main_path(path) -> tuple[Path, Path]:
    """The (main file, sidecar) pair for the table addressed by the
    canonical ``.cods`` path.  A v3 sidecar may point at a *versioned*
    main file (:func:`save_engine` writes a fresh main under a new
    name, then atomically republishes the sidecar to point at it — so
    a crash between the two writes leaves the old, still-consistent
    pair).  Only a name :func:`_next_main_file` writes for this table
    is accepted; anything else raises :class:`SerializationError`."""
    path = Path(path)
    sidecar = delta_sidecar_path(path)
    if sidecar.exists():
        version, payload = _read_delta_payload(sidecar)
        main_file = payload.get("main_file")
        if version >= 3 and main_file is not None:
            match = _VERSIONED.fullmatch(str(main_file))
            if match is None or match.group("table") != path.stem:
                raise SerializationError(
                    f"{sidecar}: main_file {main_file!r} is not a main "
                    f"file of table {path.stem!r}"
                )
            return path.with_name(main_file), sidecar
    return path, sidecar


def _next_main_file(sidecar: Path, table: str) -> str:
    """``{table}.g{k}.cods``, ``k`` one past the generation the current
    sidecar points at (0 for a fresh or canonical table) — parsed from
    the file name so the counter stays monotonic across sessions."""
    generation = 0
    if sidecar.exists():
        _, payload = _read_delta_payload(sidecar)
        match = _VERSIONED.match(payload.get("main_file") or "")
        if match is not None and match.group("table") == table:
            generation = int(match.group("gen")) + 1
    return f"{table}.g{generation}.cods"


def save_engine(engine, directory, wal=None):
    """Publish ``engine``'s catalog into ``directory``: the one writer
    of catalog directories, for saves and checkpoints alike.

    It runs with every table's writer lock held (taken in sorted-name
    order, after the caller's commit lock), so no DML, fold or
    compaction step can land between two of its writes.  Each step
    leaves the directory loadable:

    1. flush the log, when ``wal`` is given;
    2. per table, write a fresh *versioned* main ``{name}.g{k}.cods``,
       then atomically republish the ``{name}.cods.delta`` sidecar
       naming it (``main_file``) and, with a log, the flushed position
       (``wal_lsn``).  The sidecar replace is the table's commit point:
       until it lands, loaders follow the old sidecar to the old main,
       so a crash can never pair a new main with an old mask;
    3. rewrite ``catalog.json`` (the table-*set* commit point), listing
       the tables step 2 wrote;
    4. truncate the log, when ``wal`` is given;
    5. delete superseded mains, dropped tables' files and temp files
       (orphans of a crash here are swept by the next save).

    Every table gets a sidecar, even with an empty buffer: it carries
    the epoch counter and, under a log, the position recovery replays
    from (``docs/wal-format.md``).  Returns the checkpointed log
    position, or None without a log."""
    # Imported lazily for the reason given in _atomic_write.
    from repro.wal.crashpoints import crash_point

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    # A table created meanwhile has no files here yet: it waits for
    # the next save.
    names = engine.catalog.table_names()
    manifest = {"tables": names}
    mutables = {name: engine.mutable(name) for name in names}
    with ExitStack() as stack:
        for name in names:
            stack.enter_context(mutables[name]._lock)
        crash_point("checkpoint.begin")
        wal_lsn = None
        if wal is not None:
            wal.flush()
            wal_lsn = wal.durable_lsn
        referenced = set()
        for name in names:
            mutable = mutables[name]
            sidecar = delta_sidecar_path(directory / f"{name}.cods")
            main_file = _next_main_file(sidecar, name)
            crash_point("checkpoint.table")
            save_table(mutable.main, directory / main_file)
            save_delta(
                mutable.delta, sidecar, wal_lsn=wal_lsn, main_file=main_file
            )
            referenced.update((main_file, sidecar.name))
        with _atomic_write(directory / "catalog.json", "save.manifest") as f:
            f.write(json.dumps(manifest).encode())
        if wal is not None:
            crash_point("checkpoint.truncate")
            wal.truncate_all()
        crash_point("checkpoint.cleanup")
        for path in directory.iterdir():
            if path.name not in referenced and path.name.endswith(
                (".cods", ".cods.delta", ".tmp")
            ):
                path.unlink()
    if wal is not None:
        wal.metrics.counter("wal.checkpoints").inc()
        wal.metrics.gauge("wal.checkpoint_lsn").set(wal_lsn)
    return wal_lsn


def _manifest_tables(path: Path) -> list[str]:
    """The table names ``catalog.json`` lists, each an identifier, so
    every file they address stays inside the catalog directory."""
    try:
        manifest = json.loads(path.read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SerializationError(
            f"{path}: undecodable manifest: {exc}"
        ) from exc
    names = manifest.get("tables") if isinstance(manifest, dict) else None
    if not isinstance(names, list) or not all(
        isinstance(name, str) and IDENTIFIER.fullmatch(name) for name in names
    ):
        raise SerializationError(
            f"{path}: \"tables\" must be a list of table names"
        )
    return names


def load_engine(directory, policy=None):
    """Inverse of :func:`save_engine`: a fresh
    :class:`~repro.core.engine.EvolutionEngine` with the write buffers
    re-attached.  Each table's main file is resolved through its
    sidecar's ``main_file`` pointer when present, the canonical
    ``{name}.cods`` otherwise (directories written before every save
    versioned its mains: with or without a plain sidecar)."""
    from repro.core.engine import EvolutionEngine
    from repro.storage.catalog import Catalog

    directory = Path(directory)
    manifest_path = directory / "catalog.json"
    if not manifest_path.exists():
        raise SerializationError(f"{directory}: no catalog.json")
    catalog = Catalog()
    sidecars: dict[str, Path] = {}
    for name in _manifest_tables(manifest_path):
        main_path, sidecar = _resolve_main_path(directory / f"{name}.cods")
        catalog.put(load_table(main_path))
        if sidecar.exists():
            sidecars[name] = sidecar
    engine = EvolutionEngine(catalog)
    for name, sidecar in sidecars.items():
        table = engine.catalog.table(name)
        engine.mutable(name, policy).restore_delta(
            _load_delta_for_table(sidecar, table)
        )
    return engine
