"""Redo-record framing for the write-ahead log.

The log file is a fixed header followed by checksummed frames::

    header:  magic "CODW" | u16 format version | u64 base LSN
    frame:   u32 payload length | u32 CRC-32 of payload | payload

The payload is UTF-8 JSON — the delta is uncompressed in memory and in
its ``.delta`` sidecar, so its redo records are uncompressed too (one
encoding path, shared with :mod:`repro.storage.filefmt` for dates).
LSNs are byte offsets from the start of the log's *lifetime*, not of
the current file: the header's base LSN is where this file begins, so
checkpoint positions stay meaningful across truncations.

Record payloads (``"t"`` discriminates):

``insert``    ``table``, ``rows`` (encoded values), ``epoch``, ``txn``
``update``    ``table``, ``mpos`` (main positions), ``didx`` (delta
              indices), ``rows`` (encoded replacement values), ``epoch``
              (the *first* sub-operation's epoch), ``txn`` — one UPDATE
              or DELETE statement; a DELETE's ``rows`` is empty
``compact``   ``table``, ``cutoff`` (fold epoch), ``txn``
``commit``    ``txn`` — marks every earlier record of ``txn`` durable

Older logs also hold ``delmain`` (``pos``, one main position) and
``deldelta`` (``idx``, one delta index) records, one per deleted row
(an UPDATE there is such a record plus an ``insert`` per victim); they
are never written now and replay as a one-position ``update``.

Every DML statement is one record, and outside a ``db.transaction()``
it auto-commits as one frame: the record carries a ``"c": 1`` flag
instead of a trailing ``commit`` record.

Scanning distinguishes a *torn tail* (an invalid frame that reaches or
runs past end-of-file — the expected debris of a crash mid-append,
silently discarded) from *corruption* (an invalid frame with intact
bytes after it — committed data may follow, so recovery must not guess;
:class:`~repro.errors.WalCorruptionError`).  The full format is
specified in ``docs/wal-format.md``.
"""

from __future__ import annotations

import json
import struct
import zlib

from repro.errors import WalCorruptionError
from repro.storage.types import decode_value, encode_value

MAGIC = b"CODW"
VERSION = 1

#: Header byte length: magic + u16 version + u64 base LSN.
HEADER_SIZE = 4 + 2 + 8

#: Frame prefix byte length: u32 payload length + u32 CRC-32.
FRAME_PREFIX = 8


def encode_header(base_lsn: int) -> bytes:
    return MAGIC + struct.pack("<HQ", VERSION, base_lsn)


def decode_header(data: bytes, where: str = "wal") -> int:
    """Validate a log header; returns its base LSN."""
    if len(data) < HEADER_SIZE or data[:4] != MAGIC:
        raise WalCorruptionError(f"{where}: not a write-ahead log")
    version, base_lsn = struct.unpack("<HQ", data[4:HEADER_SIZE])
    if version != VERSION:
        raise WalCorruptionError(
            f"{where}: unsupported wal format version {version}"
        )
    return base_lsn


# One shared encoder: ``json.dumps(..., separators=...)`` builds a new
# JSONEncoder per call, which costs more than the encoding itself on
# the hot append path.
_encode_json = json.JSONEncoder(
    separators=(",", ":"), ensure_ascii=False
).encode


def encode_frame(payload: dict) -> bytes:
    body = _encode_json(payload).encode()
    return struct.pack("<II", len(body), zlib.crc32(body)) + body


# The C string-escaping primitive behind the stdlib encoder; the fast
# insert-framing path below uses it to emit the same bytes as
# ``encode_frame`` without walking a freshly built payload dict.
_escape_string = getattr(json.encoder, "encode_basestring", None)


def encode_insert_frame(
    table: str, rows, epoch: int, txn: int, autocommit: bool
) -> bytes | None:
    """Frame an ``insert`` record — the write path's hottest — without
    the intermediate payload dict or the generic JSON encoder.

    Only plain ``int`` and ``str`` values qualify (anything needing the
    value codec — dates, floats, bools, ``NULL`` — returns ``None`` and
    the caller falls back to :func:`insert_record` + the generic
    framing).  The emitted bytes are identical to the generic path's,
    so scans cannot tell which path framed a record.
    """
    if _escape_string is None:  # pragma: no cover - stdlib always has it
        return None
    escape = _escape_string
    row_parts = []
    for row in rows:
        cells = []
        for value in row:
            kind = type(value)
            if kind is str:
                cells.append(escape(value))
            elif kind is int:
                cells.append(str(value))
            else:
                return None
        row_parts.append("[%s]" % ",".join(cells))
    body = (
        '{"t":"insert","table":%s,"rows":[%s],"epoch":%d,"txn":%d%s'
        % (
            escape(table),
            ",".join(row_parts),
            epoch,
            txn,
            ',"c":1}' if autocommit else "}",
        )
    ).encode()
    return struct.pack("<II", len(body), zlib.crc32(body)) + body


def scan_frames(data: bytes, base_lsn: int, where: str = "wal"):
    """Decode every frame of ``data`` (the bytes after the header).

    Returns ``(records, end_lsn, torn)`` where ``records`` is a list of
    ``(lsn, payload)`` — the LSN addresses the frame's first byte —
    ``end_lsn`` is the LSN one past the last valid frame, and ``torn``
    is True when trailing crash debris was discarded.  Raises
    :class:`WalCorruptionError` when an invalid frame is followed by
    further bytes (see module docstring).
    """
    records: list[tuple[int, dict]] = []
    offset = 0
    size = len(data)
    while offset < size:
        remaining = size - offset
        lsn = base_lsn + HEADER_SIZE + offset
        if remaining < FRAME_PREFIX:
            return records, base_lsn + HEADER_SIZE + offset, True
        length, crc = struct.unpack_from("<II", data, offset)
        end = offset + FRAME_PREFIX + length
        if end > size:
            # The frame runs past end-of-file: a crash mid-append.
            return records, base_lsn + HEADER_SIZE + offset, True
        body = data[offset + FRAME_PREFIX:end]
        if zlib.crc32(body) != crc:
            if end == size:
                # Invalid final frame — indistinguishable from a torn
                # write, so recovery discards it like one.
                return records, base_lsn + HEADER_SIZE + offset, True
            raise WalCorruptionError(
                f"{where}: checksum mismatch at lsn {lsn} with "
                f"{size - end} intact byte(s) after it"
            )
        try:
            payload = json.loads(body.decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise WalCorruptionError(
                f"{where}: undecodable record at lsn {lsn}: {exc}"
            ) from exc
        records.append((lsn, payload))
        offset = end
    return records, base_lsn + HEADER_SIZE + offset, False


# ----------------------------------------------------------------------
# Record constructors
# ----------------------------------------------------------------------


def insert_record(table: str, rows, epoch: int, txn: int) -> dict:
    return {
        "t": "insert",
        "table": table,
        "rows": [[encode_value(v) for v in row] for row in rows],
        "epoch": epoch,
        "txn": txn,
    }


def update_record(
    table: str, positions, indices, rows, epoch: int, txn: int
) -> dict:
    """One UPDATE or DELETE statement: delete ``positions`` from main
    and ``indices`` from the delta, then append ``rows`` — epochs run
    consecutively from ``epoch`` in that order (see
    ``DeltaStore.replay_update``)."""
    return {
        "t": "update",
        "table": table,
        "mpos": [int(position) for position in positions],
        "didx": [int(index) for index in indices],
        "rows": [[encode_value(v) for v in row] for row in rows],
        "epoch": epoch,
        "txn": txn,
    }


def compact_record(table: str, cutoff: int, txn: int) -> dict:
    return {"t": "compact", "table": table, "cutoff": cutoff, "txn": txn}


def commit_record(txn: int) -> dict:
    return {"t": "commit", "txn": txn}


def decode_rows(encoded) -> list[tuple]:
    """The ``rows`` of an ``insert`` record back as value tuples."""
    return [tuple(decode_value(v) for v in row) for row in encoded]
