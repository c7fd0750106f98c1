"""The CODS wire protocol: length-prefixed checksummed JSON frames.

The framing reuses the :mod:`repro.wal.records` idiom — a magic
preamble followed by CRC-checked frames — pointed at a socket instead
of a log file::

    preamble:  magic "CODN" | u16 protocol version        (each direction)
    frame:     u32 payload length | u32 CRC-32 of payload | payload

The payload is UTF-8 JSON.  The conversation is strictly synchronous:
the client sends one request frame and reads exactly one response
frame before sending the next.  Requests carry a ``"cmd"``
discriminator (``hello``, ``execute``, ``executemany``, ``fetch``,
``close_cursor``, ``begin``, ``commit``, ``rollback``, ``metrics``,
``goodbye`` — see ``docs/server.md`` for the command table); responses
carry ``"ok": true`` plus command-specific fields, or ``"ok": false``
with a typed error.

Values cross the wire through the same codec the ``.delta`` sidecars
and the WAL use (:mod:`repro.storage.filefmt`): everything JSON-native
passes through untouched and dates become ``{"__date__": iso}``, so a
row round-trips byte-identically through server, log and sidecar.

Errors are mapped by *class name*: the server answers ``{"ok": false,
"error": "<CodsError subclass>", "message": ...}`` and the client
re-raises the same class out of :mod:`repro.errors`, so ``except
SqlSyntaxError`` works identically against a remote database.
Unknown names degrade to :class:`~repro.errors.CodsError`.

A frame longer than the receiver's ``max_frame`` is refused with
:class:`~repro.errors.ProtocolError` *before* the payload is read —
the per-connection recv limit.  Senders enforce the same bound, so an
oversized result batch fails loudly on the server instead of
poisoning the stream.
"""

from __future__ import annotations

import json
import struct
import zlib

import repro.errors as _errors
from repro.errors import CodsError, NetworkError, ProtocolError
from repro.storage.types import decode_value, encode_value

MAGIC = b"CODN"
VERSION = 1

#: Preamble byte length: magic + u16 version.
PREAMBLE_SIZE = 4 + 2
PREAMBLE = MAGIC + struct.pack("<H", VERSION)

#: Frame prefix byte length: u32 payload length + u32 CRC-32.
FRAME_PREFIX = 8

#: Default per-connection frame-size limit (both directions), bytes.
DEFAULT_MAX_FRAME = 8 * 2**20

#: Default rows streamed per ``fetch`` frame.
DEFAULT_FETCH_ROWS = 256

# One shared encoder, same rationale as repro.wal.records: building a
# JSONEncoder per frame costs more than the encoding itself.
_encode_json = json.JSONEncoder(
    separators=(",", ":"), ensure_ascii=False
).encode


def check_preamble(data: bytes, where: str = "peer") -> None:
    """Validate the 6-byte connection preamble."""
    if len(data) < PREAMBLE_SIZE or data[:4] != MAGIC:
        raise ProtocolError(f"{where}: not a CODS wire connection")
    (version,) = struct.unpack("<H", data[4:PREAMBLE_SIZE])
    if version != VERSION:
        raise ProtocolError(
            f"{where}: unsupported protocol version {version} "
            f"(this build speaks {VERSION})"
        )


def encode_frame(payload: dict, max_frame: int = DEFAULT_MAX_FRAME) -> bytes:
    body = _encode_json(payload).encode()
    if len(body) > max_frame:
        raise ProtocolError(
            f"frame of {len(body)} bytes exceeds the {max_frame}-byte "
            f"limit"
        )
    return struct.pack("<II", len(body), zlib.crc32(body)) + body


def recv_exactly(reader, count: int, where: str = "peer") -> bytes:
    """Read exactly ``count`` bytes from a buffered binary reader (a
    ``socket.makefile("rb")``); EOF mid-read raises
    :class:`NetworkError` — on a socket a short read means the peer
    hung up (or the connection was reaped), never a torn tail."""
    try:
        data = reader.read(count)
    except (OSError, ValueError) as exc:
        raise NetworkError(f"{where}: connection lost: {exc}") from exc
    if data is None or len(data) < count:
        raise NetworkError(
            f"{where}: connection closed by peer "
            f"({len(data or b'')}/{count} bytes)"
        )
    return data


def read_frame(
    reader,
    max_frame: int = DEFAULT_MAX_FRAME,
    where: str = "peer",
) -> tuple[dict, int]:
    """One frame off the wire; returns ``(payload, total_bytes)``."""
    prefix = recv_exactly(reader, FRAME_PREFIX, where)
    length, crc = struct.unpack("<II", prefix)
    if length > max_frame:
        raise ProtocolError(
            f"{where}: incoming frame of {length} bytes exceeds the "
            f"{max_frame}-byte limit"
        )
    body = recv_exactly(reader, length, where)
    if zlib.crc32(body) != crc:
        raise ProtocolError(f"{where}: frame checksum mismatch")
    try:
        payload = json.loads(body.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"{where}: undecodable frame: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError(f"{where}: frame payload is not an object")
    return payload, FRAME_PREFIX + length


def write_frame(
    sock,
    payload: dict,
    max_frame: int = DEFAULT_MAX_FRAME,
    where: str = "peer",
) -> int:
    """Encode and send one frame; returns the bytes written."""
    data = encode_frame(payload, max_frame)
    try:
        sock.sendall(data)
    except OSError as exc:
        raise NetworkError(f"{where}: connection lost: {exc}") from exc
    return len(data)


# ----------------------------------------------------------------------
# Row codecs (values through repro.storage.types, as in the WAL)
# ----------------------------------------------------------------------

def encode_row(row) -> list:
    return [encode_value(value) for value in row]


def encode_rows(rows) -> list[list]:
    return [[encode_value(value) for value in row] for row in rows]


def decode_rows(rows) -> list[tuple]:
    return [tuple(decode_value(value) for value in row) for row in rows]


# ----------------------------------------------------------------------
# Typed errors across the wire
# ----------------------------------------------------------------------


def error_payload(exc: CodsError) -> dict:
    """An exception as an error response frame."""
    return {
        "ok": False,
        "error": type(exc).__name__,
        "message": str(exc),
    }


def error_class(name: str) -> type[CodsError]:
    """The :mod:`repro.errors` class named ``name``, else
    :class:`CodsError` — never an arbitrary attribute, so a hostile
    server cannot make the client raise something exotic."""
    cls = getattr(_errors, name, None)
    if isinstance(cls, type) and issubclass(cls, CodsError):
        return cls
    return CodsError


def raise_remote(payload: dict):
    """Re-raise an error response as its original exception class."""
    raise error_class(str(payload.get("error", "")))(
        payload.get("message", "remote error")
    )
