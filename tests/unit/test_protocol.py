"""Unit tests for the wire protocol layer (`repro.server.protocol`):
framing, checksums, size limits, the shared value codec and the typed
error mapping — all off-socket, over in-memory readers."""

from __future__ import annotations

import datetime
import io
import struct
import zlib

import pytest

from repro.errors import (
    CodsError,
    NetworkError,
    ProtocolError,
    SqlSyntaxError,
    TransactionError,
)
from repro.server.protocol import (
    FRAME_PREFIX,
    MAGIC,
    PREAMBLE,
    PREAMBLE_SIZE,
    VERSION,
    check_preamble,
    decode_rows,
    encode_frame,
    encode_row,
    encode_rows,
    error_class,
    error_payload,
    raise_remote,
    read_frame,
    recv_exactly,
)


class TestPreamble:
    def test_own_preamble_passes(self):
        check_preamble(PREAMBLE)

    def test_size_is_magic_plus_version(self):
        assert len(PREAMBLE) == PREAMBLE_SIZE == 6
        assert PREAMBLE[:4] == MAGIC

    def test_wrong_magic_is_refused(self):
        with pytest.raises(ProtocolError, match="not a CODS wire"):
            check_preamble(b"CODW" + struct.pack("<H", VERSION))

    def test_future_version_is_refused(self):
        with pytest.raises(ProtocolError, match="version 99"):
            check_preamble(MAGIC + struct.pack("<H", 99))

    def test_short_preamble_is_refused(self):
        with pytest.raises(ProtocolError):
            check_preamble(b"CO")


class TestFrames:
    def test_round_trip(self):
        payload = {"cmd": "execute", "sql": "SELECT 1", "params": None}
        frame = encode_frame(payload)
        decoded, nbytes = read_frame(io.BytesIO(frame))
        assert decoded == payload
        assert nbytes == len(frame)

    def test_corrupt_byte_fails_the_checksum(self):
        frame = bytearray(encode_frame({"cmd": "hello"}))
        frame[-1] ^= 0xFF
        with pytest.raises(ProtocolError, match="checksum"):
            read_frame(io.BytesIO(bytes(frame)))

    def test_oversized_frame_refused_before_payload_read(self):
        # A huge declared length must be rejected from the prefix alone
        # — the reader never tries to allocate or consume the payload.
        prefix = struct.pack("<II", 2**30, 0)
        with pytest.raises(ProtocolError, match="exceeds"):
            read_frame(io.BytesIO(prefix), max_frame=1024)

    def test_sender_enforces_the_same_limit(self):
        with pytest.raises(ProtocolError, match="exceeds"):
            encode_frame({"blob": "x" * 2048}, max_frame=1024)

    def test_non_object_payload_is_refused(self):
        body = b"[1, 2, 3]"
        frame = struct.pack("<II", len(body), zlib.crc32(body))
        with pytest.raises(ProtocolError, match="not an object"):
            read_frame(io.BytesIO(frame + body))

    def test_eof_mid_frame_is_a_network_error(self):
        frame = encode_frame({"cmd": "hello"})
        with pytest.raises(NetworkError, match="closed by peer"):
            read_frame(io.BytesIO(frame[: FRAME_PREFIX + 2]))

    def test_recv_exactly_reports_partial_count(self):
        with pytest.raises(NetworkError, match="2/4"):
            recv_exactly(io.BytesIO(b"ab"), 4)


class TestValueCodec:
    def test_json_native_values_pass_through(self):
        row = (1, "a", None, 2.5)
        assert decode_rows([encode_row(row)]) == [row]

    def test_dates_survive_the_wire(self):
        row = (datetime.date(2010, 9, 13), "vldb")
        encoded = encode_row(row)
        assert encoded[0] == {"__date__": "2010-09-13"}
        assert decode_rows([encoded]) == [row]

    def test_rows_round_trip_as_tuples(self):
        rows = [(1, "a"), (2, "b")]
        assert decode_rows(encode_rows(rows)) == rows


class TestErrorMapping:
    def test_payload_carries_class_name_and_message(self):
        payload = error_payload(SqlSyntaxError("bad token"))
        assert payload == {
            "ok": False, "error": "SqlSyntaxError", "message": "bad token",
        }

    def test_known_classes_round_trip(self):
        for cls in (SqlSyntaxError, TransactionError, NetworkError):
            assert error_class(cls.__name__) is cls

    def test_unknown_names_degrade_to_the_base_class(self):
        assert error_class("ValueError") is CodsError
        assert error_class("no_such_thing") is CodsError
        # Module attributes that are not CodsError subclasses must not
        # leak out either — the name lookup is class-restricted.
        assert error_class("annotations") is CodsError

    def test_raise_remote_rebuilds_the_original(self):
        with pytest.raises(TransactionError, match="no transaction"):
            raise_remote(error_payload(TransactionError("no transaction")))
