"""Integration: failure injection and defensive behaviour.

Corrupt the storage on purpose and check that every layer either detects
the damage (verification, decode guards) or fails with a library error
rather than silently producing wrong answers.  The WAL cases damage the
redo log itself: a torn tail is the expected debris of a crash and is
repaired, anything deeper raises a typed
:class:`~repro.errors.WalCorruptionError` — committed data is never
silently dropped.
"""

import struct

import numpy as np
import pytest

from repro.bitmap import WAHBitmap
from repro.bitmap.batch import batch_select
from repro.core import EvolutionEngine, EvolutionStatus
from repro.core.distinction import distinction_bitmap
from repro.db import Database
from repro.errors import (
    CodsError,
    EvolutionError,
    StorageError,
    WalCorruptionError,
)
from repro.smo import parse_smo
from repro.storage import DataType, table_from_python, verify_table
from repro.wal import records as wal_records
from repro.wal import wal_path


@pytest.fixture
def table():
    return table_from_python(
        "R",
        {
            "K": (DataType.INT, [1, 1, 2, 3]),
            "P": (DataType.INT, [7, 8, 9, 9]),
            "D": (DataType.INT, [4, 4, 5, 6]),
        },
    )


class TestCorruptedBitmaps:
    def test_empty_value_bitmap_caught_by_distinction(self, table):
        column = table.column("K")
        column.bitmaps[1] = WAHBitmap.zeros(table.nrows)
        with pytest.raises(EvolutionError, match="stale"):
            distinction_bitmap(column, EvolutionStatus())

    def test_coverage_gap_caught_by_decode(self, table):
        column = table.column("P")
        column.bitmaps[0] = WAHBitmap.zeros(table.nrows)
        with pytest.raises(StorageError):
            column.decode_vids()

    def test_verify_pinpoints_overlap(self, table):
        column = table.column("D")
        column.bitmaps[0] = WAHBitmap.ones(table.nrows)
        report = verify_table(table)
        assert not report.ok
        assert any("D" in v for v in report.violations)

    def test_corruption_does_not_crash_engine_validation(self, table):
        """Validation is schema-level; corruption surfaces at execution
        as a library error, never as silently wrong output."""
        engine = EvolutionEngine()
        engine.load_table(table)
        engine.table("R").column("K").bitmaps[0] = WAHBitmap.zeros(
            table.nrows
        )
        with pytest.raises(CodsError):
            engine.apply(
                parse_smo("DECOMPOSE TABLE R INTO S (K, P), T (K, D)")
            )


class TestDamagedWal:
    """Satellite: deliberate damage to ``wal.log`` and the checkpoint
    metadata.  Each case either recovers (torn tail — the one shape a
    crash legitimately produces) or fails with a typed error; committed
    records before the damage are never silently dropped."""

    @pytest.fixture
    def crashed_catalog(self, tmp_path):
        """A catalog whose database committed two inserts and then
        crashed: the log holds both, the sidecars neither."""
        directory = tmp_path / "cat"
        db = Database(directory, durability="commit")
        db.execute("CREATE TABLE r (k INT, s STRING)")
        db.checkpoint()
        db.execute("INSERT INTO r VALUES (1, 'a')")
        db.execute("INSERT INTO r VALUES (2, 'b')")
        return directory  # abandoned without close(): the "crash"

    def test_torn_tail_record_recovers_the_committed_prefix(
        self, crashed_catalog
    ):
        log = wal_path(crashed_catalog)
        with log.open("ab") as handle:
            # Half a frame: the prefix promises more bytes than exist.
            handle.write(struct.pack("<II", 4096, 0) + b"partial")
        with Database(crashed_catalog, durability="commit") as db:
            assert db.execute("SELECT * FROM r") == [(1, "a"), (2, "b")]
        assert b"partial" not in log.read_bytes()  # repair is durable

    def test_bit_flipped_record_mid_log_is_typed_corruption(
        self, crashed_catalog
    ):
        log = wal_path(crashed_catalog)
        data = bytearray(log.read_bytes())
        # Flip one payload byte of the FIRST frame: intact frames
        # follow, so this cannot be read as a torn tail.
        data[wal_records.HEADER_SIZE + wal_records.FRAME_PREFIX + 2] ^= 0xFF
        log.write_bytes(bytes(data))
        with pytest.raises(WalCorruptionError, match="checksum"):
            Database(crashed_catalog, durability="commit")

    def test_truncated_header_is_typed_corruption(self, crashed_catalog):
        log = wal_path(crashed_catalog)
        log.write_bytes(log.read_bytes()[:6])
        with pytest.raises(WalCorruptionError, match="not a write-ahead"):
            Database(crashed_catalog, durability="commit")

    def test_checkpoint_past_log_end_is_typed_corruption(self, tmp_path):
        import json

        from repro.storage.filefmt import (
            _DELTA_MAGIC,
            _DELTA_VERSION,
            _read_delta_payload,
            _write_block,
            delta_sidecar_path,
        )

        directory = tmp_path / "cat"
        with Database(directory, durability="commit") as db:
            db.execute("CREATE TABLE r (k INT)")
            db.execute("INSERT INTO r VALUES (1)")
        sidecar = delta_sidecar_path(directory / "r.cods")
        _, payload = _read_delta_payload(sidecar)
        assert payload["wal_lsn"] is not None
        payload["wal_lsn"] = 10**9  # claims a log that never existed
        with sidecar.open("wb") as handle:
            handle.write(_DELTA_MAGIC)
            handle.write(struct.pack("<H", _DELTA_VERSION))
            _write_block(handle, json.dumps(payload).encode())
        with pytest.raises(WalCorruptionError, match="outside"):
            Database(directory, durability="commit")

    def test_log_without_catalog_is_typed_corruption(self, tmp_path):
        directory = tmp_path / "cat"
        db = Database(directory, durability="commit")
        db.execute("CREATE TABLE r (k INT)")
        db.execute("INSERT INTO r VALUES (1)")
        (directory / "catalog.json").unlink()  # mis-assembled directory
        with pytest.raises(WalCorruptionError, match="catalog"):
            Database(directory, durability="commit")


class TestDefensiveErrors:
    def test_bitmap_length_mismatch(self):
        with pytest.raises(CodsError):
            _ = WAHBitmap.ones(10) & WAHBitmap.ones(11)

    def test_select_with_out_of_range_positions(self):
        bm = WAHBitmap.ones(10)
        # Positions beyond nbits: searchsorted clamps, so selecting past
        # the end yields zero bits rather than garbage.
        [out], _ = batch_select([bm], np.array([5, 20], dtype=np.int64))
        assert out.nbits == 2
        assert out.get(0) is True
        assert out.get(1) is False

    def test_engine_missing_table(self, table):
        engine = EvolutionEngine()
        engine.load_table(table)
        with pytest.raises(CodsError):
            engine.apply(parse_smo("DROP TABLE Missing"))
        with pytest.raises(CodsError):
            engine.table("Missing")

    def test_sql_errors_are_library_errors(self):
        from repro.sql import RowEngineAdapter, SqlExecutor

        executor = SqlExecutor(RowEngineAdapter())
        with pytest.raises(CodsError):
            executor.execute("SELECT * FROM ghost")
        with pytest.raises(CodsError):
            executor.execute("NOT EVEN SQL")

    def test_csv_loader_errors(self, tmp_path):
        from repro.storage import load_csv

        path = tmp_path / "bad.csv"
        path.write_text("a\nx\ny,z\n")
        with pytest.raises(CodsError):
            load_csv(path)

    def test_all_public_errors_share_root(self):
        import repro.errors as errors

        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                if obj is not errors.CodsError:
                    assert issubclass(obj, errors.CodsError), name
