"""Unit tests for repro.wal: framing, the log, checkpoints, recovery.

The crash-driven end-to-end proofs live in
``tests/integration/test_failure_injection.py`` and
``tests/property/test_wal_properties.py``; this module pins the
building blocks — frame codec, torn-tail repair, group commit, nested
transactions, truncation, atomic sidecar saves, and the Database-level
durability knob.
"""

from __future__ import annotations

import struct

import pytest

from repro.db import Database
from repro.errors import TransactionConflict, WalCorruptionError, WalError
from repro.storage.filefmt import delta_sidecar_path, save_delta
from repro.wal import (
    CrashPoint,
    WriteAheadLog,
    crash_hook,
    crash_point,
    known_labels,
    log_has_records,
    wal_path,
)
from repro.wal import records as rec
from tests.harness.crashpoint import CrashPlan, run_to_crash


class TestFrames:
    def test_header_roundtrip(self):
        data = rec.encode_header(12345)
        assert len(data) == rec.HEADER_SIZE
        assert rec.decode_header(data) == 12345

    def test_header_rejects_wrong_magic(self):
        with pytest.raises(WalCorruptionError):
            rec.decode_header(b"NOPE" + b"\x00" * 10)

    def test_header_rejects_future_version(self):
        data = rec.MAGIC + struct.pack("<HQ", 99, 0)
        with pytest.raises(WalCorruptionError):
            rec.decode_header(data)

    def test_frame_roundtrip(self):
        payload = {"t": "commit", "txn": 7}
        frames, end, torn = rec.scan_frames(rec.encode_frame(payload), 0)
        assert frames == [(rec.HEADER_SIZE, payload)]
        assert not torn
        assert end == rec.HEADER_SIZE + len(rec.encode_frame(payload))

    def test_torn_tail_is_discarded_not_an_error(self):
        good = rec.encode_frame({"t": "commit", "txn": 1})
        torn_frame = rec.encode_frame({"t": "commit", "txn": 2})[:-3]
        frames, end, torn = rec.scan_frames(good + torn_frame, 0)
        assert [p for _, p in frames] == [{"t": "commit", "txn": 1}]
        assert torn
        assert end == rec.HEADER_SIZE + len(good)

    def test_bad_checksum_mid_log_is_corruption(self):
        first = bytearray(rec.encode_frame({"t": "commit", "txn": 1}))
        first[-1] ^= 0xFF  # flip a payload byte under an intact CRC field
        second = rec.encode_frame({"t": "commit", "txn": 2})
        with pytest.raises(WalCorruptionError, match="checksum"):
            rec.scan_frames(bytes(first) + second, 0)

    def test_bad_checksum_at_tail_reads_as_torn(self):
        first = rec.encode_frame({"t": "commit", "txn": 1})
        last = bytearray(rec.encode_frame({"t": "commit", "txn": 2}))
        last[-1] ^= 0xFF
        frames, _, torn = rec.scan_frames(first + bytes(last), 0)
        assert len(frames) == 1 and torn

    def test_insert_record_roundtrips_values(self):
        record = rec.insert_record("r", [(1, "a"), (2, "b")], 3, 9)
        assert rec.decode_rows(record["rows"]) == [(1, "a"), (2, "b")]

    def test_fast_insert_framing_matches_the_generic_bytes(self):
        rows = [(1, "alice", "x", 7), (-3, 'bob "q" é', "", 10**15)]
        committed = rec.insert_record("r", rows, 5, 42)
        committed["c"] = 1
        assert rec.encode_insert_frame("r", rows, 5, 42, True) == (
            rec.encode_frame(committed)
        )
        in_txn = rec.insert_record("r", rows, 5, 42)
        assert rec.encode_insert_frame("r", rows, 5, 42, False) == (
            rec.encode_frame(in_txn)
        )

    def test_fast_insert_framing_declines_values_needing_the_codec(self):
        import datetime

        for odd in (1.5, True, None, datetime.date(2024, 1, 1)):
            assert rec.encode_insert_frame("r", [(1, odd)], 1, 1, True) is None


class TestWriteAheadLog:
    def test_fresh_log_has_no_records(self, tmp_path):
        wal = WriteAheadLog(wal_path(tmp_path))
        assert wal.scan() == []
        assert not log_has_records(wal.path)
        wal.close()

    def test_autocommit_append_is_one_self_committed_frame(self, tmp_path):
        wal = WriteAheadLog(wal_path(tmp_path))
        wal.append({"t": "insert", "table": "r", "rows": [], "epoch": 1})
        records = [p for _, p in wal.scan()]
        assert [p["t"] for p in records] == ["insert"]
        assert records[0]["c"] == 1  # its own committed transaction
        assert wal.end_lsn - wal.durable_lsn == 0
        wal.close()

    def test_nested_begin_is_refused(self, tmp_path):
        # Transactions do not nest: a second begin on a thread with an
        # open transaction is an error and leaves that transaction as
        # it was, so its commit still emits one commit record.
        wal = WriteAheadLog(wal_path(tmp_path))
        txn = wal.begin()
        wal.append({"t": "delmain", "table": "r", "pos": 0, "epoch": 1})
        with pytest.raises(WalError, match="already open"):
            wal.begin()
        wal.append({"t": "delmain", "table": "r", "pos": 1, "epoch": 2})
        wal.commit()
        payloads = [p for _, p in wal.scan()]
        assert [p["t"] for p in payloads] == ["delmain", "delmain", "commit"]
        assert {p["txn"] for p in payloads} == {txn}
        wal.close()

    def test_empty_transaction_emits_nothing(self, tmp_path):
        wal = WriteAheadLog(wal_path(tmp_path))
        wal.begin()
        wal.commit()
        assert wal.scan() == []
        wal.close()

    def test_abort_leaves_no_commit_record(self, tmp_path):
        wal = WriteAheadLog(wal_path(tmp_path))
        wal.begin()
        wal.append({"t": "delmain", "table": "r", "pos": 0, "epoch": 1})
        wal.abort()
        wal.flush()
        assert [p["t"] for _, p in wal.scan()] == ["delmain"]
        wal.close()

    def test_group_commit_defers_the_fsync(self, tmp_path):
        wal = WriteAheadLog(
            wal_path(tmp_path), flush_policy="group", group_size=3
        )
        for epoch in (1, 2):
            wal.append({"t": "delmain", "table": "r", "pos": 0,
                        "epoch": epoch})
            # Acked but not yet flushed.
            assert wal.end_lsn - wal.durable_lsn > 0
        assert wal.scan() == []  # nothing on disk yet
        wal.append({"t": "delmain", "table": "r", "pos": 0, "epoch": 3})
        # The third commit filled the group.
        assert wal.end_lsn - wal.durable_lsn == 0
        assert len(wal.scan()) == 3  # one self-committed frame each
        wal.close()

    def test_close_flushes_buffered_group_commits(self, tmp_path):
        wal = WriteAheadLog(
            wal_path(tmp_path), flush_policy="group", group_size=100
        )
        wal.append({"t": "delmain", "table": "r", "pos": 0, "epoch": 1})
        wal.close()
        assert log_has_records(wal_path(tmp_path))

    def test_txn_ids_stay_unique_across_reopen(self, tmp_path):
        wal = WriteAheadLog(wal_path(tmp_path))
        first = wal.begin()
        wal.append({"t": "delmain", "table": "r", "pos": 0, "epoch": 1})
        wal.commit()
        wal.close()
        reopened = WriteAheadLog(wal_path(tmp_path))
        assert reopened.begin() > first
        reopened.abort()
        reopened.close()

    def test_open_repairs_a_torn_tail(self, tmp_path):
        wal = WriteAheadLog(wal_path(tmp_path))
        wal.append({"t": "delmain", "table": "r", "pos": 0, "epoch": 1})
        wal.close()
        with wal_path(tmp_path).open("ab") as handle:
            handle.write(b"\x99\x00\x00\x00garbage")  # crash debris
        reopened = WriteAheadLog(wal_path(tmp_path))
        assert [p["t"] for _, p in reopened.scan()] == ["delmain"]
        reopened.close()
        # The repair is durable: the debris is gone from the file.
        assert b"garbage" not in wal_path(tmp_path).read_bytes()

    def test_truncate_starts_a_fresh_file_with_carried_base(self, tmp_path):
        wal = WriteAheadLog(wal_path(tmp_path))
        wal.append({"t": "delmain", "table": "r", "pos": 0, "epoch": 1})
        old_end = wal.durable_lsn
        new_base = wal.truncate_all()
        assert new_base == old_end
        assert wal.scan() == []
        # LSNs keep counting from the lifetime offset after reopen.
        wal.close()
        reopened = WriteAheadLog(wal_path(tmp_path))
        assert reopened.base_lsn == new_base
        reopened.close()

    def test_rejects_unknown_policy_and_bad_group_size(self, tmp_path):
        with pytest.raises(WalError):
            WriteAheadLog(wal_path(tmp_path), flush_policy="yolo")
        with pytest.raises(WalError):
            WriteAheadLog(wal_path(tmp_path), group_size=0)

    def test_cannot_close_inside_a_transaction(self, tmp_path):
        wal = WriteAheadLog(wal_path(tmp_path))
        wal.begin()
        with pytest.raises(WalError):
            wal.close()
        wal.abort()
        wal.close()


class TestCrashPoints:
    def test_hook_sees_labels_and_can_crash(self):
        plan = CrashPlan("unit.test.point", hit=2)
        with crash_hook(plan):
            crash_point("unit.test.point")
            with pytest.raises(CrashPoint) as exc:
                crash_point("unit.test.point")
        assert exc.value.label == "unit.test.point"
        assert plan.fired

    def test_labels_register_for_sweeps(self):
        crash_point("unit.test.registered")
        assert "unit.test.registered" in known_labels()

    def test_run_to_crash_reports_unreached_points(self):
        crashed, result = run_to_crash(lambda: 42, "never.announced")
        assert not crashed and result == 42


class TestAtomicSidecarSaves:
    """Satellite 1: sidecar writes go through temp + ``os.replace`` so a
    crash at any point leaves the previous file intact."""

    @pytest.mark.parametrize(
        "label", ["save.delta.temp", "save.delta.replace"]
    )
    def test_crash_mid_save_preserves_the_old_sidecar(self, tmp_path, label):
        from repro.delta import DeltaStore
        from repro.storage import ColumnSchema, DataType, TableSchema

        schema = TableSchema("r", (ColumnSchema("k", DataType.INT),))
        store = DeltaStore(schema)
        store.append_rows([(1,)])
        sidecar = delta_sidecar_path(tmp_path / "r.cods")
        save_delta(store, sidecar)
        before = sidecar.read_bytes()
        store.append_rows([(2,)])

        crashed, _ = run_to_crash(
            lambda: save_delta(store, sidecar), label
        )
        assert crashed
        assert sidecar.read_bytes() == before  # old sidecar untouched
        if label == "save.delta.temp":
            # The temp file may linger; it must never shadow the real one.
            save_delta(store, sidecar)
            assert sidecar.read_bytes() != before


class TestDatabaseDurability:
    def test_default_durability_creates_no_log(self, tmp_path):
        with Database(tmp_path / "cat") as db:
            db.execute("CREATE TABLE r (k INT)")
            db.execute("INSERT INTO r VALUES (1)")
        assert not wal_path(tmp_path / "cat").exists()

    def test_unknown_durability_mode_raises(self, tmp_path):
        with pytest.raises(WalError, match="durability"):
            Database(tmp_path / "cat", durability="paranoid")

    def test_durability_needs_a_directory(self):
        with pytest.raises(WalError, match="directory"):
            Database(durability="commit")

    def test_commit_then_crash_then_reopen_recovers(self, tmp_path):
        db = Database(tmp_path / "cat", durability="commit")
        db.execute("CREATE TABLE r (k INT, s STRING)")
        db.execute("INSERT INTO r VALUES (1, 'a')")
        db.execute("INSERT INTO r VALUES (2, 'b')")
        # Crash: abandon the object without close()/save().
        with Database(tmp_path / "cat", durability="commit") as db2:
            assert db2.execute("SELECT * FROM r") == [(1, "a"), (2, "b")]
            assert db2.metrics()["wal.recoveries"] == 1

    def test_update_and_delete_replay(self, tmp_path):
        db = Database(tmp_path / "cat", durability="commit")
        db.execute("CREATE TABLE r (k INT, s STRING)")
        db.execute("INSERT INTO r VALUES (1, 'a')")
        db.execute("INSERT INTO r VALUES (2, 'b')")
        db.execute("UPDATE r SET s = 'z' WHERE k = 1")
        db.execute("DELETE FROM r WHERE k = 2")
        with Database(tmp_path / "cat", durability="commit") as db2:
            assert db2.execute("SELECT * FROM r") == [(1, "z")]

    def test_transaction_is_one_durable_unit(self, tmp_path):
        db = Database(tmp_path / "cat", durability="commit")
        db.execute("CREATE TABLE r (k INT)")
        with db.transaction() as tx:
            tx.execute("INSERT INTO r VALUES (1)")
            tx.execute("INSERT INTO r VALUES (2)")
        with Database(tmp_path / "cat", durability="commit") as db2:
            assert db2.execute("SELECT k FROM r") == [(1,), (2,)]

    def test_rolled_back_transaction_leaves_no_redo(self, tmp_path):
        db = Database(tmp_path / "cat", durability="commit")
        db.execute("CREATE TABLE r (k INT)")
        try:
            with db.transaction() as tx:
                tx.execute("INSERT INTO r VALUES (1)")
                raise RuntimeError("user abort")
        except RuntimeError:
            pass
        with Database(tmp_path / "cat", durability="commit") as db2:
            assert db2.execute("SELECT k FROM r") == []

    def test_opening_without_durability_refuses_unapplied_records(
        self, tmp_path
    ):
        db = Database(tmp_path / "cat", durability="commit")
        db.execute("CREATE TABLE r (k INT)")
        db.execute("INSERT INTO r VALUES (1)")
        # Crash; the log still holds the committed insert.
        with pytest.raises(WalError, match="unapplied"):
            Database(tmp_path / "cat")

    def test_clean_close_checkpoints_and_truncates(self, tmp_path):
        with Database(tmp_path / "cat", durability="commit") as db:
            db.execute("CREATE TABLE r (k INT)")
            db.execute("INSERT INTO r VALUES (1)")
        assert not log_has_records(wal_path(tmp_path / "cat"))
        # ...so a non-durable open succeeds afterwards.
        with Database(tmp_path / "cat") as db2:
            assert db2.execute("SELECT k FROM r") == [(1,)]

    def test_checkpoint_requires_durability(self, tmp_path):
        with Database(tmp_path / "cat") as db:
            with pytest.raises(WalError, match="durability"):
                db.checkpoint()

    def test_explicit_checkpoint_truncates_the_log(self, tmp_path):
        db = Database(tmp_path / "cat", durability="commit")
        db.execute("CREATE TABLE r (k INT)")
        db.execute("INSERT INTO r VALUES (1)")
        db.checkpoint()
        assert not log_has_records(wal_path(tmp_path / "cat"))
        # The insert survives a crash through the sidecar, not the log.
        with Database(tmp_path / "cat", durability="commit") as db2:
            assert db2.execute("SELECT k FROM r") == [(1,)]

    def test_group_commit_bounds_the_loss_window(self, tmp_path):
        db = Database(
            tmp_path / "cat", durability="group", group_size=100
        )
        db.execute("CREATE TABLE r (k INT)")
        db.checkpoint()
        db.execute("INSERT INTO r VALUES (1)")
        # Crash with the commit still in the buffer: it is lost — the
        # documented group-commit window — but recovery still yields a
        # consistent committed prefix (the empty table).
        with Database(tmp_path / "cat", durability="commit") as db2:
            assert db2.execute("SELECT k FROM r") == []

    def test_smo_checkpoints_synchronously(self, tmp_path, fig1_table):
        db = Database(tmp_path / "cat", durability="commit")
        db.load_table(fig1_table)
        db.execute(
            "DECOMPOSE TABLE R INTO S (Employee, Skill), "
            "T (Employee, Address)"
        )
        db.execute("INSERT INTO S VALUES ('Smith', 'Filing')")
        # Crash right after: the decomposition survives via its forced
        # checkpoint, the insert via the log.
        with Database(tmp_path / "cat", durability="commit") as db2:
            assert sorted(db2.tables()) == ["S", "T"]
            assert ("Smith", "Filing") in db2.execute("SELECT * FROM S")

    def test_compaction_survives_a_crash(self, tmp_path):
        db = Database(tmp_path / "cat", durability="commit")
        db.execute("CREATE TABLE r (k INT)")
        for k in range(8):
            db.execute("INSERT INTO r VALUES (?)", (k,))
        db.compact("r")
        db.execute("INSERT INTO r VALUES (99)")
        with Database(tmp_path / "cat", durability="commit") as db2:
            assert db2.execute("SELECT k FROM r") == [
                (k,) for k in list(range(8)) + [99]
            ]


class TestUpdateRecord:
    """One UPDATE or DELETE statement logs a single ``update`` record
    that commits itself; the per-victim records of older logs
    (``delmain``/``deldelta``, and the delete+insert pair form of an
    UPDATE) stay replayable, and the single record costs roughly half
    the bytes of the pair form."""

    def test_one_update_statement_is_one_record(self, tmp_path):
        db = Database(tmp_path / "cat", durability="commit")
        db.execute("CREATE TABLE r (k INT, s STRING)")
        for k in range(4):
            db.execute("INSERT INTO r VALUES (?, ?)", (k, "v"))
        db.checkpoint()  # start the log empty; watch the UPDATE alone
        db.execute("UPDATE r SET s = 'z' WHERE s = 'v'")
        payloads = [payload for _, payload in db._wal.scan()]
        # One self-committed ``update`` frame for the whole statement:
        # no per-victim delete+insert pairs and no ``commit`` record.
        assert [payload["t"] for payload in payloads] == ["update"]
        update = payloads[0]
        assert update["table"] == "r"
        assert update["c"] == 1
        assert len(update["rows"]) == 4
        db.close()

    def test_update_across_main_and_delta_survives_a_crash(self, tmp_path):
        from repro.delta import CompactionPolicy

        db = Database(
            tmp_path / "cat",
            durability="commit",
            policy=CompactionPolicy.never(),
        )
        db.execute("CREATE TABLE r (k INT, s STRING)")
        for k in range(4):
            db.execute("INSERT INTO r VALUES (?, ?)", (k, "old"))
        db.compact("r")  # victims now sit in the main store ...
        db.execute("INSERT INTO r VALUES (8, 'old')")  # ... and the delta
        db.execute("UPDATE r SET s = 'new' WHERE s = 'old'")
        (update,) = [
            payload for _, payload in db._wal.scan()
            if payload["t"] == "update"
        ]
        assert update["mpos"] and update["didx"]  # both stores hit
        # Crash: abandon the object without close().
        with Database(tmp_path / "cat", durability="commit") as db2:
            assert sorted(db2.execute("SELECT * FROM r")) == [
                (k, "new") for k in [0, 1, 2, 3, 8]
            ]

    def test_the_old_pair_form_still_replays(self, tmp_path):
        db = Database(tmp_path / "cat", durability="commit")
        db.execute("CREATE TABLE r (k INT, s STRING)")
        db.execute("INSERT INTO r VALUES (1, 'a')")
        db.execute("INSERT INTO r VALUES (2, 'b')")
        # Hand-log an update the way older logs carried it: a delete
        # plus a re-insert per victim, in one transaction.
        epoch = db.engine.mutable("r").epoch
        wal = db._wal
        wal.begin()
        wal.append({
            "t": "deldelta", "table": "r", "idx": 0,
            "epoch": epoch + 1, "txn": 0,
        })
        wal.append({
            "t": "insert", "table": "r", "rows": [[1, "z"]],
            "epoch": epoch + 2, "txn": 0,
        })
        wal.commit()
        # Crash: abandon the object without close().
        with Database(tmp_path / "cat", durability="commit") as db2:
            assert db2.execute("SELECT * FROM r") == [(2, "b"), (1, "z")]

    def test_the_old_per_victim_delete_form_still_replays(self, tmp_path):
        from repro.delta import CompactionPolicy

        never = CompactionPolicy.never()
        db = Database(tmp_path / "cat", durability="commit", policy=never)
        db.execute("CREATE TABLE r (k INT, s STRING)")
        for k in range(4):
            db.execute("INSERT INTO r VALUES (?, ?)", (k, "v"))
        db.compact("r")
        db.execute("INSERT INTO r VALUES (8, 'v')")
        db.execute("INSERT INTO r VALUES (9, 'w')")
        epoch = db.engine.mutable("r").epoch
        # Hand-log ``DELETE FROM r WHERE s = 'v'`` the way older logs
        # carried it: one record per victim, main victims first, in one
        # transaction closed by a ``commit`` record.
        wal = db._wal
        wal.begin()
        for offset, pos in enumerate([0, 1, 2, 3], start=1):
            wal.append({
                "t": "delmain", "table": "r", "pos": pos,
                "epoch": epoch + offset, "txn": 0,
            })
        wal.append({
            "t": "deldelta", "table": "r", "idx": 0,
            "epoch": epoch + 5, "txn": 0,
        })
        wal.commit()
        # Crash: abandon the object without close().
        with Database(
            tmp_path / "cat", durability="commit", policy=never
        ) as db2:
            assert db2.execute("SELECT * FROM r") == [(9, "w")]
            store = db2.engine.mutable("r").delta
            assert store.deleted_main == {
                0: epoch + 1, 1: epoch + 2, 2: epoch + 3, 3: epoch + 4,
            }
            assert store.deleted_delta == {0: epoch + 5}
            assert store.epoch == epoch + 5

    def test_update_record_roughly_halves_the_pair_form_bytes(self):
        rows = [(k, "value-%02d" % k) for k in range(16)]
        positions = list(range(16))
        single = rec.encode_frame(
            rec.update_record("r", positions, [], rows, 5, 1)
        )
        pair = b"".join(
            rec.encode_frame({
                "t": "delmain", "table": "r", "pos": pos,
                "epoch": 5, "txn": 1,
            })
            + rec.encode_frame(rec.insert_record("r", [row], 6, 1))
            for pos, row in zip(positions, rows)
        )
        assert len(single) <= 0.55 * len(pair)


class TestOneRecordPerStatement:
    """Every DML statement appends exactly one self-committed frame;
    a DELETE numbers its victims' epochs one each, main victims first,
    exactly as the per-victim records of older logs did."""

    def _db(self, tmp_path):
        from repro.delta import CompactionPolicy

        db = Database(
            tmp_path / "cat",
            durability="commit",
            policy=CompactionPolicy.never(),
        )
        db.execute("CREATE TABLE r (k INT, s STRING)")
        return db

    @staticmethod
    def _frames(db):
        return [payload for _, payload in db._wal.scan()]

    @pytest.mark.parametrize(
        "statement",
        [
            "INSERT INTO r VALUES (7, 'v')",
            "INSERT INTO r VALUES (7, 'v'), (8, 'w'), (9, 'v')",
            "UPDATE r SET s = 'z' WHERE s = 'v'",
            "DELETE FROM r WHERE s = 'v'",
        ],
    )
    def test_each_statement_appends_one_frame(self, tmp_path, statement):
        db = self._db(tmp_path)
        for k in range(4):
            db.execute("INSERT INTO r VALUES (?, ?)", (k, "vw"[k % 2]))
        db.compact("r")
        db.execute("INSERT INTO r VALUES (5, 'v')")
        db.execute("INSERT INTO r VALUES (6, 'w')")
        before = len(self._frames(db))
        fsyncs = db._wal._fsyncs.value
        db.execute(statement)
        frames = self._frames(db)
        assert len(frames) == before + 1
        assert frames[-1]["c"] == 1
        assert db._wal._fsyncs.value == fsyncs + 1
        db.close()

    def test_delete_of_main_and_delta_victims_is_one_update_record(
        self, tmp_path
    ):
        db = self._db(tmp_path)
        for k in range(4):
            db.execute("INSERT INTO r VALUES (?, ?)", (k, "vw"[k % 2]))
        db.compact("r")                                # epoch 4
        db.execute("INSERT INTO r VALUES (5, 'v')")    # epoch 5
        db.execute("INSERT INTO r VALUES (6, 'w')")    # epoch 6
        db.execute("INSERT INTO r VALUES (7, 'v')")    # epoch 7
        assert db.execute("DELETE FROM r WHERE s = 'v'") == 4
        (record,) = self._frames(db)[-1:]
        assert record["t"] == "update"
        assert (record["mpos"], record["didx"], record["rows"]) == (
            [0, 2], [0, 2], []
        )
        assert record["epoch"] == 8
        store = db.engine.mutable("r").delta
        assert store.deleted_main == {0: 8, 2: 9}
        assert store.deleted_delta == {0: 10, 2: 11}
        assert store.epoch == 11
        db.close()


    def test_a_transaction_logs_one_record_per_written_table(self, tmp_path):
        db = self._db(tmp_path)
        db.execute("CREATE TABLE a (k INT)")
        db.execute("INSERT INTO r VALUES (1, 'v'), (2, 'w')")
        before = len(self._frames(db))
        with db.transaction() as tx:
            tx.execute("INSERT INTO a VALUES (1)")
            tx.execute("INSERT INTO a VALUES (2)")
            tx.execute("INSERT INTO r VALUES (3, 'v')")
            tx.execute("UPDATE r SET s = 'z' WHERE s = 'v'")
            tx.execute("DELETE FROM r WHERE k = 2")
        frames = self._frames(db)[before:]
        # Insert-only effects are one insert record; r's net effects —
        # two pinned rows gone, two images in — are one update record.
        assert [(f["t"], f.get("table")) for f in frames] == [
            ("insert", "a"), ("update", "r"), ("commit", None),
        ]
        assert frames[0]["rows"] == [[1], [2]]
        assert (frames[1]["mpos"], frames[1]["didx"]) == ([], [0, 1])
        assert sorted(frames[1]["rows"]) == [[1, "z"], [3, "z"]]
        assert len({f["txn"] for f in frames}) == 1
        db.close()


class TestCommitFailureDurability:
    """A conflicting commit leaves nothing, in memory or after a crash
    and reopen; a commit that crashes before its commit record is
    rolled back whole by recovery."""

    def _two_table_commit(self, tmp_path, conflict: bool):
        # Group policy with a huge window: nothing forces a flush.
        db = Database(tmp_path / "cat", durability="group", group_size=64)
        db.execute("CREATE TABLE a (k INT)")
        db.execute("CREATE TABLE b (k INT)")
        tx = db.transaction().begin()
        tx.execute("INSERT INTO a VALUES (1)")
        tx.execute("INSERT INTO b VALUES (2)")
        if conflict:
            db.execute("DROP TABLE b")  # the write to b cannot commit
        return db, tx

    def test_conflicting_commit_leaves_nothing(self, tmp_path):
        db, tx = self._two_table_commit(tmp_path, conflict=True)
        with pytest.raises(TransactionConflict, match="'b'"):
            tx.commit()
        assert tx.state == "rolled-back"
        assert db.execute("SELECT k FROM a") == []
        db._wal.flush()
        # Crash: abandon the object without close().
        with Database(tmp_path / "cat", durability="commit") as db2:
            assert db2.execute("SELECT k FROM a") == []
            assert "b" not in db2.tables()

    def test_crash_before_the_commit_record_rolls_back(self, tmp_path):
        db, tx = self._two_table_commit(tmp_path, conflict=False)
        crashed, _ = run_to_crash(tx.commit, "wal.commit.record")
        assert crashed
        # Crash: abandon the object without close().  Both tables'
        # records lack their commit record, so recovery drops the
        # whole transaction.
        db._wal.flush()
        with Database(tmp_path / "cat", durability="commit") as db2:
            assert db2.execute("SELECT k FROM a") == []
            assert db2.execute("SELECT k FROM b") == []