"""Integration tests for the network front end: `repro.server` serving
`repro.client` connections over loopback TCP.

The multi-client stress scenario reuses the writer scripts and the
single-threaded oracle of ``test_concurrency.py`` — the same DML
streams, driven over the wire instead of in-process threads, must land
on the same final state while pinned remote readers observe frozen
views.  The crash test kills the server mid-transaction and checks WAL
recovery: every acknowledged autocommit statement survives, nothing of
an uncommitted transaction does.

Deadlock guards as in ``test_concurrency.py``: timed joins with loud
failures, thread exceptions collected and re-raised, pytest-timeout
armed in CI.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.client import connect
from repro.db import Database
from repro.delta import CompactionPolicy
from repro.errors import (
    AuthenticationError,
    CapabilityError,
    NetworkError,
    SqlExecutionError,
    SqlSyntaxError,
    TransactionError,
)
from repro.server import CodsServer
from test_concurrency import WRITERS, join_all, oracle, writer_script

pytestmark = pytest.mark.timeout(120)


@pytest.fixture()
def served():
    """An in-memory database behind a server on an ephemeral port."""
    db = Database()
    server = CodsServer(db, "127.0.0.1", 0)
    server.start()
    try:
        yield db, server
    finally:
        server.stop()


class TestServerBasics:
    def test_hello_reports_server_and_catalog(self, served):
        db, server = served
        db.execute("CREATE TABLE r (k INT)")
        with connect(*server.address) as conn:
            assert conn.server_info["server"] == "cods"
            assert conn.tables() == ["r"]

    def test_execute_mirrors_the_session_shapes(self, served):
        _, server = served
        with connect(*server.address) as conn:
            assert conn.execute("CREATE TABLE r (k INT, s STRING)") is None
            assert conn.executemany(
                "INSERT INTO r VALUES (?, ?)",
                [(k, f"s{k}") for k in range(5)],
            ) == 5
            assert conn.execute(
                "SELECT s FROM r WHERE k = ?", (3,)
            ) == [("s3",)]
            assert conn.execute("DELETE FROM r WHERE k = ?", (0,)) == 1
            status = conn.execute("ADD COLUMN c INT TO r DEFAULT 7")
            assert status["rows_materialized"] >= 0
            assert set(status) >= {"columns_reused", "bitmaps_created"}
            assert conn.execute(
                "SELECT c FROM r WHERE k = ?", (3,)
            ) == [(7,)]

    def test_auth_token_is_required_when_configured(self):
        db = Database()
        server = CodsServer(db, "127.0.0.1", 0, auth_token="sesame")
        server.start()
        try:
            with pytest.raises(AuthenticationError):
                connect(*server.address, auth_token="wrong")
            with pytest.raises(AuthenticationError):
                connect(*server.address)
            with connect(*server.address, auth_token="sesame") as conn:
                assert conn.server_info["server"] == "cods"
        finally:
            server.stop()

    def test_errors_cross_the_wire_typed(self, served):
        _, server = served
        with connect(*server.address) as conn:
            with pytest.raises(SqlSyntaxError):
                conn.execute("SELEC nope")
            with pytest.raises(SqlExecutionError):
                conn.execute("SELECT * FROM missing")
            with pytest.raises(TransactionError):
                conn.commit()
            # The connection stays usable after typed errors.
            conn.execute("CREATE TABLE r (k INT)")
            assert conn.execute("SELECT * FROM r") == []

    def test_result_sets_stream_in_batches(self, served):
        db, _ = served
        server = CodsServer(db, "127.0.0.1", 0, fetch_rows=8,
                            close_database=False)
        server.start()
        try:
            with connect(*server.address, fetch_rows=8) as conn:
                conn.execute("CREATE TABLE r (k INT)")
                conn.executemany(
                    "INSERT INTO r VALUES (?)", [(k,) for k in range(30)]
                )
                before = conn.metrics()["server.requests"]
                with conn.cursor() as cursor:
                    cursor.execute("SELECT k FROM r")
                    assert [name for name, *_ in cursor.description] == ["k"]
                    rows = cursor.fetchall()
                assert sorted(rows) == [(k,) for k in range(30)]
                after = conn.metrics()["server.requests"]
                # 30 rows at 8 per frame: the first batch rides the
                # execute response, then 3 fetch round trips.
                assert after - before >= 4
        finally:
            server.stop()

    def test_abandoned_cursor_is_released_server_side(self, served):
        _, server = served
        with connect(*server.address, fetch_rows=4) as conn:
            conn.execute("CREATE TABLE r (k INT)")
            conn.executemany(
                "INSERT INTO r VALUES (?)", [(k,) for k in range(20)]
            )
            cursor = conn.cursor()
            cursor.execute("SELECT k FROM r")
            assert cursor.fetchone() is not None
            cursor.close()  # half-streamed: sends close_cursor
            with pytest.raises(CapabilityError):
                cursor.fetchone()

    def test_metrics_command_proxies_registry_and_slow_log(self, served):
        db, server = served
        db.slow_query_seconds = 0.0  # log everything
        with connect(*server.address) as conn:
            conn.execute("CREATE TABLE r (k INT)")
            conn.execute("INSERT INTO r VALUES (1)")
            metrics = conn.metrics()
            assert metrics["server.connections_active"] >= 1
            assert metrics["server.requests"] >= 2
            assert metrics["server.errors"] == 0
            assert metrics["server.bytes_in"] > 0
            assert metrics["server.bytes_out"] > 0
            prometheus = conn.metrics("prometheus")
            assert "server_requests" in prometheus
            slow = conn.slow_queries()
            assert any(
                "INSERT INTO r" in entry["statement"] for entry in slow
            )

    def test_idle_sessions_are_reaped(self):
        db = Database()
        server = CodsServer(db, "127.0.0.1", 0, idle_timeout=0.2)
        server.start()
        try:
            conn = connect(*server.address)
            conn.execute("CREATE TABLE r (k INT)")
            time.sleep(0.8)
            with pytest.raises(NetworkError):
                conn.execute("SELECT * FROM r")
            assert conn.closed
            with connect(*server.address) as probe:
                assert probe.metrics()["server.sessions_reaped"] >= 1
        finally:
            server.stop()

    def test_graceful_stop_checkpoints_a_durable_catalog(self, tmp_path):
        db = Database(tmp_path / "cat", durability="commit")
        server = CodsServer(db, "127.0.0.1", 0)
        server.start()
        with connect(*server.address) as conn:
            conn.execute("CREATE TABLE r (k INT)")
            conn.executemany(
                "INSERT INTO r VALUES (?)", [(k,) for k in range(10)]
            )
        server.stop()
        assert db.closed
        server.stop()  # idempotent
        with Database(tmp_path / "cat", durability="commit") as db2:
            assert len(db2.execute("SELECT * FROM r")) == 10

    def test_stop_closes_connected_clients(self, served):
        _, server = served
        conn = connect(*server.address)
        conn.execute("CREATE TABLE r (k INT)")
        server.stop()
        with pytest.raises(NetworkError):
            conn.execute("SELECT * FROM r")


class TestRemoteTransactions:
    def test_read_your_writes_across_round_trips(self, served):
        _, server = served
        with connect(*server.address) as writer, \
                connect(*server.address) as other:
            writer.execute("CREATE TABLE r (k INT)")
            writer.begin()
            writer.execute("INSERT INTO r VALUES (1)")
            writer.execute("INSERT INTO r VALUES (2)")
            # The writer sees its overlay; the other connection must not
            # until commit.
            assert sorted(writer.execute("SELECT * FROM r")) == [(1,), (2,)]
            assert other.execute("SELECT * FROM r") == []
            assert writer.commit() == 2
            assert sorted(other.execute("SELECT * FROM r")) == [(1,), (2,)]

    def test_rollback_discards_the_overlay(self, served):
        _, server = served
        with connect(*server.address) as conn:
            conn.execute("CREATE TABLE r (k INT)")
            conn.begin()
            conn.execute("INSERT INTO r VALUES (1)")
            assert conn.rollback() == 1
            assert conn.execute("SELECT * FROM r") == []

    def test_context_manager_commits_and_rolls_back(self, served):
        _, server = served
        with connect(*server.address) as conn:
            conn.execute("CREATE TABLE r (k INT)")
            with conn.transaction() as tx:
                tx.execute("INSERT INTO r VALUES (1)")
            assert conn.execute("SELECT * FROM r") == [(1,)]
            with pytest.raises(SqlExecutionError):
                with conn.transaction() as tx:
                    tx.execute("INSERT INTO r VALUES (2)")
                    tx.execute("SELECT * FROM missing")
            assert conn.execute("SELECT * FROM r") == [(1,)]

    def test_read_only_scope_pins_a_frozen_view(self, served):
        _, server = served
        with connect(*server.address) as reader, \
                connect(*server.address) as writer:
            writer.execute("CREATE TABLE r (k INT)")
            writer.execute("INSERT INTO r VALUES (1)")
            reader.begin(read_only=True)
            pinned = reader.execute("SELECT * FROM r")
            writer.execute("INSERT INTO r VALUES (2)")
            assert reader.execute("SELECT * FROM r") == pinned
            reader.commit()
            assert sorted(reader.execute("SELECT * FROM r")) == [(1,), (2,)]

    def test_one_transaction_per_connection(self, served):
        _, server = served
        with connect(*server.address) as conn:
            conn.execute("CREATE TABLE r (k INT)")
            conn.begin()
            with pytest.raises(TransactionError, match="already open"):
                conn.begin()
            conn.rollback()

    def test_disconnect_mid_transaction_rolls_back(self, served):
        _, server = served
        with connect(*server.address) as setup:
            setup.execute("CREATE TABLE r (k INT)")
        conn = connect(*server.address)
        conn.begin()
        conn.execute("INSERT INTO r VALUES (1)")
        conn._abandon()  # drop the socket without goodbye
        deadline = time.monotonic() + 10
        with connect(*server.address) as probe:
            while time.monotonic() < deadline:
                if probe.metrics()["server.connections_active"] <= 1:
                    break
                time.sleep(0.02)
            # The server saw the hangup, tore the connection down and
            # rolled the transaction back.
            assert probe.metrics()["server.connections_active"] <= 1
            assert probe.execute("SELECT * FROM r") == []
            probe.begin()  # the rolled-back scope released its locks
            probe.rollback()


class TestMultiClientStress:
    def test_concurrent_clients_land_on_the_oracle(self):
        """The ``test_concurrency`` writer scripts, driven by 4 network
        clients against one server (compactor running), plus 2 remote
        pinned readers: the final state must equal the single-threaded
        oracle and every pinned read must be stable."""
        db = Database(policy=CompactionPolicy(max_delta_rows=32))
        db.execute("CREATE TABLE t (k INT, w INT, s STRING)")
        db.start_compactor(interval=0.001, columns=1)
        server = CodsServer(db, "127.0.0.1", 0)
        server.start()
        errors: list = []
        gate = threading.Barrier(WRITERS + 2)
        stop_readers = threading.Event()

        def run_writer(writer: int):
            try:
                with connect(*server.address) as conn:
                    gate.wait(timeout=30)
                    for statement, params in writer_script(writer):
                        conn.execute(statement, params)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        def run_reader():
            try:
                with connect(*server.address) as conn:
                    gate.wait(timeout=30)
                    while not stop_readers.is_set():
                        with conn.transaction(read_only=True) as tx:
                            first = tx.execute("SELECT * FROM t")
                            assert tx.execute("SELECT * FROM t") == first
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        writers = [
            threading.Thread(target=run_writer, args=(w,), name=f"client-{w}")
            for w in range(WRITERS)
        ]
        readers = [
            threading.Thread(target=run_reader, name=f"remote-reader-{r}")
            for r in range(2)
        ]
        for thread in writers + readers:
            thread.start()
        join_all(writers)
        stop_readers.set()
        join_all(readers)
        if errors:
            raise errors[0]
        with connect(*server.address) as conn:
            assert sorted(conn.execute("SELECT * FROM t")) == oracle()
        server.stop()
        assert db.closed


    def test_aggregate_workload_over_the_wire(self):
        """The aggregate scan mix driven by concurrent network clients
        (``apply_to_client``) against one served table: every client's
        stream completes, and the final grouped COUNT over the wire
        matches a client-side fold of the final full scan."""
        from repro.workload import MixedReadWriteWorkload

        db = Database(policy=CompactionPolicy(max_delta_rows=64))
        base = MixedReadWriteWorkload(
            300, 30, n_employees=20, scan_mix="mixed", seed=5
        )
        db.load_table(base.build())
        server = CodsServer(db, "127.0.0.1", 0)
        server.start()
        errors: list = []
        gate = threading.Barrier(3)

        def run_client(seed: int):
            try:
                stream = MixedReadWriteWorkload(
                    300, 30, n_employees=20, scan_mix="mixed", seed=seed,
                )
                with connect(*server.address) as conn:
                    gate.wait(timeout=30)
                    counters = stream.apply_to_client(conn, table="R")
                    assert counters["scan"] > 0
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        clients = [
            threading.Thread(
                target=run_client, args=(seed,), name=f"agg-client-{seed}"
            )
            for seed in (21, 22, 23)
        ]
        for thread in clients:
            thread.start()
        join_all(clients)
        if errors:
            raise errors[0]
        with connect(*server.address) as conn:
            rows = conn.execute("SELECT * FROM R")
            grouped = conn.execute(
                "SELECT Skill, COUNT(*) FROM R GROUP BY Skill"
            )
            folded: dict = {}
            for _employee, skill, _address in rows:
                folded[skill] = folded.get(skill, 0) + 1
            assert dict(grouped) == folded
        server.stop()
        assert db.closed


class TestCrashRecovery:
    def test_kill_mid_transaction_recovers_acked_writes_only(self, tmp_path):
        """Kill the server with one client mid-transaction: WAL replay
        on restart must reproduce every acknowledged autocommit write
        and nothing of the uncommitted overlay — no torn commits."""
        db = Database(tmp_path / "cat", durability="commit")
        db.execute("CREATE TABLE t (k INT)")
        server = CodsServer(db, "127.0.0.1", 0)
        server.start()

        committed = connect(*server.address)
        committed.executemany(
            "INSERT INTO t VALUES (?)", [(k,) for k in range(20)]
        )
        torn = connect(*server.address)
        torn.begin()
        torn.execute("INSERT INTO t VALUES (100)")
        torn.execute("INSERT INTO t VALUES (101)")

        server.kill()  # no drain, no rollback, no checkpoint
        with pytest.raises(NetworkError):
            committed.execute("SELECT * FROM t")

        db2 = Database(tmp_path / "cat", durability="commit")
        server2 = CodsServer(db2, "127.0.0.1", 0)
        server2.start()
        try:
            with connect(*server2.address) as conn:
                rows = sorted(conn.execute("SELECT * FROM t"))
                assert rows == [(k,) for k in range(20)]
                assert conn.metrics()["wal.recoveries"] == 1
        finally:
            server2.stop()
