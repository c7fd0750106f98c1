"""Threaded stress tests: writers, pinned readers, and the background
compactor sharing one catalog.

The locking contract under test (see docs/ARCHITECTURE.md,
"Concurrency"): DML serializes per table under the writer lock, whole
transactions serialize under the database commit lock, and snapshot
pins stay consistent throughout — no lost updates, no torn epoch
vectors, and a final state equal to a single-threaded oracle (writers
touch disjoint key ranges, so their interleaving is order-independent).

Deadlock guards: every thread is joined with a timeout and the test
fails loudly if one is still alive; exceptions raised inside threads
are collected and re-raised.  In CI the file additionally runs under
pytest-timeout with pytest's faulthandler dump enabled (see ci.yml);
the ``timeout`` marker is registered-but-inert locally, where the
plugin is not a dependency.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.db import Database
from repro.delta import CompactionPolicy

pytestmark = pytest.mark.timeout(120)

WRITERS = 4
ROWS_PER_WRITER = 50
JOIN_TIMEOUT = 60.0


def writer_script(writer: int):
    """The deterministic DML stream of one writer thread: inserts into
    a disjoint key range, with periodic updates and deletes."""
    base = writer * 1000
    for i in range(ROWS_PER_WRITER):
        key = base + i
        yield ("INSERT INTO t VALUES (?, ?, ?)", (key, writer, "v%d" % i))
        if i % 7 == 3:
            yield ("UPDATE t SET s = ? WHERE k = ?", ("u%d" % i, key))
        if i % 11 == 5:
            yield ("DELETE FROM t WHERE k = ?", (key - 1,))


def expected_rows(writer: int) -> list[tuple]:
    """Single-threaded oracle for one writer's script."""
    rows: dict[int, tuple] = {}
    base = writer * 1000
    for i in range(ROWS_PER_WRITER):
        key = base + i
        rows[key] = (key, writer, "v%d" % i)
        if i % 7 == 3:
            rows[key] = (key, writer, "u%d" % i)
        if i % 11 == 5:
            rows.pop(key - 1, None)
    return list(rows.values())


def oracle() -> list[tuple]:
    return sorted(
        row for writer in range(WRITERS) for row in expected_rows(writer)
    )


def run_writer(db, writer, errors, gate):
    try:
        session = db.session()
        gate.wait(timeout=30)
        for statement, params in writer_script(writer):
            session.execute(statement, params)
    except BaseException as exc:  # noqa: BLE001 - re-raised by the test
        errors.append(exc)


def join_all(threads):
    for thread in threads:
        thread.join(JOIN_TIMEOUT)
    stuck = [thread.name for thread in threads if thread.is_alive()]
    assert not stuck, f"threads deadlocked or hung: {stuck}"


class TestConcurrentWriters:
    def test_no_lost_updates_under_writers_and_compactor(self):
        db = Database(policy=CompactionPolicy(max_delta_rows=32))
        db.execute("CREATE TABLE t (k INT, w INT, s STRING)")
        db.start_compactor(interval=0.001, columns=1)
        errors: list = []
        gate = threading.Barrier(WRITERS + 2)
        stop_readers = threading.Event()

        def run_reader():
            try:
                gate.wait(timeout=30)
                while not stop_readers.is_set():
                    # A pinned scope must answer identically twice no
                    # matter what the writers and the compactor do.
                    with db.transaction(read_only=True) as tx:
                        first = tx.execute("SELECT * FROM t")
                        assert tx.execute("SELECT * FROM t") == first
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        writers = [
            threading.Thread(
                target=run_writer,
                args=(db, writer, errors, gate),
                name="writer-%d" % writer,
            )
            for writer in range(WRITERS)
        ]
        readers = [
            threading.Thread(target=run_reader, name="reader-%d" % reader)
            for reader in range(2)
        ]
        for thread in writers + readers:
            thread.start()
        join_all(writers)
        stop_readers.set()
        join_all(readers)
        db.stop_compactor()  # re-raises anything the thread died on
        if errors:
            raise errors[0]
        assert sorted(db.execute("SELECT * FROM t")) == oracle()

    def test_cross_table_pins_are_atomic_against_commits(self):
        """A committing transaction inserts matched rows into two
        tables; a reader pinning both must never observe one table's
        commit without the other's — a torn epoch vector."""
        db = Database()
        db.execute("CREATE TABLE left_t (k INT)")
        db.execute("CREATE TABLE right_t (k INT)")
        errors: list = []
        gate = threading.Barrier(3)
        stop_readers = threading.Event()

        def run_paired_writer():
            try:
                gate.wait(timeout=30)
                for k in range(40):
                    with db.transaction() as tx:
                        tx.execute("INSERT INTO left_t VALUES (?)", (k,))
                        tx.execute("INSERT INTO right_t VALUES (?)", (k,))
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)
            finally:
                stop_readers.set()

        def run_reader():
            try:
                gate.wait(timeout=30)
                while not stop_readers.is_set():
                    with db.transaction(read_only=True) as tx:
                        left = tx.execute("SELECT * FROM left_t")
                        right = tx.execute("SELECT * FROM right_t")
                        assert len(left) == len(right), "torn epoch vector"
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=run_paired_writer, name="pair-writer"),
            threading.Thread(target=run_reader, name="reader-0"),
            threading.Thread(target=run_reader, name="reader-1"),
        ]
        for thread in threads:
            thread.start()
        join_all(threads)
        if errors:
            raise errors[0]
        assert len(db.execute("SELECT * FROM left_t")) == 40
        assert len(db.execute("SELECT * FROM right_t")) == 40

    def test_durable_stress_recovers_to_the_oracle(self, tmp_path):
        """Concurrent writers through the WAL, then a crash (the object
        abandoned without close): recovery must rebuild exactly the
        oracle state from the interleaved log."""
        db = Database(
            tmp_path / "cat",
            durability="commit",
            policy=CompactionPolicy(max_delta_rows=32),
        )
        db.execute("CREATE TABLE t (k INT, w INT, s STRING)")
        errors: list = []
        gate = threading.Barrier(WRITERS)
        writers = [
            threading.Thread(
                target=run_writer,
                args=(db, writer, errors, gate),
                name="writer-%d" % writer,
            )
            for writer in range(WRITERS)
        ]
        for thread in writers:
            thread.start()
        join_all(writers)
        if errors:
            raise errors[0]
        # Crash: abandon the object without close().
        with Database(tmp_path / "cat", durability="commit") as db2:
            assert sorted(db2.execute("SELECT * FROM t")) == oracle()
            assert db2.metrics()["wal.recoveries"] == 1


class TestBackgroundCompactor:
    def test_folds_pending_deltas(self):
        db = Database(policy=CompactionPolicy.never())
        db.execute("CREATE TABLE t (k INT)")
        for k in range(64):
            db.execute("INSERT INTO t VALUES (?)", (k,))
        assert db.engine.pending_delta("t") is not None
        compactor = db.start_compactor(interval=0.001, columns=1)
        assert compactor.running
        deadline = time.monotonic() + 10
        while db.engine.pending_delta("t") is not None:
            assert time.monotonic() < deadline, "compactor made no progress"
            time.sleep(0.01)
        db.stop_compactor()
        metrics = db.metrics()
        assert metrics["compactor.cycles"] >= 1
        assert metrics["compactor.steps"] >= 1
        assert db.execute("SELECT k FROM t") == [(k,) for k in range(64)]

    def test_start_is_idempotent_and_close_stops_it(self):
        db = Database()
        db.execute("CREATE TABLE t (k INT)")
        compactor = db.start_compactor(interval=0.01)
        assert db.start_compactor() is compactor
        db.close()
        assert not compactor.running

    def test_stop_is_idempotent(self):
        db = Database()
        db.execute("CREATE TABLE t (k INT)")
        db.start_compactor(interval=0.01)
        db.stop_compactor()
        db.stop_compactor()

    def test_survives_a_concurrent_drop(self):
        """Tables dropped between the catalog walk and the step are
        skipped, never fatal."""
        db = Database(policy=CompactionPolicy.never())
        db.execute("CREATE TABLE keep (k INT)")
        db.start_compactor(interval=0.001, columns=1)
        for round_ in range(5):
            db.execute("CREATE TABLE doomed (k INT)")
            for k in range(16):
                db.execute("INSERT INTO doomed VALUES (?)", (k,))
                db.execute("INSERT INTO keep VALUES (?)", (k,))
            db.execute("DROP TABLE doomed")
        db.stop_compactor()  # re-raises anything the thread died on
        assert len(db.execute("SELECT k FROM keep")) == 80


class TestAggregateReadersUnderWrites:
    def test_aggregate_scan_mix_is_consistent_while_writers_churn(self):
        """Reader threads drive the workload generator's aggregate scan
        mix (GROUP BY on the skewed Skill/Address columns) through
        sessions while writer threads churn DML on the same table and
        the background compactor folds deltas.  Every aggregate answer
        must be internally consistent: within one read-only scope the
        grouped COUNTs must sum to the pinned COUNT(*)."""
        from repro.workload import MixedReadWriteWorkload

        workload = MixedReadWriteWorkload(
            400, 40, n_employees=25, scan_mix="aggregate", seed=7
        )
        db = Database(policy=CompactionPolicy(max_delta_rows=32))
        db.load_table(workload.build())
        db.start_compactor(interval=0.001, columns=1)
        errors: list = []
        gate = threading.Barrier(4)
        stop_checks = threading.Event()

        def run_workload(seed: int):
            try:
                stream = MixedReadWriteWorkload(
                    400, 40, n_employees=25, scan_mix="aggregate",
                    seed=seed,
                )
                session = db.session()
                gate.wait(timeout=30)
                counters = stream.apply_to_session(session, table="R")
                assert counters["scan"] > 0
                assert counters["rows_scanned"] > 0
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        def run_invariant_checks():
            try:
                gate.wait(timeout=30)
                while not stop_checks.is_set():
                    with db.transaction(read_only=True) as tx:
                        total = tx.execute("SELECT COUNT(*) FROM R")
                        grouped = tx.execute(
                            "SELECT Skill, COUNT(*) FROM R GROUP BY Skill"
                        )
                        assert sum(n for _skill, n in grouped) == (
                            total[0][0]
                        )
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(
                target=run_workload, args=(seed,), name=f"agg-writer-{seed}"
            )
            for seed in (11, 12, 13)
        ] + [threading.Thread(target=run_invariant_checks, name="agg-check")]
        for thread in threads[:-1]:
            thread.start()
        threads[-1].start()
        join_all(threads[:-1])
        stop_checks.set()
        join_all(threads[-1:])
        db.close()
        if errors:
            raise errors[0]
