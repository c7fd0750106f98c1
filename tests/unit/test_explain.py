"""EXPLAIN / EXPLAIN ANALYZE on every engine.

The shape contract: both variants return rows in the fixed
``TRACE_COLUMNS`` 6-tuple layout on the CODS engine and on both
baselines, each driven through its own ``SqlExecutor``; plain EXPLAIN
renders the static plan without executing (and charges no counters),
EXPLAIN ANALYZE executes the SELECT through the traced pipeline and
charges exactly what a plain SELECT would."""

from __future__ import annotations

import pytest

from repro.db import Database
from repro.errors import SqlError
from repro.obs import TRACE_COLUMNS, QueryTrace
from repro.sql import (
    ColumnStoreAdapter,
    MutableColumnAdapter,
    RowEngineAdapter,
    SqlExecutor,
)

ADAPTERS = {
    "mutable": MutableColumnAdapter,
    "column": ColumnStoreAdapter,
    "row": RowEngineAdapter,
}
ROWS = [(i % 3, "ab"[i % 2]) for i in range(10)]
SELECT = "SELECT s FROM r WHERE k = 1 ORDER BY s LIMIT 3"


def operators(rows):
    return [row[0].strip() for row in rows]


def seed(target):
    """Create and fill ``r`` through ``target``'s ``execute``."""
    target.execute("CREATE TABLE r (k INT, s STRING, KEY(k))")
    for k, s in ROWS:
        target.execute(f"INSERT INTO r VALUES ({k}, '{s}')")
    return target


@pytest.fixture(params=ADAPTERS)
def db(request):
    """An executor over one engine: CODS or a baseline."""
    return seed(SqlExecutor(ADAPTERS[request.param]()))


def is_cods(executor) -> bool:
    return isinstance(executor.adapter, MutableColumnAdapter)


class TestShape:
    def test_plain_explain_renders_the_static_plan(self, db):
        rows = db.execute("EXPLAIN " + SELECT)
        assert operators(rows) == [
            "select", "scan", "filter", "project", "order_by", "limit",
        ]
        for row in rows:
            assert len(row) == len(TRACE_COLUMNS)
            # Static plan: nothing ran, every counter is zero.
            assert row[2:] == (0, 0, 0, 0.0)
        # Child stages indent two spaces under the select root.
        assert rows[0][0] == "select"
        assert all(row[0].startswith("  ") for row in rows[1:])

    def test_analyze_populates_the_same_tree(self, db):
        expected = db.execute(SELECT)
        rows = db.execute("EXPLAIN ANALYZE " + SELECT)
        assert operators(rows) == operators(db.execute("EXPLAIN " + SELECT))
        by_operator = {row[0].strip(): row for row in rows}
        # The scan produced the whole table, the filter kept k = 1,
        # and the root returned what the SELECT returns.
        assert by_operator["scan"][4] == len(ROWS)
        assert by_operator["scan"][2] >= 1  # at least one batch flowed
        assert by_operator["filter"][3] == len(ROWS)
        assert by_operator["filter"][4] == len(expected)
        assert by_operator["select"][4] == len(expected)

    def test_scan_detail_names_the_backend_path(self, db):
        detail = {
            row[0].strip(): row[1] for row in db.execute("EXPLAIN " + SELECT)
        }["scan"]
        expected_fragment = {
            MutableColumnAdapter: "main: compressed-domain bitmap",
            ColumnStoreAdapter: "decoded column vectors",
            RowEngineAdapter: "row heap",
        }[type(db.adapter)]
        assert expected_fragment in detail

    def test_explain_requires_a_select(self, db):
        with pytest.raises(SqlError):
            db.execute("EXPLAIN DROP TABLE r")


class TestCounters:
    def test_plain_explain_charges_nothing(self, db):
        before = db.adapter.metrics.snapshot()
        db.execute("EXPLAIN " + SELECT)
        after = db.adapter.metrics.snapshot()
        assert after.get("exec.queries", 0) == before.get("exec.queries", 0)
        assert after.get("exec.rows_decoded", 0) == before.get(
            "exec.rows_decoded", 0
        )

    def test_plain_explain_materializes_no_rows(self):
        # The query-level column store counts every row it turns into
        # a tuple, so it can witness that planning never touches data.
        db = SqlExecutor(ColumnStoreAdapter())
        db.execute("CREATE TABLE r (k INT, s STRING)")
        for k, s in ROWS:
            db.execute(f"INSERT INTO r VALUES ({k}, '{s}')")
        assert db.adapter.rows_materialized == 0
        db.execute("EXPLAIN " + SELECT)
        assert db.adapter.rows_materialized == 0
        db.execute("EXPLAIN ANALYZE " + SELECT)
        assert db.adapter.rows_materialized == len(ROWS)

    def test_analyze_charges_like_a_plain_select(self, db):
        def deltas(statement):
            before = db.adapter.metrics.snapshot()
            db.execute(statement)
            after = db.adapter.metrics.snapshot()
            return {
                name: after[name] - before.get(name, 0)
                for name in (
                    "exec.queries", "exec.batches",
                    "exec.rows_decoded", "exec.rows_returned",
                )
            }

        assert deltas("EXPLAIN ANALYZE " + SELECT) == deltas(SELECT)


class TestRetention:
    def test_cursor_description_and_trace(self):
        cursor = seed(Database()).cursor()
        cursor.execute("EXPLAIN ANALYZE " + SELECT)
        assert [entry[0] for entry in cursor.description] == list(
            TRACE_COLUMNS
        )
        assert all(len(entry) == 7 for entry in cursor.description)
        rows = cursor.fetchall()
        assert rows and all(len(row) == len(TRACE_COLUMNS) for row in rows)
        assert isinstance(cursor.trace, QueryTrace)
        assert cursor.trace.executed

    def test_plain_explain_trace_is_not_executed(self):
        cursor = seed(Database()).cursor()
        cursor.execute("EXPLAIN " + SELECT)
        assert isinstance(cursor.trace, QueryTrace)
        assert not cursor.trace.executed
        assert not cursor.trace.timed

    def test_session_retains_the_last_trace(self, db):
        db.execute("EXPLAIN ANALYZE " + SELECT)
        trace = db.last_trace
        assert trace is not None and trace.executed
        assert trace.rows() == db.last_trace.rows()

    def test_trace_queries_retains_traces_for_plain_selects(self, db):
        db.execute(SELECT)
        assert db.last_trace is None  # span timing is opt-in
        db.trace_queries = True
        expected = db.execute(SELECT)
        trace = db.last_trace
        assert trace is not None and trace.timed and trace.executed
        assert trace.root.rows_out == len(expected)


class TestTransactions:
    def test_explain_analyze_runs_against_the_pinned_state(self):
        # Transactions read the epoch vector pinned at entry plus their
        # own buffered writes (read-your-writes); EXPLAIN ANALYZE,
        # being a read, observes exactly that view — the scope's own
        # insert, but not the concurrent one outside the pin.
        db = Database()
        db.execute("CREATE TABLE r (k INT, s STRING, KEY(k))")
        db.executemany("INSERT INTO r VALUES (?, ?)", ROWS)
        with db.transaction() as tx:
            tx.execute("INSERT INTO r VALUES (1, 'z')")
            db.execute("INSERT INTO r VALUES (1, 'y')")  # outside the pin
            rows = tx.execute("EXPLAIN ANALYZE SELECT * FROM r WHERE k = 1")
            by_operator = {row[0].strip(): row for row in rows}
            assert by_operator["scan"][4] == len(ROWS) + 1
        # After commit both writes land and ANALYZE sees the live state.
        rows = db.execute("EXPLAIN ANALYZE SELECT * FROM r WHERE k = 1")
        by_operator = {row[0].strip(): row for row in rows}
        assert by_operator["scan"][4] == len(ROWS) + 2

    def test_scan_detail_follows_the_overlay_after_a_write(self):
        # The adapter that emits the batches names the path: once the
        # scope has written r, its rows are the pinned main and delta
        # batches followed by the scope's own rows as value batches —
        # and EXPLAIN ANALYZE's observed batch kinds agree.
        db = Database()
        db.execute("CREATE TABLE r (k INT, s STRING, KEY(k))")
        db.executemany("INSERT INTO r VALUES (?, ?)", ROWS)
        db.execute("CREATE TABLE untouched (k INT)")

        def scan_detail(tx, statement):
            return {
                row[0].strip(): row[1] for row in tx.execute(statement)
            }["scan"]

        compressed = db.adapter.metrics.counter("exec.agg_batches_compressed")
        with db.transaction() as tx:
            before = scan_detail(tx, "EXPLAIN SELECT * FROM r")
            assert "main: compressed-domain bitmap" in before
            tx.execute("INSERT INTO r VALUES (7, 'z')")
            after = scan_detail(tx, "EXPLAIN SELECT * FROM r")
            assert after == (
                "table=r (main: compressed-domain bitmap, delta: compiled "
                "evaluator, transaction rows: compiled evaluator)"
            )
            analyzed = scan_detail(tx, "EXPLAIN ANALYZE SELECT * FROM r")
            assert analyzed.endswith("[TableBatch+DeltaBatch+ValuesBatch]")
            # The written table keeps the compressed-domain aggregate.
            seen = compressed.value
            assert tx.execute("SELECT k, COUNT(*) FROM r GROUP BY k") == [
                (0, 4), (1, 3), (2, 3), (7, 1),
            ]
            assert compressed.value - seen >= 1
            # Tables the scope has not written keep the storage path.
            assert "transaction rows" not in scan_detail(
                tx, "EXPLAIN SELECT * FROM untouched"
            )

    def test_explain_is_a_read_in_a_read_only_transaction(self):
        db = Database()
        db.execute("CREATE TABLE r (k INT, s STRING)")
        db.executemany("INSERT INTO r VALUES (?, ?)", ROWS)
        with db.transaction(read_only=True) as tx:
            plan = tx.execute("EXPLAIN SELECT * FROM r")
            assert operators(plan)[0] == "select"
            analyzed = tx.execute("EXPLAIN ANALYZE SELECT * FROM r")
            assert {row[0].strip(): row for row in analyzed}["select"][
                4
            ] == len(ROWS)


class TestAggregatePlans:
    """Aggregate, DISTINCT and ORDER BY nodes carry their strategy and
    its reason."""

    AGG = "SELECT k, COUNT(*), SUM(k) FROM r GROUP BY k"

    def detail(self, db, sql, operator):
        return {
            row[0].strip(): row[1] for row in db.execute("EXPLAIN " + sql)
        }[operator]

    def test_aggregate_node_names_strategy_and_reason(self, db):
        detail = self.detail(db, self.AGG, "aggregate")
        assert "out=k,count(*),sum(k)" in detail
        assert "group_by=k" in detail
        if is_cods(db):
            assert detail.startswith(
                "compressed [main batches group by vid codes, delta share"
            )
        else:
            # Decode-first scans have no compressed batches to fold.
            assert detail.startswith(
                "hash [scan decodes to values (no compressed batches)]"
            )

    def test_high_cardinality_group_stays_compressed(self):
        db = Database()
        db.execute("CREATE TABLE wide (k INT, s STRING)")
        db.executemany(
            "INSERT INTO wide VALUES (?, ?)",
            [(i, f"s{i}") for i in range(300)],
        )
        db.compact("wide")
        detail = {
            row[0].strip(): row[1]
            for row in db.execute(
                "EXPLAIN SELECT s, COUNT(*) FROM wide GROUP BY s"
            )
        }["aggregate"]
        assert detail == (
            "compressed [main batches group by vid codes, delta share "
            "0.0%] out=s,count(*) group_by=s"
        )

    def test_distinct_node_names_the_enumeration(self, db):
        detail = self.detail(db, "SELECT DISTINCT s FROM r", "distinct")
        if is_cods(db):
            assert detail == "live-vid enumeration"
        else:
            assert detail == "streaming dedup"

    def test_order_by_node_names_the_runs(self, db):
        detail = self.detail(
            db, "SELECT s FROM r ORDER BY s DESC", "order_by"
        )
        if is_cods(db):
            assert detail == "s DESC (dictionary-order presorted runs)"
        else:
            assert detail == "s DESC (materialize-and-sort)"

    def test_analyze_aggregate_counts_match_the_select(self, db):
        expected = db.execute(self.AGG)
        rows = db.execute("EXPLAIN ANALYZE " + self.AGG)
        by_operator = {row[0].strip(): row for row in rows}
        assert by_operator["aggregate"][4] == len(expected)
        assert by_operator["select"][4] == len(expected)
