"""Mixed read/write workloads for the delta-store write path.

Extends the Figure 3 employee workload with a deterministic stream of
DML operations — the traffic shape of an operational system in front of
the read-optimized store: point inserts of new (employee, skill) facts,
skill reassignments (updates), employee off-boarding (deletes) and full
scans interleaved throughout.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.errors import WorkloadError
from repro.exec import iter_rows
from repro.smo.parser import render_literal
from repro.smo.predicate import Comparison
from repro.storage.table import Table
from repro.workload.generator import EmployeeWorkload

INSERT, UPDATE, DELETE, SCAN = "insert", "update", "delete", "scan"

#: The aggregate read shapes of the operational mix: GROUP BY over the
#: skewed low-cardinality columns (Skill ~100 values, Address ~50) plus
#: an ungrouped rollup — the queries the compressed-domain aggregation
#: path answers from popcounts while DML churns the delta.
AGGREGATE_SCAN_QUERIES = (
    "SELECT Skill, COUNT(*) FROM {table} GROUP BY Skill",
    "SELECT Address, COUNT(*), MIN(Employee), MAX(Employee) "
    "FROM {table} GROUP BY Address",
    "SELECT Skill, Address, COUNT(*) FROM {table} GROUP BY Skill, Address",
    "SELECT COUNT(*), COUNT(Skill) FROM {table}",
)


@dataclass(frozen=True)
class WriteOp:
    """One operation of the stream.

    ``kind`` selects which payload fields apply: INSERT carries ``row``;
    UPDATE carries ``assignments`` and ``predicate``; DELETE carries
    ``predicate``; SCAN carries an optional ``query`` template (a
    ``{table}``-parameterized SELECT — an aggregate read from
    :data:`AGGREGATE_SCAN_QUERIES`; ``None`` means a full scan).
    """

    kind: str
    row: tuple | None = None
    assignments: dict | None = None
    predicate: Comparison | None = None
    query: str | None = None

    def sql(self, table: str) -> str:
        """This operation as one SQL statement against ``table`` (the
        form the :class:`repro.db.Database` façade executes)."""
        if self.kind == INSERT:
            values = ", ".join(render_literal(v) for v in self.row)
            return f"INSERT INTO {table} VALUES ({values})"
        if self.kind == UPDATE:
            sets = ", ".join(
                f"{column} = {render_literal(value)}"
                for column, value in self.assignments.items()
            )
            where = self._where_sql()
            return f"UPDATE {table} SET {sets}{where}"
        if self.kind == DELETE:
            return f"DELETE FROM {table}{self._where_sql()}"
        return (self.query or "SELECT * FROM {table}").format(table=table)

    def _where_sql(self) -> str:
        if self.predicate is None:
            return ""
        predicate = self.predicate
        return (
            f" WHERE {predicate.attr} {predicate.op} "
            f"{render_literal(predicate.value)}"
        )


@dataclass(frozen=True)
class MixedReadWriteWorkload:
    """A base table plus a deterministic DML/scan stream.

    Fractions are of ``n_operations``; whatever is left after inserts,
    updates and deletes becomes reads.  ``scan_mix`` shapes those reads
    on the SQL surfaces (:meth:`apply_to_session` /
    :meth:`apply_to_client`): ``"full"`` keeps the original ``SELECT
    *`` scans, ``"aggregate"`` cycles the GROUP BY queries of
    :data:`AGGREGATE_SCAN_QUERIES`, and ``"mixed"`` interleaves both.
    The row-level drivers (:meth:`apply_to`, :meth:`apply_to_adapter`)
    have no SQL surface and always read full scans.  The
    same seed always yields the same table and the same stream.
    """

    nrows: int
    n_operations: int
    n_employees: int = 100
    insert_fraction: float = 0.5
    update_fraction: float = 0.2
    delete_fraction: float = 0.1
    scan_mix: str = "full"
    seed: int = 2010

    def __post_init__(self):
        total = (
            self.insert_fraction + self.update_fraction + self.delete_fraction
        )
        if total > 1.0 + 1e-9:
            raise WorkloadError(
                f"insert/update/delete fractions sum to {total:.3f} > 1"
            )
        if self.scan_mix not in ("full", "aggregate", "mixed"):
            raise WorkloadError(
                f"unknown scan mix {self.scan_mix!r} "
                "(expected 'full', 'aggregate' or 'mixed')"
            )

    def build(self) -> Table:
        """The initial ``R(Employee, Skill, Address)`` main store."""
        return EmployeeWorkload(
            self.nrows, self.n_employees, seed=self.seed
        ).build()

    def operations(self) -> list[WriteOp]:
        """The full operation stream, deterministically shuffled."""
        rng = np.random.default_rng(self.seed + 1)
        counts = {
            INSERT: int(self.n_operations * self.insert_fraction),
            UPDATE: int(self.n_operations * self.update_fraction),
            DELETE: int(self.n_operations * self.delete_fraction),
        }
        counts[SCAN] = self.n_operations - sum(counts.values())
        kinds = np.concatenate(
            [np.full(count, kind, dtype=object)
             for kind, count in counts.items()]
        )
        rng.shuffle(kinds)
        next_new_employee = self.n_employees
        aggregate_cursor = 0
        ops = []
        for kind in kinds:
            if kind == INSERT:
                # New employees arrive alongside new facts for old ones.
                if rng.random() < 0.5:
                    employee = next_new_employee
                    next_new_employee += 1
                else:
                    employee = int(rng.integers(0, self.n_employees))
                ops.append(WriteOp(INSERT, row=(
                    f"emp{employee:07d}",
                    f"skill{int(rng.integers(0, 100)):07d}",
                    f"addr{int(rng.integers(0, 50)):07d}",
                )))
            elif kind == UPDATE:
                ops.append(WriteOp(
                    UPDATE,
                    assignments={
                        "Skill": f"skill{int(rng.integers(0, 100)):07d}"
                    },
                    predicate=self._employee_predicate(rng),
                ))
            elif kind == DELETE:
                ops.append(WriteOp(
                    DELETE, predicate=self._employee_predicate(rng)
                ))
            else:
                query = None
                if self.scan_mix == "aggregate" or (
                    self.scan_mix == "mixed" and rng.random() < 0.5
                ):
                    query = AGGREGATE_SCAN_QUERIES[
                        aggregate_cursor % len(AGGREGATE_SCAN_QUERIES)
                    ]
                    aggregate_cursor += 1
                ops.append(WriteOp(SCAN, query=query))
        return ops

    def _employee_predicate(self, rng) -> Comparison:
        employee = int(rng.integers(0, self.n_employees))
        return Comparison("Employee", "=", f"emp{employee:07d}")

    def apply_to(self, mutable) -> dict:
        """Drive the whole stream against a DML target exposing
        ``insert/update/delete`` plus ``snapshot()`` (a
        :class:`repro.delta.MutableTable`); returns per-kind operation
        counts, the rows affected and the rows scanned.  A SCAN pins an
        MVCC snapshot and reads it through the batch pipeline
        (``snapshot.scan_batches()`` materialized by
        :func:`repro.exec.iter_rows`), the path SELECTs take.
        """
        counters = {INSERT: 0, UPDATE: 0, DELETE: 0, SCAN: 0}
        affected = 0
        scanned = 0
        scan_seconds = 0.0
        for op in self.operations():
            counters[op.kind] += 1
            if op.kind == INSERT:
                mutable.insert(op.row)
                affected += 1
            elif op.kind == UPDATE:
                affected += mutable.update(op.assignments, op.predicate)
            elif op.kind == DELETE:
                affected += mutable.delete(op.predicate)
            else:
                started = time.perf_counter()
                with mutable.snapshot() as snapshot:
                    for _row in iter_rows(snapshot.scan_batches()):
                        scanned += 1
                scan_seconds += time.perf_counter() - started
        counters["rows_affected"] = affected
        counters["rows_scanned"] = scanned
        counters["scan_seconds"] = scan_seconds
        return counters

    def apply_to_adapter(
        self, adapter, table: str = "R", operations=None
    ) -> dict:
        """Drive the stream through direct :class:`~repro.sql.adapter.
        EngineAdapter` calls — the baseline the façade's overhead is
        measured against (``benchmarks/bench_session_api.py``).

        ``operations`` lets a caller pre-build the stream (e.g. outside
        a benchmark's timed region); by default it is generated here.
        """
        counters = {INSERT: 0, UPDATE: 0, DELETE: 0, SCAN: 0}
        affected = 0
        scanned = 0
        if operations is None:
            operations = self.operations()
        for op in operations:
            counters[op.kind] += 1
            if op.kind == INSERT:
                affected += adapter.insert_rows(table, [op.row])
            elif op.kind == UPDATE:
                affected += adapter.update_rows(
                    table, list(op.assignments.items()), op.predicate
                )
            elif op.kind == DELETE:
                affected += adapter.delete_rows(table, op.predicate)
            else:
                for _row in iter_rows(adapter.scan_batches(table)):
                    scanned += 1
        counters["rows_affected"] = affected
        counters["rows_scanned"] = scanned
        return counters

    def apply_to_session(
        self, session, table: str = "R", operations=None
    ) -> dict:
        """Drive the stream as SQL text through a :class:`repro.db.
        Session` (``session.execute`` per operation) — the façade path
        of the mixed read/write workload.

        Alongside the per-kind counters, the returned dict carries a
        ``"metrics"`` summary of what the run charged to the session's
        registry (the delta of the exec counters across the run)."""
        counters = {INSERT: 0, UPDATE: 0, DELETE: 0, SCAN: 0}
        affected = 0
        scanned = 0
        registry = session.adapter.metrics
        before = registry.snapshot()
        if operations is None:
            operations = self.operations()
        for op in operations:
            counters[op.kind] += 1
            result = session.execute(op.sql(table))
            if op.kind == SCAN:
                scanned += len(result)
            elif isinstance(result, int):
                affected += result
        after = registry.snapshot()
        counters["rows_affected"] = affected
        counters["rows_scanned"] = scanned
        counters["metrics"] = {
            name: after[name] - before.get(name, 0)
            for name in (
                "exec.queries", "exec.batches",
                "exec.rows_decoded", "exec.rows_returned",
            )
            if name in after
        }
        return counters

    def apply_to_client(
        self, connection, table: str = "R", operations=None
    ) -> dict:
        """Drive the stream over the wire through a
        :class:`repro.client.Connection` — the network shape of
        :meth:`apply_to_session`, used by ``benchmarks/bench_server.py``
        to measure round-trip overhead and by the multi-client stress
        tests.

        ``connection.execute`` mirrors the session's return shapes
        (row list for SCAN, affected count for DML), so the counters
        come out identical to an in-process run over the same stream.
        """
        counters = {INSERT: 0, UPDATE: 0, DELETE: 0, SCAN: 0}
        affected = 0
        scanned = 0
        if operations is None:
            operations = self.operations()
        for op in operations:
            counters[op.kind] += 1
            result = connection.execute(op.sql(table))
            if op.kind == SCAN:
                scanned += len(result)
            elif isinstance(result, int):
                affected += result
        counters["rows_affected"] = affected
        counters["rows_scanned"] = scanned
        return counters
