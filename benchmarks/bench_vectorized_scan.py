#!/usr/bin/env python3
"""Vectorized-scan benchmark: the batch pipeline vs the seed row path.

The columnar read refactor (``repro.exec``) promises that a selective
filtered scan never pays for the rows it rejects: the predicate is
resolved to selected positions in the compressed domain (main store)
and by the compiled evaluators (write buffer), and only selected
rows are decoded.  This measures that against the *seed* row-at-a-time
path — scan every merged row as a tuple, test the predicate row by
row — on a 6-column table with a non-empty delta:

* ``selective`` — an equality predicate matching ≤ 10% of the rows;
  the batch pipeline must be at least ``--min-speedup`` (default 1.5×)
  faster, enforced like the session benchmark's façade-overhead gate;
* ``full`` — an unfiltered scan, reported for context (both paths
  materialize every row, so they should be close).

Results go to ``BENCH_vectorized_scan.json``.

    python benchmarks/bench_vectorized_scan.py [--rows N] [--out F]
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro.bench.exporters import vectorized_scan_json
from repro.db import Database
from repro.delta import CompactionPolicy
from repro.exec import iter_rows
from repro.smo.predicate import Comparison
from repro.sql.parser import parse_sql
from repro.storage.schema import ColumnSchema, TableSchema
from repro.storage.table import Table
from repro.storage.types import DataType

DEFAULT_ROWS = 40_000
MIN_SPEEDUP = 1.5
TABLE = "t6"
#: grp draws from 20 values, so one equality matches ~5% of the rows.
GRP_CARDINALITY = 20
SELECTIVE_SQL = f"SELECT * FROM {TABLE} WHERE grp = 'g03'"
FULL_SQL = f"SELECT * FROM {TABLE}"


def build_database(nrows: int, seed: int = 2010) -> Database:
    """A 6-column table: ``nrows`` in the compressed main store plus a
    non-empty delta (~2% buffered inserts and a few masked deletes)."""
    rng = np.random.default_rng(seed)
    schema = TableSchema(
        TABLE,
        (
            ColumnSchema("grp", DataType.STRING),
            ColumnSchema("v1", DataType.INT),
            ColumnSchema("v2", DataType.INT),
            ColumnSchema("s1", DataType.STRING),
            ColumnSchema("s2", DataType.STRING),
            ColumnSchema("flag", DataType.INT),
        ),
    )
    data = {
        "grp": [f"g{i:02d}" for i in rng.integers(0, GRP_CARDINALITY, nrows)],
        "v1": rng.integers(0, 100, nrows),
        "v2": rng.integers(0, 50, nrows),
        "s1": [f"s{i:03d}" for i in rng.integers(0, 64, nrows)],
        "s2": [f"t{i:02d}" for i in rng.integers(0, 32, nrows)],
        "flag": rng.integers(0, 2, nrows),
    }
    db = Database(policy=CompactionPolicy.never())
    db.load_table(Table.from_columns(schema, data))
    # A non-empty delta: buffered inserts (some matching the selective
    # predicate) and a handful of main-store deletions.
    for i in range(max(1, nrows // 50)):
        db.execute(
            f"INSERT INTO {TABLE} VALUES "
            f"('g{i % GRP_CARDINALITY:02d}', {i % 100}, {i % 50}, "
            f"'s{i % 64:03d}', 't{i % 32:02d}', {i % 2})"
        )
    db.execute(f"DELETE FROM {TABLE} WHERE v1 = 99 AND flag = 1")
    return db


def row_path(adapter, table: str, predicate=None) -> list[tuple]:
    """The row-at-a-time SELECT: materialize every merged row as a
    tuple (an unfiltered batch scan) and test the predicate row by
    row."""
    rows = iter_rows(adapter.scan_batches(table))
    if predicate is None:
        return list(rows)
    schema = adapter.schema(table)
    positions = {n: i for i, n in enumerate(schema.column_names)}
    return [
        row
        for row in rows
        if predicate.matches(lambda a, r=row: r[positions[a]])
    ]


def batch_path(executor, select) -> list[tuple]:
    """The vectorized pipeline, through the real SELECT entry point."""
    return executor.execute(select)


def _best_of(callable_, repeats: int) -> tuple[float, list]:
    best = None
    rows = None
    for _ in range(repeats):
        started = time.perf_counter()
        rows = callable_()
        seconds = time.perf_counter() - started
        if best is None or seconds < best:
            best = seconds
    return best, rows


def bench_scan(db: Database, sql: str, predicate, repeats: int = 5) -> dict:
    """Best-of-``repeats`` wall time for both paths over the same
    database state, with a result-equality check."""
    from repro.sql import SqlExecutor

    executor = SqlExecutor(db.adapter)
    select = parse_sql(sql)
    batch_seconds, batch_rows = _best_of(
        lambda: batch_path(executor, select), repeats
    )
    row_seconds, row_rows = _best_of(
        lambda: row_path(db.adapter, TABLE, predicate), repeats
    )
    if sorted(batch_rows) != sorted(row_rows):
        raise AssertionError(f"paths diverged on {sql!r}")
    total = len(row_path(db.adapter, TABLE))
    return {
        "sql": sql,
        "rows_returned": len(batch_rows),
        "selectivity": len(batch_rows) / max(total, 1),
        "row": {"seconds": row_seconds, "repeats": repeats},
        "batch": {"seconds": batch_seconds, "repeats": repeats},
        "speedup": row_seconds / max(batch_seconds, 1e-9),
    }


def run(nrows: int, min_speedup: float = MIN_SPEEDUP) -> dict:
    db = build_database(nrows)
    delta_stats = db.delta_stats()[0].as_dict()
    selective = bench_scan(
        db, SELECTIVE_SQL, Comparison("grp", "=", "g03")
    )
    full = bench_scan(db, FULL_SQL, None)
    if selective["selectivity"] > 0.10:
        raise AssertionError(
            f"selective scan matched {selective['selectivity']:.1%} "
            "of the rows; the gate needs <= 10%"
        )
    if selective["speedup"] < min_speedup:
        raise AssertionError(
            f"batch pipeline is only {selective['speedup']:.2f}x faster "
            f"than the row path on the selective scan "
            f"(gate: {min_speedup:.2f}x)"
        )
    return {
        "benchmark": "vectorized_scan",
        "rows": nrows,
        "delta_rows": delta_stats["delta_live"],
        "deleted_main": delta_stats["deleted_main"],
        "min_speedup": min_speedup,
        "selective": selective,
        "full": full,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the batch pipeline against the seed "
        "row-at-a-time scan"
    )
    parser.add_argument("--rows", type=int, default=DEFAULT_ROWS,
                        help="main-store rows of the 6-column table")
    parser.add_argument("--out", type=str,
                        default="BENCH_vectorized_scan.json",
                        help="output JSON path")
    parser.add_argument(
        "--min-speedup", type=float, default=MIN_SPEEDUP,
        help="fail below this batch-vs-row speedup on the selective "
             "scan (CI smoke passes a looser bound to tolerate "
             "shared-runner timer noise)",
    )
    args = parser.parse_args(argv)

    payload = run(args.rows, args.min_speedup)
    vectorized_scan_json(payload, args.out)

    selective, full = payload["selective"], payload["full"]
    print(
        f"vectorized scan @ {args.rows} rows "
        f"(+{payload['delta_rows']} delta, "
        f"-{payload['deleted_main']} deleted)"
    )
    for label, record in (("selective", selective), ("full", full)):
        print(
            f"  {label:>9}: row {record['row']['seconds'] * 1e3:8.2f} ms | "
            f"batch {record['batch']['seconds'] * 1e3:8.2f} ms | "
            f"{record['speedup']:5.2f}x "
            f"({record['rows_returned']} rows, "
            f"{record['selectivity']:.1%})"
        )
    print(
        f"  gate: selective speedup >= {payload['min_speedup']:.2f}x  ok"
    )
    print(f"  wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
