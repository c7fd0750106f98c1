#!/usr/bin/env python3
"""Compressed-domain aggregation benchmark: GROUP BY on dictionary
codes vs the row-at-a-time oracle.

The aggregation subsystem (``repro.exec.aggregate``) promises that a
low-cardinality GROUP BY over the compressed main store never decodes
a data row: COUNTs are the bitmaps' popcounts when nothing is selected
and a ``bincount`` of the column's cached vid array at the selected
positions otherwise, and SUM/MIN/MAX/AVG are NumPy reductions of the
(group, value vid) joint counts against the dictionary's typed values
instead of row values.  With no WHERE the first statement on a
main-store generation keeps those reductions as the generation's
whole-table partials, O(groups), and every later statement folds them
less the deleted rows' own.  This measures that promise
against a row-wise oracle — materialize every merged row as a tuple,
group in a Python dict — on a 2-column table (32-group key, 200-value
measure) with a non-empty delta:

* ``grouped_count`` — ``SELECT grp, COUNT(*) ... GROUP BY grp``; the
  compressed path must be at least ``--min-speedup`` (default 3×)
  faster, the gate of record;
* ``grouped_sum``, ``grouped_multi`` and ``global`` — reported for
  context, with no gate (grouped SUM, and grouped SUM/MIN/MAX/AVG of
  one column, the shape of the end-to-end ``analytic_read`` workload's
  ``agg_sum``; ungrouped COUNT/SUM/MIN/MAX).

Each query runs on a database built for it alone.  Its first run there
(``first_seconds``) builds the generation's codes, histograms and
partials: the histogram of the cached joint (group, value) codes, or
the per-vid counts ungrouped, and one reduction per kind of aggregate.
``seconds`` is the best of ``repeats`` runs, the first included, so
from the second run on it times a warm statement folding the cached
partials; ``speedup`` and the gate read it.

Both the CODS engine (a ``Database``: main + delta, reported as
``mutable``) and the query-level ``ColumnStoreAdapter`` (``column``)
run; the gate applies to the CODS engine, where epoch-consistent delta
merging is part of the measured work.  The column store is the
deliberate query-level baseline — its scans decode every column, so
both paths
pay full decompression and its ratios hover near 1×; it is reported
to document that aggregation pushdown cannot rescue a decode-first
scan.  Results go to ``BENCH_aggregate.json``.

    python benchmarks/bench_aggregate.py [--rows N] [--out F]
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro.bench.exporters import aggregate_json
from repro.db import Database
from repro.delta import CompactionPolicy
from repro.exec import iter_rows
from repro.sql import ColumnStoreAdapter, SqlExecutor
from repro.sql.parser import parse_sql
from repro.storage.schema import ColumnSchema, TableSchema
from repro.storage.table import Table
from repro.storage.types import DataType

DEFAULT_ROWS = 1_000_000
MIN_SPEEDUP = 3.0
TABLE = "t"
#: grp draws from 32 values, so the gated grouped COUNT reads 32
#: popcounts against the oracle's per-row hashing.
GRP_CARDINALITY = 32
VALUE_CARDINALITY = 200

GROUPED_COUNT_SQL = f"SELECT grp, COUNT(*) FROM {TABLE} GROUP BY grp"
GROUPED_SUM_SQL = f"SELECT grp, SUM(v) FROM {TABLE} GROUP BY grp"
GROUPED_MULTI_SQL = (
    f"SELECT grp, SUM(v), MIN(v), MAX(v), AVG(v) FROM {TABLE} GROUP BY grp"
)
GLOBAL_SQL = f"SELECT COUNT(*), SUM(v), MIN(v), MAX(v) FROM {TABLE}"


def build_table(nrows: int, seed: int = 2010) -> Table:
    rng = np.random.default_rng(seed)
    schema = TableSchema(
        TABLE,
        (
            ColumnSchema("grp", DataType.STRING),
            ColumnSchema("v", DataType.INT),
        ),
    )
    # A skewed group key: a handful of heavy groups plus a long-ish
    # tail, the shape the workload generator's aggregate strategy uses.
    weights = 1.0 / np.arange(1, GRP_CARDINALITY + 1)
    weights /= weights.sum()
    data = {
        "grp": [
            f"g{i:02d}"
            for i in rng.choice(GRP_CARDINALITY, nrows, p=weights)
        ],
        "v": rng.integers(0, VALUE_CARDINALITY, nrows).tolist(),
    }
    return Table.from_columns(schema, data)


def build_adapter(nrows: int, backend: str):
    """The storage adapter under test: a query-level column store for
    ``column``, else a CODS ``Database``'s adapter with a live delta."""
    if backend == "column":
        adapter = ColumnStoreAdapter()
        adapter.load_table(build_table(nrows))
        return adapter
    db = Database(policy=CompactionPolicy.never())
    db.load_table(build_table(nrows))
    # A non-empty delta (~0.5% buffered inserts plus a few masked
    # deletes): the compressed path must merge epoch-consistent
    # hash partials from the buffer with the popcount partials.
    for i in range(max(1, nrows // 200)):
        db.execute(
            f"INSERT INTO {TABLE} VALUES "
            f"('g{i % GRP_CARDINALITY:02d}', "
            f"{i % VALUE_CARDINALITY})"
        )
    db.execute(f"DELETE FROM {TABLE} WHERE v = {VALUE_CARDINALITY - 1}")
    return db.adapter


def row_oracle(adapter, sql: str) -> list[tuple]:
    """The seed row-at-a-time aggregation: materialize every merged
    row as a tuple and fold it into a Python dict, exactly what a
    pre-aggregation caller had to do client-side."""
    if sql == GROUPED_COUNT_SQL:
        groups: dict = {}
        for grp, _v in iter_rows(adapter.scan_batches(TABLE)):
            groups[grp] = groups.get(grp, 0) + 1
        return sorted(groups.items())
    if sql == GROUPED_SUM_SQL:
        sums: dict = {}
        for grp, v in iter_rows(adapter.scan_batches(TABLE)):
            sums[grp] = sums.get(grp, 0) + v
        return sorted(sums.items())
    if sql == GROUPED_MULTI_SQL:
        parts: dict = {}
        for grp, v in iter_rows(adapter.scan_batches(TABLE)):
            count, total, low, high = parts.get(grp, (0, 0, v, v))
            parts[grp] = (count + 1, total + v, min(low, v), max(high, v))
        return sorted(
            (grp, total, low, high, total / count)
            for grp, (count, total, low, high) in parts.items()
        )
    if sql == GLOBAL_SQL:
        count, total = 0, 0
        low, high = None, None
        for _grp, v in iter_rows(adapter.scan_batches(TABLE)):
            count += 1
            total += v
            low = v if low is None or v < low else low
            high = v if high is None or v > high else high
        return [(count, total, low, high)]
    raise ValueError(sql)


def _best_of(callable_, repeats: int) -> tuple[float, float, list]:
    """``(best, first, rows)``: the least and the first of ``repeats``
    timed calls, and the rows of the last."""
    times = []
    rows = None
    for _ in range(repeats):
        started = time.perf_counter()
        rows = callable_()
        times.append(time.perf_counter() - started)
    return min(times), times[0], rows


def bench_query(adapter, sql: str, repeats: int = 5) -> dict:
    """Best-of-``repeats`` wall time for the compressed path (through
    the real SELECT entry point) and the row oracle, with a
    result-equality check, and the compressed path's first run on
    ``adapter``, a fresh database (``first_seconds``)."""
    executor = SqlExecutor(adapter)
    select = parse_sql(sql)
    agg_seconds, first_seconds, agg_rows = _best_of(
        lambda: executor.execute(select), repeats
    )
    oracle_seconds, _first, oracle_rows = _best_of(
        lambda: row_oracle(adapter, sql), repeats
    )
    if sorted(map(repr, agg_rows)) != sorted(map(repr, oracle_rows)):
        raise AssertionError(f"paths diverged on {sql!r}")
    return {
        "sql": sql,
        "groups": len(agg_rows),
        "oracle": {"seconds": oracle_seconds, "repeats": repeats},
        "aggregate": {"seconds": agg_seconds, "repeats": repeats,
                      "first_seconds": first_seconds},
        "speedup": oracle_seconds / max(agg_seconds, 1e-9),
    }


def run_backend(nrows: int, backend: str) -> dict:
    """Every query of ``backend``, each on a freshly built database."""
    stats = build_adapter(nrows, backend).table_stats(TABLE)
    record = {
        "backend": backend,
        "main_rows": stats.main_rows,
        "delta_rows": stats.delta_rows,
    }
    for label, sql in (
        ("grouped_count", GROUPED_COUNT_SQL),
        ("grouped_sum", GROUPED_SUM_SQL),
        ("grouped_multi", GROUPED_MULTI_SQL),
        ("global", GLOBAL_SQL),
    ):
        record[label] = bench_query(build_adapter(nrows, backend), sql)
    return record


def run(nrows: int, min_speedup: float = MIN_SPEEDUP) -> dict:
    mutable = run_backend(nrows, "mutable")
    column = run_backend(nrows, "column")
    gated = mutable["grouped_count"]
    if gated["groups"] > 64:
        raise AssertionError(
            f"gate query produced {gated['groups']} groups; "
            "the gate is defined on a low-cardinality GROUP BY (<= 64)"
        )
    if gated["speedup"] < min_speedup:
        raise AssertionError(
            f"compressed aggregation is only {gated['speedup']:.2f}x "
            f"faster than the row-wise oracle on the grouped COUNT "
            f"(gate: {min_speedup:.2f}x)"
        )
    return {
        "benchmark": "aggregate",
        "rows": nrows,
        "min_speedup": min_speedup,
        "mutable": mutable,
        "column": column,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark compressed-domain aggregation against "
        "the row-at-a-time oracle"
    )
    parser.add_argument("--rows", type=int, default=DEFAULT_ROWS,
                        help="main-store rows of the 2-column table")
    parser.add_argument("--out", type=str, default="BENCH_aggregate.json",
                        help="output JSON path")
    parser.add_argument(
        "--min-speedup", type=float, default=MIN_SPEEDUP,
        help="fail below this aggregate-vs-oracle speedup on the "
             "grouped COUNT (CI smoke passes a looser bound to "
             "tolerate shared-runner timer noise)",
    )
    args = parser.parse_args(argv)

    payload = run(args.rows, args.min_speedup)
    aggregate_json(payload, args.out)

    for backend in ("mutable", "column"):
        record = payload[backend]
        print(
            f"{backend} @ {record['main_rows']} main rows "
            f"(+{record['delta_rows']} delta)"
        )
        for label in ("grouped_count", "grouped_sum", "grouped_multi",
                      "global"):
            q = record[label]
            print(
                f"  {label:>13}: oracle "
                f"{q['oracle']['seconds'] * 1e3:8.2f} ms | "
                f"aggregate {q['aggregate']['seconds'] * 1e3:8.2f} ms "
                f"(first {q['aggregate']['first_seconds'] * 1e3:8.2f}) | "
                f"{q['speedup']:6.2f}x ({q['groups']} groups)"
            )
    print(
        f"  gate: mutable grouped COUNT speedup >= "
        f"{payload['min_speedup']:.2f}x  ok"
    )
    print(f"  wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
