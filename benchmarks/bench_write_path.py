#!/usr/bin/env python3
"""Write-path benchmark: delta-store DML vs query-level rebuild.

Not a paper artifact — the paper's store is read-only.  This measures
what the `repro.delta` subsystem buys on evolving data:

* insert throughput into a :class:`~repro.delta.MutableTable` (writes
  land in the uncompressed buffer) vs the query-level
  :class:`~repro.sql.ColumnStoreAdapter` (every batch decompresses and
  rebuilds all columns);
* a mixed insert/update/delete/scan stream with auto-compaction;
* compaction cost and the scan speed it buys back (merged read before
  vs pure-WAH read after);

and verifies the compacted table against an eager row-list oracle
before exporting ``BENCH_write_path.json``.

    python benchmarks/bench_write_path.py [--rows N] [--ops N] [--out F]
"""

from __future__ import annotations

import argparse
import time

from bench_common import mutable_handle as _mutable_for

from repro.bench.exporters import write_path_json
from repro.bitmap import WAHBitmap
from repro.delta import CompactionPolicy
from repro.sql import ColumnStoreAdapter
from repro.storage.table import Table
from repro.workload.readwrite import MixedReadWriteWorkload

DEFAULT_ROWS = 50_000
DEFAULT_OPS = 2_000
# The rebuild path pays O(table) per batch; keep its share of the run
# proportionate so the benchmark finishes in seconds at default scale.
REBUILD_BATCHES = 10


def bench_inserts(workload: MixedReadWriteWorkload, n_inserts: int) -> dict:
    """Insert throughput: delta buffering vs per-batch recompression."""
    inserts = [
        op.row for op in workload.operations() if op.kind == "insert"
    ][:n_inserts]

    mutable = _mutable_for(workload, CompactionPolicy.never())
    started = time.perf_counter()
    for row in inserts:
        mutable.insert(row)
    delta_seconds = time.perf_counter() - started

    # The query-level comparator: every batch rebuilds all columns.
    rebuild = ColumnStoreAdapter()
    rebuild.load_table(workload.build())
    batch = max(1, len(inserts) // REBUILD_BATCHES)
    started = time.perf_counter()
    for index in range(0, len(inserts), batch):
        rebuild.insert_rows("R", inserts[index:index + batch])
    rebuild_seconds = time.perf_counter() - started

    return {
        "inserts": len(inserts),
        "delta_seconds": delta_seconds,
        "delta_rows_per_second": len(inserts) / max(delta_seconds, 1e-9),
        "rebuild_batches": REBUILD_BATCHES,
        "rebuild_seconds": rebuild_seconds,
        "rebuild_rows_per_second": len(inserts) / max(rebuild_seconds, 1e-9),
        "speedup": rebuild_seconds / max(delta_seconds, 1e-9),
    }


def bench_mixed_stream(workload: MixedReadWriteWorkload) -> dict:
    """The full DML/scan stream with auto-compaction enabled."""
    mutable = _mutable_for(workload, CompactionPolicy(max_delta_rows=1024))
    started = time.perf_counter()
    counters = workload.apply_to(mutable)
    seconds = time.perf_counter() - started
    stats = mutable.delta_stats()
    return {
        "operations": workload.n_operations,
        "seconds": seconds,
        "ops_per_second": workload.n_operations / max(seconds, 1e-9),
        "rows_affected": counters["rows_affected"],
        "compactions": stats.compactions,
        "final_live_rows": stats.live_rows,
    }


def bench_compaction(workload: MixedReadWriteWorkload) -> dict:
    """Merged-scan cost before compaction, compaction cost, pure-WAH
    scan cost after — with an oracle check on the result."""
    mutable = _mutable_for(workload, CompactionPolicy.never())
    counters = workload.apply_to(mutable)

    # Measure the query-time merge itself (decode + filter + append):
    # to_rows() is the uncached reference merge.
    started = time.perf_counter()
    merged_rows = mutable.to_rows()
    merged_scan_seconds = time.perf_counter() - started

    stats = mutable.delta_stats()
    started = time.perf_counter()
    compacted = mutable.compact()
    compact_seconds = time.perf_counter() - started

    started = time.perf_counter()
    compacted_rows = compacted.to_rows()
    compacted_scan_seconds = time.perf_counter() - started

    oracle = Table.from_rows(compacted.schema, merged_rows)
    if not compacted.same_content(oracle):
        raise AssertionError("compacted table diverges from the oracle")
    if not all(
        isinstance(bitmap, WAHBitmap)
        for column in compacted.columns()
        for bitmap in column.bitmaps
    ):
        raise AssertionError("expected pure-WAH output")
    if len(compacted_rows) != len(merged_rows):
        raise AssertionError("compaction changed the row count")

    return {
        "rows_affected": counters["rows_affected"],
        "delta_rows_folded": stats.delta_live,
        "main_rows_deleted": stats.deleted_main,
        "merged_scan_seconds": merged_scan_seconds,
        "compact_seconds": compact_seconds,
        "compacted_scan_seconds": compacted_scan_seconds,
        "scan_speedup": merged_scan_seconds
        / max(compacted_scan_seconds, 1e-9),
        "final_rows": len(compacted_rows),
    }


def run(nrows: int, n_operations: int) -> dict:
    workload = MixedReadWriteWorkload(
        nrows, n_operations, n_employees=max(1, min(100, nrows // 10))
    )
    return {
        "benchmark": "write_path",
        "rows": nrows,
        "operations": n_operations,
        "insert_throughput": bench_inserts(
            workload, max(n_operations // 2, 100)
        ),
        "mixed_stream": bench_mixed_stream(workload),
        "compaction": bench_compaction(workload),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the delta-store write path"
    )
    parser.add_argument("--rows", type=int, default=DEFAULT_ROWS,
                        help="initial main-store rows")
    parser.add_argument("--ops", type=int, default=DEFAULT_OPS,
                        help="operations in the mixed stream")
    parser.add_argument("--out", type=str, default="BENCH_write_path.json",
                        help="output JSON path")
    args = parser.parse_args(argv)

    payload = run(args.rows, args.ops)
    write_path_json(payload, args.out)

    inserts = payload["insert_throughput"]
    mixed = payload["mixed_stream"]
    compaction = payload["compaction"]
    print(f"write path @ {args.rows} rows, {args.ops} ops")
    print(
        f"  inserts: delta {inserts['delta_rows_per_second']:,.0f} rows/s "
        f"vs rebuild {inserts['rebuild_rows_per_second']:,.0f} rows/s "
        f"({inserts['speedup']:.1f}x)"
    )
    print(
        f"  mixed stream: {mixed['ops_per_second']:,.0f} ops/s, "
        f"{mixed['compactions']} compactions"
    )
    print(
        f"  compaction: {compaction['compact_seconds'] * 1e3:.1f} ms, "
        f"scan {compaction['scan_speedup']:.1f}x faster after"
    )
    print(f"  wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
