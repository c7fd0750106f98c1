#!/usr/bin/env python3
"""Session-API benchmark: what the `repro.db` façade costs.

The façade promises consolidation without a serving tax.  This measures
the mixed read/write workload three ways over the *same* delta-backed
storage:

* ``adapter`` — direct :class:`~repro.sql.adapter.EngineAdapter` calls
  (no parsing, no routing: the floor);
* ``executor`` — SQL text through the pre-façade entry point,
  :meth:`~repro.sql.executor.SqlExecutor.execute`;
* ``session`` — the same SQL text through
  :meth:`repro.db.Session.execute` (one parse, then routing by the
  parsed type on top of the executor).

``facade_overhead_fraction`` (session vs executor — identical work
except the façade's routing) must stay ≤ 5%; the bench raises
otherwise.  The session-vs-adapter gap is also reported: it is
dominated by SQL parsing, which the old text entry point paid
identically.  A second scenario times whole-catalog transaction scopes
(epoch-vector pin/release plus pinned multi-table reads) and verifies
the frozen view under concurrent DML.

Results go to ``BENCH_session_api.json``.

    python benchmarks/bench_session_api.py [--rows N] [--ops N] [--out F]
"""

from __future__ import annotations

import argparse
import time

from repro.bench.exporters import session_api_json
from repro.db import Database
from repro.delta import CompactionPolicy
from repro.sql import SqlExecutor
from repro.workload.readwrite import MixedReadWriteWorkload

DEFAULT_ROWS = 20_000
DEFAULT_OPS = 1_000
MAX_FACADE_OVERHEAD = 0.05


def _policy() -> CompactionPolicy:
    return CompactionPolicy(max_delta_rows=1024)


def _fresh_db(workload: MixedReadWriteWorkload) -> Database:
    db = Database(policy=_policy())
    db.load_table(workload.build())
    return db


def _run_text(workload: MixedReadWriteWorkload, execute) -> tuple[dict, float]:
    """Time one pass of the pre-rendered statement stream through
    ``execute`` (the executor's or the session's).  Stream generation
    and SQL rendering happen *before* the timer on every path, so the
    timed regions differ only in the entry point under test."""
    ops = workload.operations()
    statements = [op.sql("R") for op in ops]
    scans = [op.kind == "scan" for op in ops]
    counters = {"rows_affected": 0, "rows_scanned": 0}
    started = time.perf_counter()
    for statement, is_scan in zip(statements, scans):
        result = execute(statement)
        if is_scan:
            counters["rows_scanned"] += len(result)
        elif isinstance(result, int):
            counters["rows_affected"] += result
    return counters, time.perf_counter() - started


def _run_adapter(workload: MixedReadWriteWorkload) -> tuple[dict, float]:
    adapter = _fresh_db(workload).adapter
    ops = workload.operations()  # pre-built, like the text paths
    started = time.perf_counter()
    counters = workload.apply_to_adapter(adapter, operations=ops)
    return counters, time.perf_counter() - started


def _run_executor(workload: MixedReadWriteWorkload) -> tuple[dict, float]:
    executor = SqlExecutor(_fresh_db(workload).adapter)
    return _run_text(workload, executor.execute)


def _run_session(workload: MixedReadWriteWorkload) -> tuple[dict, float]:
    session = _fresh_db(workload).session()
    return _run_text(workload, session.execute)


def bench_mixed_overhead(
    workload: MixedReadWriteWorkload,
    repeats: int = 5,
    max_overhead: float = MAX_FACADE_OVERHEAD,
) -> dict:
    """Best-of-``repeats`` wall time per path, plus overhead ratios.

    Repeats are *interleaved* (adapter, executor, session, adapter, …)
    so thermal and allocator drift hits every path alike instead of
    biasing whichever ran last."""
    runners = {
        "adapter": _run_adapter,
        "executor": _run_executor,
        "session": _run_session,
    }
    results = {}
    checksums = {}
    for _ in range(repeats):
        for label, runner in runners.items():
            counters, seconds = runner(workload)
            best = results.get(label)
            if best is None or seconds < best["seconds"]:
                results[label] = {
                    "seconds": seconds,
                    "ops_per_second": workload.n_operations
                    / max(seconds, 1e-9),
                    "rows_affected": counters["rows_affected"],
                    "rows_scanned": counters["rows_scanned"],
                }
    for label, best in results.items():
        best["repeats"] = repeats
        checksums[label] = (best["rows_affected"], best["rows_scanned"])
    if len(set(checksums.values())) != 1:
        raise AssertionError(f"execution paths diverged: {checksums}")
    facade = (
        results["session"]["seconds"] / max(results["executor"]["seconds"],
                                            1e-9)
        - 1.0
    )
    results["facade_overhead_fraction"] = facade
    results["text_vs_adapter_fraction"] = (
        results["session"]["seconds"] / max(results["adapter"]["seconds"],
                                            1e-9)
        - 1.0
    )
    if facade > max_overhead:
        raise AssertionError(
            f"facade overhead {facade:.1%} exceeds "
            f"{max_overhead:.0%} over the text entry point"
        )
    return results


def bench_transaction_scope(
    workload: MixedReadWriteWorkload, n_transactions: int = 50
) -> dict:
    """Whole-catalog read scopes under concurrent DML: pin/release cost
    and pinned multi-table read throughput, with a consistency check."""
    db = Database(policy=_policy())
    db.load_table(workload.build())
    db.execute("CREATE TABLE audit (Employee STRING, Note STRING)")
    db.execute("INSERT INTO audit VALUES ('emp0000000', 'seed')")

    inserts = [op for op in workload.operations() if op.kind == "insert"]
    started = time.perf_counter()
    reads = 0
    for index in range(n_transactions):
        with db.transaction(read_only=True) as tx:
            before_r = tx.execute("SELECT * FROM R")
            before_audit = tx.execute("SELECT * FROM audit")
            # Concurrent writes land outside the pinned scope ...
            op = inserts[index % len(inserts)]
            db.execute(op.sql("R"))
            db.execute(
                "INSERT INTO audit VALUES (?, ?)",
                (op.row[0], f"tx{index}"),
            )
            db.compact_step("R")
            # ... and the epoch vector keeps both reads frozen.
            if tx.execute("SELECT * FROM R") != before_r:
                raise AssertionError("pinned R moved under DML")
            if tx.execute("SELECT * FROM audit") != before_audit:
                raise AssertionError("pinned audit moved under DML")
            reads += 4
    seconds = time.perf_counter() - started
    return {
        "transactions": n_transactions,
        "pinned_reads": reads,
        "seconds": seconds,
        "transactions_per_second": n_transactions / max(seconds, 1e-9),
        "final_tables": db.tables(),
    }


def run(
    nrows: int,
    n_operations: int,
    max_overhead: float = MAX_FACADE_OVERHEAD,
) -> dict:
    workload = MixedReadWriteWorkload(
        nrows, n_operations, n_employees=max(1, min(100, nrows // 10))
    )
    return {
        "benchmark": "session_api",
        "rows": nrows,
        "operations": n_operations,
        "max_facade_overhead": max_overhead,
        "mixed_overhead": bench_mixed_overhead(
            workload, max_overhead=max_overhead
        ),
        "transaction_scope": bench_transaction_scope(workload),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the repro.db façade against direct calls"
    )
    parser.add_argument("--rows", type=int, default=DEFAULT_ROWS,
                        help="initial main-store rows")
    parser.add_argument("--ops", type=int, default=DEFAULT_OPS,
                        help="operations in the mixed stream")
    parser.add_argument("--out", type=str, default="BENCH_session_api.json",
                        help="output JSON path")
    parser.add_argument(
        "--max-overhead", type=float, default=MAX_FACADE_OVERHEAD,
        help="fail above this facade-overhead fraction (CI smoke passes "
             "a looser bound to tolerate shared-runner timer noise)",
    )
    args = parser.parse_args(argv)

    payload = run(args.rows, args.ops, args.max_overhead)
    session_api_json(payload, args.out)

    mixed = payload["mixed_overhead"]
    scope = payload["transaction_scope"]
    print(f"session api @ {args.rows} rows, {args.ops} ops")
    for label in ("adapter", "executor", "session"):
        print(
            f"  {label:>8}: {mixed[label]['ops_per_second']:,.0f} ops/s "
            f"({mixed[label]['seconds'] * 1e3:.1f} ms)"
        )
    print(
        f"  facade overhead vs text entry point: "
        f"{mixed['facade_overhead_fraction']:+.2%} "
        f"(limit {payload['max_facade_overhead']:.0%}); "
        f"text vs direct adapter: "
        f"{mixed['text_vs_adapter_fraction']:+.2%}"
    )
    print(
        f"  transaction scopes: "
        f"{scope['transactions_per_second']:,.0f} tx/s with "
        f"{scope['pinned_reads']} pinned multi-table reads verified"
    )
    print(f"  wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
