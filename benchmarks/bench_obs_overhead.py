#!/usr/bin/env python3
"""Observability-overhead benchmark: the always-on counters must be
(nearly) free.

The metrics registry charges every SELECT with batch/row counters
(``exec.batches``, ``exec.rows_decoded``, …) — accumulated per *batch*
during materialization and flushed to the registry once per query, so
the per-row cost is zero by construction.  This measures that claim on
the vectorized-scan workload (same table, same queries as
``bench_vectorized_scan.py``), comparing three executors over one
database state:

* ``baseline`` — ``SqlExecutor(adapter, instrument=False)``: no
  counting at all (the pre-observability pipeline);
* ``instrumented`` — the default executor: always-on counters; the
  gate requires its overhead over baseline ≤ ``--max-overhead``
  (default 5%);
* ``traced`` — ``trace_queries=True``: per-stage span timing, two
  clock reads per batch or chunk each stage emits.  Opt-in, so it is
  reported for context, never gated.

The overhead under test (a few percent of a sub-millisecond query) is
the same order as scheduler and frequency-scaling jitter, so the
estimator is built for drift rather than raw best-of: baseline and
instrumented run in *alternating adjacent pairs* (slow drift hits both
sides of a pair equally, and alternation cancels any order bias), each
pair yields one instrumented/baseline ratio, and the reported overhead
is the median ratio — re-estimated three times with the median of the
three kept.  A result-equality check runs across all three modes.
Results go to ``BENCH_obs_overhead.json``.

    python benchmarks/bench_obs_overhead.py [--rows N] [--out F]
"""

from __future__ import annotations

import argparse
import gc
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_vectorized_scan import (  # noqa: E402
    DEFAULT_ROWS,
    FULL_SQL,
    SELECTIVE_SQL,
    build_database,
)

from repro.bench.exporters import obs_overhead_json  # noqa: E402
from repro.sql import SqlExecutor  # noqa: E402
from repro.sql.parser import parse_sql  # noqa: E402

MAX_OVERHEAD = 0.05
#: Executions per timed sample (one side of one pair).
SAMPLE_RUNS = 5
#: Alternating baseline/instrumented pairs per overhead estimate.
PAIRS = 60
#: Independent estimates; the median is gated.
TRIALS = 5


def make_executors(adapter) -> dict:
    """The three modes under test, all over the same adapter."""
    baseline = SqlExecutor(adapter, instrument=False)
    instrumented = SqlExecutor(adapter)
    traced = SqlExecutor(adapter)
    traced.trace_queries = True
    return {
        "baseline": baseline,
        "instrumented": instrumented,
        "traced": traced,
    }


def _sample(executor, select, runs: int) -> float:
    """One timed sample: ``runs`` back-to-back executions."""
    started = time.perf_counter()
    for _ in range(runs):
        executor.execute(select)
    return time.perf_counter() - started


def _paired_overhead(baseline, instrumented, select, pairs: int) -> float:
    """One overhead estimate: the median instrumented/baseline ratio
    over ``pairs`` adjacent samples, alternating which mode runs first
    so order bias cancels."""
    ratios = []
    for index in range(pairs):
        if index % 2 == 0:
            base = _sample(baseline, select, SAMPLE_RUNS)
            inst = _sample(instrumented, select, SAMPLE_RUNS)
        else:
            inst = _sample(instrumented, select, SAMPLE_RUNS)
            base = _sample(baseline, select, SAMPLE_RUNS)
        ratios.append(inst / max(base, 1e-12))
    return statistics.median(ratios) - 1.0


def bench_query(executors: dict, sql: str, trials: int) -> dict:
    """The gated estimate (median of ``trials`` paired estimates) plus
    per-mode best-of wall times for context, with a cross-mode
    result-equality check."""
    select = parse_sql(sql)
    rows_by_mode = {
        name: executor.execute(select)  # warmup (caches, dict sizing)
        for name, executor in executors.items()
    }
    reference = rows_by_mode["baseline"]
    for name, rows in rows_by_mode.items():
        if rows != reference:
            raise AssertionError(f"mode {name!r} diverged on {sql!r}")
    # GC off during timing, and the traced mode timed in its own block
    # after the gated comparison: it allocates heavily (a span wrapper
    # per stage), and its churn otherwise lands in whichever mode runs
    # next, skewing the baseline/instrumented pairs.
    gc.collect()
    gc.disable()
    try:
        estimates = [
            _paired_overhead(
                executors["baseline"], executors["instrumented"],
                select, PAIRS,
            )
            for _ in range(trials)
        ]
        best = {}
        for name in ("baseline", "instrumented", "traced"):
            best[name] = min(
                _sample(executors[name], select, 1) for _ in range(9)
            )
    finally:
        gc.enable()
    overhead = statistics.median(estimates)
    return {
        "sql": sql,
        "rows_returned": len(reference),
        "pairs": PAIRS,
        "sample_runs": SAMPLE_RUNS,
        "trials": trials,
        "estimates": estimates,
        "baseline_seconds": best["baseline"],
        "instrumented_seconds": best["instrumented"],
        "traced_seconds": best["traced"],
        "overhead": overhead,
        "traced_overhead": best["traced"] / max(best["baseline"], 1e-9) - 1.0,
    }


def run(
    nrows: int, max_overhead: float = MAX_OVERHEAD, trials: int = TRIALS
) -> dict:
    db = build_database(nrows)
    executors = make_executors(db.adapter)
    queries = {
        "selective": bench_query(executors, SELECTIVE_SQL, trials),
        "full": bench_query(executors, FULL_SQL, trials),
    }
    worst = max(record["overhead"] for record in queries.values())
    if worst > max_overhead:
        raise AssertionError(
            f"always-on counters cost {worst:.1%} over the "
            f"uninstrumented pipeline (gate: <= {max_overhead:.1%})"
        )
    return {
        "benchmark": "obs_overhead",
        "rows": nrows,
        "max_overhead": max_overhead,
        "overhead": worst,
        "queries": queries,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Measure the always-on metrics overhead on the "
        "vectorized-scan workload"
    )
    parser.add_argument("--rows", type=int, default=DEFAULT_ROWS,
                        help="main-store rows of the 6-column table")
    parser.add_argument("--out", type=str, default="BENCH_obs_overhead.json",
                        help="output JSON path")
    parser.add_argument("--trials", type=int, default=TRIALS,
                        help="independent overhead estimates (median gated)")
    parser.add_argument(
        "--max-overhead", type=float, default=MAX_OVERHEAD,
        help="fail above this instrumented-vs-baseline overhead (CI "
             "smoke passes a looser bound to tolerate shared-runner "
             "timer noise)",
    )
    args = parser.parse_args(argv)

    payload = run(args.rows, args.max_overhead, args.trials)
    obs_overhead_json(payload, args.out)

    print(f"observability overhead @ {args.rows} rows")
    for label, record in payload["queries"].items():
        print(
            f"  {label:>9}: base {record['baseline_seconds'] * 1e3:7.2f} ms"
            f" | counted {record['instrumented_seconds'] * 1e3:7.2f} ms"
            f" ({record['overhead']:+6.1%})"
            f" | traced {record['traced_seconds'] * 1e3:7.2f} ms"
            f" ({record['traced_overhead']:+6.1%})"
        )
    print(
        f"  gate: counted overhead <= {payload['max_overhead']:.1%}  ok"
    )
    print(f"  wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
