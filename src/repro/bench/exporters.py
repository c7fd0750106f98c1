"""Exporting benchmark results for external plotting.

`series_csv` writes Figure 3-style results in long form (one row per
measured point); `table1_csv` writes the per-operator grid.  Both are
plain CSV so any plotting tool can regenerate the paper's charts.
`write_path_json` persists the write-path benchmark
(``benchmarks/bench_write_path.py``) so the update-throughput
trajectory can be tracked across revisions.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path


def series_csv(results, path) -> None:
    """Write BenchResult records as long-form CSV."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(
            handle,
            fieldnames=[
                "figure", "series", "system", "rows", "distinct", "seconds",
            ],
        )
        writer.writeheader()
        for result in results:
            writer.writerow(result.as_row())


def table1_csv(rows, path, series=("D", "C+I", "M")) -> None:
    """Write run_table1 output as CSV (operator × system grid)."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["operator", "rows", *series])
        for record in rows:
            writer.writerow(
                [record["operator"], record["rows"]]
                + [record[label] for label in series]
            )


def bench_json(payload: dict, path) -> None:
    """Write any benchmark record as indented JSON."""
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_bench_json(path) -> dict:
    """Read back a benchmark record written by :func:`bench_json`."""
    return json.loads(Path(path).read_text())


def write_path_json(payload: dict, path) -> None:
    """Write the write-path benchmark record as indented JSON."""
    bench_json(payload, path)


def load_write_path_json(path) -> dict:
    """Read back a write-path benchmark record."""
    return load_bench_json(path)


def session_api_json(payload: dict, path) -> None:
    """Write the session-API benchmark record
    (``benchmarks/bench_session_api.py``) as indented JSON."""
    bench_json(payload, path)


def load_session_api_json(path) -> dict:
    """Read back a session-API benchmark record."""
    return load_bench_json(path)


def vectorized_scan_json(payload: dict, path) -> None:
    """Write the vectorized-scan benchmark record
    (``benchmarks/bench_vectorized_scan.py``) as indented JSON."""
    bench_json(payload, path)


def load_vectorized_scan_json(path) -> dict:
    """Read back a vectorized-scan benchmark record."""
    return load_bench_json(path)


def obs_overhead_json(payload: dict, path) -> None:
    """Write the observability-overhead benchmark record
    (``benchmarks/bench_obs_overhead.py``) as indented JSON."""
    bench_json(payload, path)


def load_obs_overhead_json(path) -> dict:
    """Read back an observability-overhead benchmark record."""
    return load_bench_json(path)


def wal_commit_json(payload: dict, path) -> None:
    """Write the WAL commit-overhead benchmark record
    (``benchmarks/bench_wal_commit.py``) as indented JSON."""
    bench_json(payload, path)


def load_wal_commit_json(path) -> dict:
    """Read back a WAL commit-overhead benchmark record."""
    return load_bench_json(path)


def server_json(payload: dict, path) -> None:
    """Write the network-server benchmark record
    (``benchmarks/bench_server.py``) as indented JSON."""
    bench_json(payload, path)


def load_server_json(path) -> dict:
    """Read back a network-server benchmark record."""
    return load_bench_json(path)


def aggregate_json(payload: dict, path) -> None:
    """Write the compressed-domain aggregation benchmark record
    (``benchmarks/bench_aggregate.py``) as indented JSON."""
    bench_json(payload, path)


def load_aggregate_json(path) -> dict:
    """Read back an aggregation benchmark record."""
    return load_bench_json(path)


def load_series_csv(path) -> list[dict]:
    """Read back a series CSV (values re-typed)."""
    path = Path(path)
    out = []
    with path.open(newline="") as handle:
        for row in csv.DictReader(handle):
            row["rows"] = int(row["rows"])
            row["distinct"] = int(row["distinct"])
            row["seconds"] = float(row["seconds"])
            out.append(row)
    return out
