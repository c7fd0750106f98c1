"""Benchmark harness: sweeps, timing and result records.

Regenerates the paper's evaluation (Figure 3a/3b) and the per-operator
Table 1 micro-benchmarks.  The paper runs 10 M rows with distinct-value
counts 100 … 1 M; scale is configurable (``CODS_BENCH_ROWS``) and the
sweep keeps the paper's distinct/rows ratios so the curve *shapes* are
comparable; absolute times are not (pure Python, scaled-down rows).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.baselines.systems import SERIES
from repro.smo.ops import (
    AddColumn,
    CopyTable,
    CreateTable,
    DropColumn,
    DropTable,
    PartitionTable,
    RenameColumn,
    RenameTable,
    UnionTables,
)
from repro.smo.predicate import Comparison
from repro.storage.schema import ColumnSchema, TableSchema
from repro.storage.types import DataType
from repro.workload.generator import EmployeeWorkload

PAPER_ROWS = 10_000_000
PAPER_DISTINCT_SWEEP = (100, 1_000, 10_000, 100_000, 1_000_000)

DEFAULT_ROWS = 200_000

FIG3A_SERIES = ("D", "C", "C+I", "S", "M")
FIG3B_SERIES = ("D", "C", "C+I", "M")  # the paper omits S for mergence


def bench_rows() -> int:
    """Row count for benchmarks (``CODS_BENCH_ROWS`` env override)."""
    return int(os.environ.get("CODS_BENCH_ROWS", DEFAULT_ROWS))


def scaled_distinct_sweep(nrows: int) -> list[int]:
    """The paper's sweep, scaled to keep distinct/rows ratios."""
    sweep = []
    for paper_distinct in PAPER_DISTINCT_SWEEP:
        scaled = max(2, round(paper_distinct * nrows / PAPER_ROWS))
        if scaled <= nrows and scaled not in sweep:
            sweep.append(scaled)
    return sweep


@dataclass(frozen=True)
class BenchResult:
    """One measured point."""

    figure: str
    series: str
    system: str
    nrows: int
    distinct: int
    seconds: float

    def as_row(self) -> dict:
        return {
            "figure": self.figure,
            "series": self.series,
            "system": self.system,
            "rows": self.nrows,
            "distinct": self.distinct,
            "seconds": self.seconds,
        }


def run_decomposition_point(
    label: str, nrows: int, distinct: int, seed: int = 2010
) -> BenchResult:
    """One Figure 3(a) point: time DECOMPOSE on one system."""
    workload = EmployeeWorkload(nrows, distinct, seed=seed)
    system = SERIES[label]()
    system.declare_fd(workload.fd)
    system.load(workload.build())
    seconds = system.timed_apply(workload.decompose_op())
    _verify_decomposition(system, nrows, distinct)
    return BenchResult("3a", label, system.name, nrows, distinct, seconds)


def run_mergence_point(
    label: str, nrows: int, distinct: int, seed: int = 2010
) -> BenchResult:
    """One Figure 3(b) point: time MERGE (S ⋈ T -> R) on one system."""
    workload = EmployeeWorkload(nrows, distinct, seed=seed)
    left, right = workload.build_decomposed()
    system = SERIES[label]()
    system.load(left)
    system.load(right)
    seconds = system.timed_apply(workload.merge_op())
    merged = system.extract("R")
    if merged.nrows != nrows:
        raise AssertionError(
            f"{system.name}: merged {merged.nrows} rows, expected {nrows}"
        )
    return BenchResult("3b", label, system.name, nrows, distinct, seconds)


def _verify_decomposition(system, nrows: int, distinct: int) -> None:
    left = system.extract("S")
    right = system.extract("T")
    if left.nrows != nrows or right.nrows != distinct:
        raise AssertionError(
            f"{system.name}: decomposition produced {left.nrows}/"
            f"{right.nrows} rows, expected {nrows}/{distinct}"
        )


def run_figure(
    figure: str,
    nrows: int | None = None,
    series=None,
    sweep=None,
    progress=None,
) -> list[BenchResult]:
    """Run a whole figure's sweep; returns all measured points."""
    nrows = nrows or bench_rows()
    if figure == "3a":
        series = series or FIG3A_SERIES
        runner = run_decomposition_point
    elif figure == "3b":
        series = series or FIG3B_SERIES
        runner = run_mergence_point
    else:
        raise ValueError(f"unknown figure {figure!r}")
    sweep = sweep or scaled_distinct_sweep(nrows)
    results = []
    for distinct in sweep:
        for label in series:
            if progress is not None:
                progress(f"figure {figure}: {label} @ distinct={distinct}")
            results.append(runner(label, nrows, distinct))
    return results


# ---------------------------------------------------------------------------
# Table 1: per-operator micro-benchmarks (data-level vs query-level)
# ---------------------------------------------------------------------------

def table1_operator_stream(nrows: int):
    """A stream of (operator-name, setup-fn, smo) covering all 11 SMOs.

    ``setup-fn(system)`` loads whatever tables the operator needs; the
    returned SMO is then timed.
    """
    workload = EmployeeWorkload(nrows, max(2, nrows // 100), seed=99)

    def load_r(system):
        system.declare_fd(workload.fd)
        system.load(workload.build())

    def load_st(system):
        left, right = workload.build_decomposed()
        system.load(left)
        system.load(right)

    def load_two_r(system):
        table = workload.build()
        system.load(table)
        system.load(table.renamed("R2"))

    schema_new = TableSchema(
        "Fresh",
        (
            ColumnSchema("a", DataType.INT),
            ColumnSchema("b", DataType.STRING),
        ),
    )

    return [
        ("DECOMPOSE TABLE", load_r, workload.decompose_op()),
        ("MERGE TABLES", load_st, workload.merge_op()),
        ("CREATE TABLE", lambda s: None, CreateTable(schema_new)),
        ("DROP TABLE", load_r, DropTable("R")),
        ("RENAME TABLE", load_r, RenameTable("R", "Rx")),
        ("COPY TABLE", load_r, CopyTable("R", "Rcopy")),
        ("UNION TABLES", load_two_r, UnionTables("R", "R2", "Rall")),
        (
            "PARTITION TABLE",
            load_r,
            PartitionTable(
                "R", "Rt", "Rf", Comparison("Employee", "=", "emp0000000")
            ),
        ),
        (
            "ADD COLUMN",
            load_r,
            AddColumn("R", ColumnSchema("Country", DataType.STRING), "US"),
        ),
        ("DROP COLUMN", load_r, DropColumn("R", "Address")),
        ("RENAME COLUMN", load_r, RenameColumn("R", "Skill", "Expertise")),
    ]


def run_table1(
    nrows: int | None = None, series=("D", "C+I", "M"), progress=None
) -> list[dict]:
    """Time every Table 1 operator on the selected systems."""
    nrows = nrows or max(bench_rows() // 4, 1_000)
    rows = []
    for op_name, setup, smo in table1_operator_stream(nrows):
        record = {"operator": op_name, "rows": nrows}
        for label in series:
            if progress is not None:
                progress(f"table 1: {op_name} on {label}")
            system = SERIES[label]()
            setup(system)
            record[label] = system.timed_apply(smo)
        rows.append(record)
    return rows
