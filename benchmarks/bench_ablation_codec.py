"""Ablation abl1: WAH-compressed vs uncompressed bitmaps.

Same decomposition algorithm, same data — only the bitmap codec of every
column changes.  Finding: dense bitmaps are
somewhat *faster* in wall time at small scale (NumPy fancy indexing has
tiny constants), but their storage is O(distinct × rows) — 223× larger
at 400k rows / 4k distinct — which makes the per-value-bitmap design
infeasible without compression at the paper's scale.  WAH buys
feasibility at a small constant-time cost.
"""

from __future__ import annotations

import pytest

from repro.core import EvolutionEngine
from repro.smo import DecomposeTable
from repro.storage import ColumnSchema, DataType, Table, TableSchema
from repro.storage.column import BitmapColumn
from repro.workload import EmployeeWorkload

from conftest import bench_rows

_ROWS = max(bench_rows() // 2, 2_000)
_DISTINCT = max(_ROWS // 100, 2)


def _build_table(codec_name: str) -> Table:
    reference = EmployeeWorkload(_ROWS, _DISTINCT, seed=11).build()
    if codec_name == "wah":
        return reference
    schema = TableSchema("R", reference.schema.columns)
    columns = {
        name: BitmapColumn.from_vids(
            name,
            column.dtype,
            column.dictionary,
            column.decode_vids(),
            codec_name,
        )
        for name, column in (
            (n, reference.column(n)) for n in reference.column_names
        )
    }
    return Table(schema, columns, reference.nrows)


def _setup(codec_name: str):
    workload = EmployeeWorkload(_ROWS, _DISTINCT, seed=11)
    engine = EvolutionEngine(extra_fds=[workload.fd])
    engine.load_table(_build_table(codec_name))
    op = DecomposeTable(
        "R", "S", ("Employee", "Skill"), "T", ("Employee", "Address")
    )
    return (engine, op), {}


def _apply(engine, op):
    engine.apply(op)


@pytest.mark.parametrize("codec_name", ["wah", "plain"])
def test_ablation_codec_decompose(benchmark, codec_name):
    benchmark.group = "abl1 codec (decomposition)"
    benchmark.name = codec_name
    benchmark.pedantic(
        _apply, setup=lambda: _setup(codec_name), rounds=1, iterations=1
    )
