"""Integration: the data-level engine and every query-level baseline
must agree on arbitrary operator streams (data-level evolution equals
query-level evolution)."""

import numpy as np
import pytest

from repro.baselines import make_system
from repro.smo import (
    AddColumn,
    Comparison,
    CopyTable,
    DecomposeTable,
    DropColumn,
    MergeTables,
    PartitionTable,
    RenameColumn,
    RenameTable,
    UnionTables,
)
from repro.storage import ColumnSchema, DataType
from tests.conftest import make_fd_table, make_join_pair

LABELS = ["D", "C", "C+I", "S", "M"]


def run_stream(label, tables, operators):
    system = make_system(label)
    for table in tables:
        system.load(table)
    for op in operators:
        system.apply(op)
    return system


def assert_all_agree(tables, operators, check_tables):
    reference = None
    for label in LABELS:
        system = run_stream(label, tables, operators)
        state = {
            name: system.extract(name).sorted_rows()
            for name in check_tables
        }
        if reference is None:
            reference = (label, state)
        else:
            assert state == reference[1], (
                f"{label} disagrees with {reference[0]}"
            )


class TestCrossSystemAgreement:
    def test_decompose_random_table(self):
        table = make_fd_table(150, 12, seed=21)
        op = DecomposeTable("R", "S", ("K", "P"), "T", ("K", "D"))
        assert_all_agree([table], [op], ["S", "T"])

    def test_decompose_then_merge(self):
        table = make_fd_table(120, 15, seed=22)
        ops = [
            DecomposeTable("R", "S", ("K", "P"), "T", ("K", "D")),
            MergeTables("S", "T", "R2"),
        ]
        assert_all_agree([table], ops, ["R2"])

    def test_general_merge(self):
        left, right = make_join_pair(60, 50, 8, seed=23)
        op = MergeTables("S", "T", "R")
        # SQLite and every other engine must agree on the n1*n2 blow-up.
        assert_all_agree([left, right], [op], ["R"])

    def test_partition_union_roundtrip(self):
        table = make_fd_table(100, 10, seed=24)
        ops = [
            PartitionTable("R", "Hi", "Lo", Comparison("P", ">=", 2)),
            UnionTables("Hi", "Lo", "Back"),
        ]
        assert_all_agree([table], ops, ["Back"])

    def test_column_smo_chain(self):
        table = make_fd_table(80, 8, seed=25)
        ops = [
            AddColumn("R", ColumnSchema("Flag", DataType.INT), 7),
            RenameColumn("R", "Flag", "Marker"),
            CopyTable("R", "R2"),
            DropColumn("R2", "Marker"),
            RenameTable("R2", "Slim"),
        ]
        assert_all_agree([table], ops, ["R", "Slim"])

    def test_long_mixed_stream(self):
        table = make_fd_table(90, 9, seed=26)
        ops = [
            CopyTable("R", "Work"),
            DecomposeTable("Work", "S", ("K", "P"), "T", ("K", "D")),
            AddColumn("S", ColumnSchema("Note", DataType.STRING), "n/a"),
            MergeTables("S", "T", "Wide"),
            PartitionTable("Wide", "Odd", "Even", Comparison("P", "=", 1)),
            UnionTables("Odd", "Even", "Final"),
        ]
        assert_all_agree([table], ops, ["R", "Final"])


class TestScaleSpotCheck:
    def test_cods_vs_sqlite_at_10k(self):
        """One medium-size run: data-level result equals a real RDBMS."""
        table = make_fd_table(10_000, 500, seed=30)
        op = DecomposeTable("R", "S", ("K", "P"), "T", ("K", "D"))
        cods = run_stream("D", [table], [op])
        sqlite = run_stream("S", [table], [op])
        assert cods.extract("T").sorted_rows() == sqlite.extract(
            "T"
        ).sorted_rows()
        assert cods.extract("S").nrows == 10_000

    def test_merge_blowup_at_scale(self):
        rng = np.random.default_rng(31)
        left, right = make_join_pair(2_000, 1_500, 40, seed=31)
        op = MergeTables("S", "T", "R")
        cods = run_stream("D", [left, right], [op])
        sqlite = run_stream("S", [left, right], [op])
        assert cods.extract("R").nrows == sqlite.extract("R").nrows
        assert cods.extract("R").sorted_rows() == sqlite.extract(
            "R"
        ).sorted_rows()
