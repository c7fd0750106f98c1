"""Integration: structural roundtrips across the whole stack.

Covers two invariants — decompose∘merge = identity, and replaying the
recorded history reproduces the catalog — plus persistence across an
evolution.
"""

import pytest

from repro.core import EvolutionEngine
from repro.smo import (
    Comparison,
    DecomposeTable,
    MergeTables,
    PartitionTable,
    UnionTables,
    parse_smo,
)
from repro.sql import iter_script_statements
from repro.storage import load_engine, save_engine
from repro.workload import EmployeeWorkload, SalesStarWorkload
from tests.conftest import make_fd_table


class TestDecomposeMergeIdentity:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_tables(self, seed):
        table = make_fd_table(120, 10 + seed, seed=seed)
        engine = EvolutionEngine()
        engine.load_table(table)
        engine.apply(DecomposeTable("R", "S", ("K", "P"), "T", ("K", "D")))
        engine.apply(MergeTables("S", "T", "R"))
        assert engine.table("R").same_content(table, ordered=True)

    def test_workload_scale(self):
        workload = EmployeeWorkload(5_000, 300, seed=17)
        table = workload.build()
        engine = EvolutionEngine(extra_fds=[workload.fd])
        engine.load_table(table)
        engine.apply(workload.decompose_op())
        engine.apply(workload.merge_op())
        assert engine.table("R").same_content(table, ordered=True)

    def test_repeated_cycles_stable(self):
        table = make_fd_table(100, 8, seed=5)
        engine = EvolutionEngine()
        engine.load_table(table)
        for _ in range(3):
            engine.apply(
                DecomposeTable("R", "S", ("K", "P"), "T", ("K", "D"))
            )
            engine.apply(MergeTables("S", "T", "R"))
        assert engine.table("R").same_content(table, ordered=True)


class TestPartitionUnionIdentity:
    def test_roundtrip_multiset(self):
        table = make_fd_table(150, 12, seed=6)
        engine = EvolutionEngine()
        engine.load_table(table)
        engine.apply(
            PartitionTable("R", "A", "B", Comparison("P", "<", 2))
        )
        engine.apply(UnionTables("A", "B", "R"))
        assert engine.table("R").same_content(table)  # row order may differ

    def test_empty_side(self):
        table = make_fd_table(50, 5, seed=7)
        engine = EvolutionEngine()
        engine.load_table(table)
        engine.apply(
            PartitionTable("R", "A", "B", Comparison("P", ">=", 0))
        )
        assert engine.table("A").nrows == 50
        assert engine.table("B").nrows == 0
        engine.apply(UnionTables("A", "B", "R"))
        assert engine.table("R").same_content(table)


class TestPersistenceAcrossEvolution:
    def test_save_evolve_load(self, tmp_path, fig1_table):
        engine = EvolutionEngine()
        engine.load_table(fig1_table)
        engine.apply(
            parse_smo(
                "DECOMPOSE TABLE R INTO S (Employee, Skill), "
                "T (Employee, Address)"
            )
        )
        save_engine(engine, tmp_path / "db")
        # Continue evolving the reloaded catalog.
        resumed = load_engine(tmp_path / "db")
        resumed.apply(MergeTables("S", "T", "R"))
        assert resumed.table("R").same_content(fig1_table.renamed("R"))


class TestHistoryReplay:
    def test_star_snowflake_history(self):
        workload = SalesStarWorkload(800, n_products=40, n_categories=6)
        sales, products = workload.build()
        engine = EvolutionEngine()
        engine.load_table(sales)
        engine.load_table(products)
        engine.apply(workload.snowflake_op())
        engine.apply(workload.star_op())
        engine.apply(parse_smo("RENAME TABLE Product TO ProductV2"))

        fresh = EvolutionEngine()
        fresh.load_table(sales)
        fresh.load_table(products)
        engine.history.replay(fresh)
        assert fresh.catalog.table_names() == engine.catalog.table_names()
        for name in engine.catalog.table_names():
            assert fresh.table(name).same_content(engine.table(name))

    def test_versions_increase_monotonically(self, fig1_table):
        engine = EvolutionEngine()
        engine.load_table(fig1_table)
        for statement in iter_script_statements(
            "COPY TABLE R TO A; COPY TABLE R TO B; DROP TABLE A; DROP TABLE B"
        ):
            engine.apply(parse_smo(statement))
        versions = [entry.version for entry in engine.history]
        assert versions == [1, 2, 3, 4]
