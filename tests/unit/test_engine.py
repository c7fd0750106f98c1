"""Unit tests for the EvolutionEngine (dispatch, catalog effects, status)."""

import numpy as np
import pytest

from repro.core import EvolutionEngine
from repro.errors import SmoValidationError
from repro.smo import (
    AddColumn,
    Comparison,
    CopyTable,
    CreateTable,
    DropColumn,
    DropTable,
    MergeTables,
    PartitionTable,
    RenameColumn,
    RenameTable,
    UnionTables,
    parse_smo,
)
from repro.sql import iter_script_statements
from repro.storage import ColumnSchema, DataType, TableSchema, table_from_python


@pytest.fixture
def engine(fig1_table):
    engine = EvolutionEngine()
    engine.load_table(fig1_table)
    return engine


class TestSimpleOps:
    def test_create_and_drop(self, engine):
        schema = TableSchema("New", (ColumnSchema("x", DataType.INT),))
        engine.apply(CreateTable(schema))
        assert engine.table("New").nrows == 0
        engine.apply(DropTable("New"))
        assert "New" not in engine.catalog

    def test_rename(self, engine):
        engine.apply(RenameTable("R", "Renamed"))
        assert engine.table("Renamed").nrows == 7
        assert "R" not in engine.catalog

    def test_copy_shares_columns(self, engine):
        status = engine.apply(CopyTable("R", "R2"))
        assert engine.table("R2").column("Skill") is engine.table(
            "R"
        ).column("Skill")
        assert status.columns_reused == 3

    def test_union(self, engine):
        engine.apply(CopyTable("R", "R2"))
        engine.apply(UnionTables("R", "R2", "Big"))
        big = engine.table("Big")
        assert big.nrows == 14
        assert "R" not in engine.catalog and "R2" not in engine.catalog

    def test_partition_and_complement(self, engine):
        engine.apply(
            PartitionTable(
                "R", "Grant", "Industrial",
                Comparison("Address", "=", "425 Grant Ave"),
            )
        )
        grant = engine.table("Grant")
        industrial = engine.table("Industrial")
        assert grant.nrows + industrial.nrows == 7
        assert all(r[2] == "425 Grant Ave" for r in grant.to_rows())
        assert all(r[2] != "425 Grant Ave" for r in industrial.to_rows())

    def test_partition_single_pass_equals_two_filters(self):
        """PARTITION splits each column's positions once; the outputs
        and the filtering count are those of two separate filters."""
        rng = np.random.default_rng(3)
        table = table_from_python(
            "R",
            {
                "k": (DataType.INT, rng.integers(0, 40, 500).tolist()),
                "v": (DataType.STRING,
                      [f"v{i}" for i in rng.integers(0, 7, 500)]),
            },
        )
        engine = EvolutionEngine()
        engine.load_table(table)
        predicate = Comparison("k", "<", 13)
        status = engine.apply(PartitionTable("R", "Lo", "Hi", predicate))
        assert status.bitmaps_filtered == 2 * (
            table.column("k").distinct_count
            + table.column("v").distinct_count
        )
        matches = predicate.bitmap(table)
        for name, positions in (
            ("Lo", matches.positions()),
            ("Hi", matches.invert().positions()),
        ):
            got = engine.table(name)
            assert got.schema == table.schema.renamed(name)
            assert got.nrows == len(positions)
            for column in ("k", "v"):
                want = table.column(column).select(positions, compact=True)
                assert (got.column(column).dictionary.values()
                        == want.dictionary.values())
                assert list(got.column(column).bitmaps) == list(want.bitmaps)

    def test_add_column_default_is_o1(self, engine):
        status = engine.apply(
            AddColumn("R", ColumnSchema("Country", DataType.STRING), "US")
        )
        table = engine.table("R")
        assert table.column("Country").to_values() == ["US"] * 7
        assert status.bitmaps_created == 1  # one fill bitmap, O(1)

    def test_add_column_with_values(self, engine):
        values = tuple(range(7))
        engine.apply(
            AddColumn(
                "R", ColumnSchema("Num", DataType.INT), values=values
            )
        )
        assert engine.table("R").column("Num").to_values() == list(values)

    def test_drop_column(self, engine):
        engine.apply(DropColumn("R", "Address"))
        assert engine.table("R").column_names == ("Employee", "Skill")

    def test_rename_column(self, engine):
        engine.apply(RenameColumn("R", "Skill", "Expertise"))
        assert engine.table("R").column_names == (
            "Employee", "Expertise", "Address",
        )

    def test_validation_happens_before_dispatch(self, engine):
        with pytest.raises(SmoValidationError):
            engine.apply(DropTable("Nope"))
        assert len(engine.history) == 0


class TestConcatSplicesTheMainStore:
    """Concatenation splices the left side's words: flushing an
    insert-only delta before an SMO and UNION extract the positions of
    the rows they append (plus at most 30 tail bits per bitmap), never
    the 50 000 main rows."""

    MAIN_ROWS = 50_000
    DELTA_ROWS = 500

    @staticmethod
    def columns(rows, offset=0):
        keys = np.arange(offset, offset + rows)
        return {
            "A": (DataType.INT, (keys % 50).tolist()),
            "S": (DataType.STRING, [f"s{k % 307}" for k in keys.tolist()]),
        }

    def engine_with_delta(self):
        from repro.delta import CompactionPolicy

        engine = EvolutionEngine()
        engine.load_table(
            table_from_python("R", self.columns(self.MAIN_ROWS))
        )
        delta = self.columns(self.DELTA_ROWS, self.MAIN_ROWS)
        engine.mutable("R", CompactionPolicy.never()).insert_rows(
            list(zip(delta["A"][1], delta["S"][1]))
        )
        return engine

    @staticmethod
    def extracted_positions(monkeypatch) -> list:
        import repro.bitmap.batch as batch

        extracted = []
        extract = batch.batch_positions

        def counting(bitmaps):
            positions, bounds = extract(bitmaps)
            extracted.append(len(positions))
            return positions, bounds

        monkeypatch.setattr(batch, "batch_positions", counting)
        return extracted

    def test_flush_before_copy_extracts_only_the_delta(self, monkeypatch):
        engine = self.engine_with_delta()
        extracted = self.extracted_positions(monkeypatch)
        status = engine.apply(CopyTable("R", "R2"))
        assert status.delta_rows_flushed == self.DELTA_ROWS
        table = engine.table("R2")
        assert table.nrows == self.MAIN_ROWS + self.DELTA_ROWS
        columns = table.columns()
        nbitmaps = sum(column.distinct_count for column in columns)
        assert sum(extracted) <= (
            self.DELTA_ROWS * len(columns) + 30 * nbitmaps
        )
        assert table.column("S").to_values()[-1] == "s" + str(
            (self.MAIN_ROWS + self.DELTA_ROWS - 1) % 307
        )

    def test_union_never_extracts_its_left_side(self, monkeypatch):
        engine = self.engine_with_delta()
        engine.flush_delta("R")
        engine.load_table(table_from_python("T", self.columns(200, 7)))
        expected = engine.table("R").to_rows() + engine.table("T").to_rows()
        extracted = self.extracted_positions(monkeypatch)
        engine.apply(UnionTables("R", "T", "U"))
        # Only the right side's 200 rows, once per column.
        assert sum(extracted) == 200 * 2
        monkeypatch.undo()
        assert engine.table("U").to_rows() == expected


class TestDecomposeMergePaths:
    def test_sql_like_roundtrip(self, engine, fig1_decomposed):
        engine.apply(parse_smo(
            "DECOMPOSE TABLE R INTO S (Employee, Skill), "
            "T (Employee, Address)"
        ))
        s_rows, t_rows = fig1_decomposed
        assert engine.table("S").to_rows() == s_rows
        assert engine.table("T").sorted_rows() == t_rows
        assert "R" not in engine.catalog

    def test_merge_strategy_detection(self, engine):
        engine.apply(parse_smo(
            "DECOMPOSE TABLE R INTO S (Employee, Skill), "
            "T (Employee, Address)"
        ))
        op = MergeTables("S", "T", "R")
        assert engine.choose_merge_strategy(op) == "kfk-right"

    def test_merge_strategy_left_keyed(self):
        engine = EvolutionEngine()
        engine.load_table(
            table_from_python(
                "S",
                {"J": (DataType.INT, [1, 2]), "A": (DataType.INT, [5, 6])},
                primary_key=("J",),
            )
        )
        engine.load_table(
            table_from_python(
                "T",
                {"J": (DataType.INT, [1, 1, 2]), "B": (DataType.INT, [7, 8, 9])},
            )
        )
        op = MergeTables("S", "T", "R")
        assert engine.choose_merge_strategy(op) == "kfk-left"
        engine.apply(op)
        assert engine.table("R").schema.column_names == ("J", "A", "B")
        assert engine.table("R").nrows == 3

    def test_merge_strategy_general(self):
        engine = EvolutionEngine()
        engine.load_table(
            table_from_python(
                "S", {"J": (DataType.INT, [1, 1]), "A": (DataType.INT, [5, 6])}
            )
        )
        engine.load_table(
            table_from_python(
                "T", {"J": (DataType.INT, [1, 1]), "B": (DataType.INT, [7, 8])}
            )
        )
        op = MergeTables("S", "T", "R")
        assert engine.choose_merge_strategy(op) == "general"
        engine.apply(op)
        assert engine.table("R").nrows == 4

    def test_kfk_integrity_fallback_to_general(self):
        # T is keyed by J but S has a dangling key -> general algorithm.
        engine = EvolutionEngine()
        engine.load_table(
            table_from_python(
                "S", {"J": (DataType.INT, [1, 9]), "A": (DataType.INT, [5, 6])}
            )
        )
        engine.load_table(
            table_from_python(
                "T",
                {"J": (DataType.INT, [1, 2]), "B": (DataType.INT, [7, 8])},
                primary_key=("J",),
            )
        )
        engine.apply(MergeTables("S", "T", "R"))
        assert engine.table("R").to_rows() == [(1, 5, 7)]


class TestPlansAndScripts:
    def test_history_records_everything(self, engine):
        for statement in ("COPY TABLE R TO A", "DROP TABLE A"):
            engine.apply(parse_smo(statement))
        statements = [entry.statement for entry in engine.history]
        assert statements == ["COPY TABLE R TO A", "DROP TABLE A"]

    def test_history_replay_reproduces_state(self, engine, fig1_table):
        for statement in iter_script_statements(
            """
            DECOMPOSE TABLE R INTO S (Employee, Skill), T (Employee, Address);
            MERGE TABLES S, T INTO R2;
            RENAME TABLE R2 TO Final
            """
        ):
            engine.apply(parse_smo(statement))
        fresh = EvolutionEngine()
        fresh.load_table(fig1_table)
        engine.history.replay(fresh)
        assert fresh.catalog.table_names() == engine.catalog.table_names()
        assert fresh.table("Final").same_content(engine.table("Final"))

    def test_status_listener(self, engine):
        seen = []
        engine.subscribe(lambda event: seen.append(event.step))
        engine.apply(CopyTable("R", "R9"))
        assert "column reuse" in seen


class TestNoBitmapObjectPerValue:
    """The SMOs read and write each column's packed word buffer: at
    80 000 rows and 8 000 keys, COPY (with its flush of a live delta),
    PARTITION, UNION, DECOMPOSE and MERGE make a constant number of
    ``WAHBitmap`` objects (a predicate bitmap, a zero or one fill),
    never one per value."""

    ROWS = 80_000
    KEYS = 8_000
    SEQUENCE = (
        ("copy", "COPY TABLE R TO Rc"),
        ("partition", "PARTITION TABLE Rc INTO Rt, Rf WHERE Skill < 'k050'"),
        ("union", "UNION TABLES Rt, Rf INTO Ru"),
        ("decompose",
         "DECOMPOSE TABLE R INTO S (Employee, Skill), T (Employee, Address)"),
        ("merge", "MERGE TABLES S, T INTO R2 ON (Employee)"),
    )

    def engine_with_delta(self):
        from repro.delta import CompactionPolicy
        from repro.fd import FunctionalDependency

        rng = np.random.default_rng(30)
        keys = rng.integers(0, self.KEYS, self.ROWS + 800)
        keys[: self.KEYS] = np.arange(self.KEYS)
        skills = rng.integers(0, 100, len(keys))
        rows = [
            (f"e{key:05d}", f"k{skill:03d}", f"a{key % 997}")
            for key, skill in zip(keys.tolist(), skills.tolist())
        ]
        main = rows[: self.ROWS]
        engine = EvolutionEngine(
            extra_fds=(FunctionalDependency.of("Employee", "Address"),)
        )
        engine.load_table(table_from_python("R", {
            name: (DataType.STRING, [row[index] for row in main])
            for index, name in enumerate(("Employee", "Skill", "Address"))
        }))
        engine.mutable("R", CompactionPolicy.never()).insert_rows(
            rows[self.ROWS:]
        )
        return engine

    def test_smos_build_no_bitmap_per_value(self, monkeypatch):
        from repro.bitmap import WAHBitmap

        engine = self.engine_with_delta()
        made = []
        init = WAHBitmap.__init__

        def counting(self, *args, **kwargs):
            made.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(WAHBitmap, "__init__", counting)
        per_operator = {}
        for name, statement in self.SEQUENCE:
            before = len(made)
            engine.apply(parse_smo(statement))
            per_operator[name] = len(made) - before
        monkeypatch.undo()
        merged = engine.table("R2")
        assert merged.nrows == self.ROWS + 800
        assert merged.column("Employee").distinct_count == self.KEYS
        assert all(count <= 2 for count in per_operator.values()), (
            per_operator
        )
