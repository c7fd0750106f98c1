"""Unit tests for SMO operators, predicates, parser, plans and history."""

import numpy as np
import pytest

from repro.bitmap.ops import union_disjoint
from repro.errors import SmoValidationError
from repro.smo import (
    AddColumn,
    And,
    Comparison,
    CopyTable,
    CreateTable,
    DecomposeTable,
    DropColumn,
    DropTable,
    EvolutionHistory,
    EvolutionPlan,
    MergeTables,
    Not,
    Or,
    PartitionTable,
    RenameColumn,
    RenameTable,
    UnionTables,
    parse_predicate,
    parse_smo,
    simulate,
)
from repro.smo.parser import TokenStream
from repro.sql import iter_script_statements
from repro.storage import (
    Catalog,
    ColumnSchema,
    DataType,
    TableSchema,
    table_from_python,
)
from repro.storage.types import coerce


@pytest.fixture
def catalog(fig1_table):
    catalog = Catalog()
    catalog.create(fig1_table)
    return catalog


class TestValidation:
    def test_decompose_valid(self, catalog):
        op = DecomposeTable(
            "R", "S", ("Employee", "Skill"), "T", ("Employee", "Address")
        )
        op.validate(catalog)  # no raise

    def test_decompose_missing_table(self, catalog):
        op = DecomposeTable("ZZZ", "S", ("a",), "T", ("a",))
        with pytest.raises(SmoValidationError):
            op.validate(catalog)

    def test_decompose_unknown_column(self, catalog):
        op = DecomposeTable(
            "R", "S", ("Employee", "Nope"), "T", ("Employee", "Address")
        )
        with pytest.raises(SmoValidationError):
            op.validate(catalog)

    def test_decompose_not_covering(self, catalog):
        op = DecomposeTable(
            "R", "S", ("Employee",), "T", ("Employee", "Address")
        )
        with pytest.raises(SmoValidationError):
            op.validate(catalog)

    def test_decompose_no_common(self, catalog):
        op = DecomposeTable(
            "R", "S", ("Employee", "Skill"), "T", ("Address",)
        )
        with pytest.raises(SmoValidationError):
            op.validate(catalog)

    def test_decompose_same_output_names(self, catalog):
        op = DecomposeTable(
            "R", "S", ("Employee", "Skill"), "S", ("Employee", "Address")
        )
        with pytest.raises(SmoValidationError):
            op.validate(catalog)

    def test_merge_requires_common_attrs(self, catalog):
        catalog.create(
            table_from_python("X", {"q": (DataType.INT, [1])})
        )
        op = MergeTables("R", "X", "Out")
        with pytest.raises(SmoValidationError):
            op.validate(catalog)

    def test_merge_non_join_overlap(self, catalog):
        catalog.create(
            table_from_python(
                "X",
                {
                    "Employee": (DataType.STRING, ["Jones"]),
                    "Skill": (DataType.STRING, ["Singing"]),
                },
            )
        )
        op = MergeTables("R", "X", "Out", ("Employee",))
        with pytest.raises(SmoValidationError):
            op.validate(catalog)

    def test_merge_type_mismatch(self, catalog):
        catalog.create(
            table_from_python("X", {"Employee": (DataType.INT, [1])})
        )
        with pytest.raises(SmoValidationError):
            MergeTables("R", "X", "Out", ("Employee",)).validate(catalog)

    def test_union_compat(self, catalog):
        catalog.create(table_from_python("X", {"q": (DataType.INT, [1])}))
        with pytest.raises(SmoValidationError):
            UnionTables("R", "X", "U").validate(catalog)

    def test_partition_validates_predicate_column(self, catalog):
        op = PartitionTable("R", "A1", "A2", Comparison("Nope", "=", 1))
        with pytest.raises(SmoValidationError):
            op.validate(catalog)

    def test_add_column_duplicate(self, catalog):
        op = AddColumn("R", ColumnSchema("Skill", DataType.STRING), "x")
        with pytest.raises(SmoValidationError):
            op.validate(catalog)

    def test_add_column_values_length(self, catalog):
        op = AddColumn(
            "R", ColumnSchema("Extra", DataType.INT), values=(1, 2)
        )
        with pytest.raises(SmoValidationError):
            op.validate(catalog)

    def test_drop_key_column_rejected(self):
        catalog = Catalog()
        catalog.create(
            table_from_python(
                "K", {"a": (DataType.INT, [1]), "b": (DataType.INT, [2])},
                primary_key=("a",),
            )
        )
        with pytest.raises(SmoValidationError):
            DropColumn("K", "a").validate(catalog)

    def test_drop_only_column_rejected(self):
        catalog = Catalog()
        catalog.create(table_from_python("O", {"a": (DataType.INT, [1])}))
        with pytest.raises(SmoValidationError):
            DropColumn("O", "a").validate(catalog)

    def test_rename_collision(self, catalog):
        with pytest.raises(SmoValidationError):
            RenameColumn("R", "Skill", "Address").validate(catalog)

    def test_create_existing(self, catalog):
        schema = TableSchema("R", (ColumnSchema("a", DataType.INT),))
        with pytest.raises(SmoValidationError):
            CreateTable(schema).validate(catalog)


class TestPredicates:
    @pytest.fixture
    def table(self):
        return table_from_python(
            "P",
            {
                "a": (DataType.INT, [1, 2, 3, 4, 5]),
                "b": (DataType.STRING, ["x", "y", "x", "z", "x"]),
            },
        )

    def test_comparison_bitmap(self, table):
        assert Comparison("a", ">", 3).bitmap(table).positions().tolist() == [3, 4]
        assert Comparison("b", "=", "x").bitmap(table).positions().tolist() == [0, 2, 4]
        assert Comparison("a", "!=", 1).bitmap(table).count() == 4
        assert Comparison("a", "<=", 2).bitmap(table).count() == 2

    def test_in_bitmap(self, table):
        predicate = Comparison("a", "IN", (1, 4, 99))
        assert predicate.bitmap(table).positions().tolist() == [0, 3]

    def test_combinators(self, table):
        predicate = And(Comparison("a", ">", 1), Comparison("b", "=", "x"))
        assert predicate.bitmap(table).positions().tolist() == [2, 4]
        predicate = Or(Comparison("a", "=", 1), Comparison("a", "=", 5))
        assert predicate.bitmap(table).positions().tolist() == [0, 4]
        predicate = Not(Comparison("b", "=", "x"))
        assert predicate.bitmap(table).positions().tolist() == [1, 3]

    def test_matches_row_level(self, table):
        predicate = And(Comparison("a", ">=", 2), Not(Comparison("b", "=", "z")))
        rows = table.to_rows()
        names = table.schema.column_names
        kept = [
            row
            for row in rows
            if predicate.matches(lambda attr, r=row: r[names.index(attr)])
        ]
        assert kept == [(2, "y"), (3, "x"), (5, "x")]

    def test_bitmap_matches_row_level_agree(self, table):
        predicate = Or(
            And(Comparison("a", "<", 3), Comparison("b", "=", "x")),
            Comparison("a", "=", 4),
        )
        names = table.schema.column_names
        rows = table.to_rows()
        row_level = [
            i
            for i, row in enumerate(rows)
            if predicate.matches(lambda attr, r=row: r[names.index(attr)])
        ]
        assert predicate.bitmap(table).positions().tolist() == row_level

    @staticmethod
    def scanned_bitmap(predicate, table):
        """``=`` / ``IN`` the long way: test every dictionary value, OR
        the hits' bitmaps with ``union_disjoint``."""
        column = table.column(predicate.attr)
        if predicate.op == "IN":
            literals = {coerce(v, column.dtype) for v in predicate.value}
            hits = [value in literals for value in column.dictionary]
        else:
            literal = coerce(predicate.value, column.dtype)
            hits = [value == literal for value in column.dictionary]
        return union_disjoint(
            [column.bitmap_for_vid(vid) for vid, hit in enumerate(hits) if hit],
            table.nrows,
        )

    @pytest.mark.parametrize("layout", ["shuffled", "sorted"])
    def test_lookup_equals_the_dictionary_scan_word_for_word(self, layout):
        """``=`` and ``IN`` resolve by dictionary lookup, and one hit is
        the stored bitmap itself; either way the result is the scan's,
        word for word.  ``sorted`` gives each value one long run (fill
        words, the layout run-length encoding targets)."""
        strings = ["x"] * 700 + ["y"] * 600 + [None] * 500 + ["z"] * 200
        floats = [0.5] * 900 + [1.0] * 600 + [2.0] * 500
        if layout == "shuffled":
            order = np.random.default_rng(3).permutation(len(strings))
            strings = [strings[i] for i in order]
            floats = [floats[i] for i in order]
        table = table_from_python(
            "P",
            {"s": (DataType.STRING, strings), "f": (DataType.FLOAT, floats)},
        )
        predicates = [
            Comparison("s", "=", "y"),
            Comparison("s", "=", "absent"),
            Comparison("s", "=", None),
            Comparison("s", "IN", ("x", "x", "absent", None)),
            Comparison("s", "IN", ("z", "z", "absent")),
            Comparison("s", "IN", ("absent",)),
            Comparison("f", "=", 1),
            Comparison("f", "IN", (2, 0.5, 2.0, 7)),
        ]
        for predicate in predicates:
            got = predicate.bitmap(table)
            want = self.scanned_bitmap(predicate, table)
            assert type(got) is type(want) and got.nbits == table.nrows
            assert got == want, predicate
            values = table.column(predicate.attr).to_values()
            assert got.positions().tolist() == [
                i for i, value in enumerate(values)
                if predicate.matches(lambda attr, v=value: v)
            ], predicate

    def test_nan_literal_keeps_the_scan_semantics(self):
        """The NULL keeps the column on the per-value encode path, so
        the dictionary holds this very NaN object: the lookup finds it,
        ``=`` still rejects it (``nan == nan`` is false) and ``IN``
        keeps it (membership tests identity first), as the scan did."""
        nan = float("nan")
        table = table_from_python(
            "P", {"f": (DataType.FLOAT, [1.0, nan, None])}
        )
        assert table.column("f").dictionary.vid_or_none(nan) == 1
        assert Comparison("f", "=", nan).bitmap(table).count() == 0
        assert Comparison("f", "IN", (nan,)).bitmap(table).positions().tolist() == [1]

    @pytest.mark.parametrize("nrows", [5, 1_000])
    @pytest.mark.parametrize("predicate", [
        Comparison("b", "=", "absent"),
        Comparison("b", "IN", ("absent", "gone")),
        Comparison("a", ">", 10_000),
        Comparison("b", "<", "a"),
    ], ids=str)
    def test_zero_match_is_all_zeros_without_a_word_pass(
        self, predicate, nrows, monkeypatch
    ):
        """A comparison no dictionary value satisfies returns the words
        the union of no bitmap gave, without extracting positions."""
        import repro.bitmap.ops as ops_module

        table = table_from_python(
            "P",
            {
                "a": (DataType.INT, list(range(nrows))),
                "b": (DataType.STRING, [f"x{i % 3}" for i in range(nrows)]),
            },
        )
        want = union_disjoint(
            table.column(predicate.attr).bitmaps.take([]), nrows
        )

        def refuse(*args):
            raise AssertionError("positions extracted for no bitmap")

        monkeypatch.setattr(ops_module, "batch_positions", refuse)
        got = predicate.bitmap(table)
        assert got.nbits == want.nbits == nrows
        assert np.array_equal(got.words, want.words)
        assert got.count() == 0

    def test_unknown_operator(self):
        with pytest.raises(Exception):
            Comparison("a", "~~", 1)

    def test_str_rendering(self):
        predicate = And(
            Comparison("a", "=", 5), Comparison("b", "IN", ("x", "it's")),
        )
        text = str(predicate)
        assert "a = 5" in text
        assert "b IN ('x', 'it''s')" in text


class TestParser:
    def test_decompose(self):
        op = parse_smo(
            "DECOMPOSE TABLE R INTO S (A, B), T (A, C)"
        )
        assert op == DecomposeTable("R", "S", ("A", "B"), "T", ("A", "C"))

    def test_merge_with_on(self):
        op = parse_smo("MERGE TABLES S, T INTO R ON (A, B)")
        assert op == MergeTables("S", "T", "R", ("A", "B"))

    def test_merge_without_on(self):
        op = parse_smo("merge tables S, T into R")
        assert op == MergeTables("S", "T", "R", ())

    def test_create(self):
        op = parse_smo("CREATE TABLE R (A INT, B VARCHAR, KEY (A))")
        assert isinstance(op, CreateTable)
        assert op.schema.primary_key == ("A",)
        assert op.schema.column("B").dtype == DataType.STRING

    def test_simple_ops(self):
        assert parse_smo("DROP TABLE R") == DropTable("R")
        assert parse_smo("RENAME TABLE R TO R2") == RenameTable("R", "R2")
        assert parse_smo("COPY TABLE R TO R2") == CopyTable("R", "R2")
        assert parse_smo("UNION TABLES A, B INTO C") == UnionTables(
            "A", "B", "C"
        )
        assert parse_smo("DROP COLUMN c FROM R") == DropColumn("R", "c")
        assert parse_smo("RENAME COLUMN c TO d IN R") == RenameColumn(
            "R", "c", "d"
        )

    def test_add_column_with_default(self):
        op = parse_smo("ADD COLUMN c INT TO R DEFAULT 5")
        assert op.default == 5
        assert op.column.dtype == DataType.INT

    def test_partition_with_predicate(self):
        op = parse_smo(
            "PARTITION TABLE R INTO A, B WHERE x > 3 AND y = 'hi'"
        )
        assert isinstance(op, PartitionTable)
        assert "x > 3" in str(op.predicate)

    def test_predicate_precedence(self):
        tokens = TokenStream("a = 1 OR b = 2 AND c = 3")
        predicate = parse_predicate(tokens)
        # AND binds tighter: Or(a=1, And(b=2, c=3))
        assert isinstance(predicate, Or)
        assert isinstance(predicate.right, And)

    def test_predicate_not_and_parens(self):
        tokens = TokenStream("NOT (a = 1 OR a = 2)")
        predicate = parse_predicate(tokens)
        assert isinstance(predicate, Not)
        assert isinstance(predicate.inner, Or)

    def test_literals(self):
        op = parse_smo("PARTITION TABLE R INTO A, B WHERE x = -1.5")
        assert op.predicate.value == -1.5
        op = parse_smo("PARTITION TABLE R INTO A, B WHERE x = TRUE")
        assert op.predicate.value is True
        op = parse_smo("PARTITION TABLE R INTO A, B WHERE x IN (1, 2, 3)")
        assert op.predicate.value == (1, 2, 3)

    def test_string_escapes(self):
        op = parse_smo("PARTITION TABLE R INTO A, B WHERE x = 'O''Brien'")
        assert op.predicate.value == "O'Brien"

    def test_errors(self):
        with pytest.raises(SmoValidationError):
            parse_smo("FROBNICATE TABLE R")
        with pytest.raises(SmoValidationError):
            parse_smo("DECOMPOSE TABLE R INTO S (A), T (B) EXTRA")
        with pytest.raises(SmoValidationError):
            parse_smo("MERGE TABLES S INTO R")
        with pytest.raises(SmoValidationError):
            parse_smo("")

    def test_script(self):
        script = """
        -- a comment line
        DECOMPOSE TABLE R INTO S (A, B),
                               T (A, C);  -- a trailing comment
        PARTITION TABLE S INTO S1, S2 WHERE B = 'a;b';
        DROP TABLE T
        """
        ops = [parse_smo(text) for text in iter_script_statements(script)]
        assert [type(op) for op in ops] == [
            DecomposeTable, PartitionTable, DropTable,
        ]
        assert ops[1].predicate.value == "a;b"

    def test_describe_roundtrip(self):
        texts = [
            "DECOMPOSE TABLE R INTO S (A, B), T (A, C)",
            "MERGE TABLES S, T INTO R ON (A)",
            "DROP TABLE R",
            "RENAME TABLE R TO R2",
            "COPY TABLE R TO R2",
            "UNION TABLES A, B INTO C",
            "DROP COLUMN c FROM R",
            "RENAME COLUMN c TO d IN R",
        ]
        for text in texts:
            op = parse_smo(text)
            assert parse_smo(op.describe()) == op


class TestPlanAndSimulate:
    def test_simulate_decompose(self, catalog):
        op = DecomposeTable(
            "R", "S", ("Employee", "Skill"), "T", ("Employee", "Address")
        )
        schemas = simulate(op, {"R": catalog.schema("R")})
        assert set(schemas) == {"S", "T"}
        assert schemas["S"].column_names == ("Employee", "Skill")

    def test_simulate_merge(self, catalog):
        schemas = {"R": catalog.schema("R")}
        schemas = simulate(
            DecomposeTable(
                "R", "S", ("Employee", "Skill"), "T", ("Employee", "Address")
            ),
            schemas,
        )
        schemas = simulate(MergeTables("S", "T", "R2"), schemas)
        assert schemas["R2"].column_names == (
            "Employee", "Skill", "Address",
        )

    def test_plan_validates_chain(self, catalog):
        plan = EvolutionPlan(
            [
                DecomposeTable(
                    "R", "S", ("Employee", "Skill"),
                    "T", ("Employee", "Address"),
                ),
                MergeTables("S", "T", "R2"),
                RenameTable("R2", "Final"),
            ]
        )
        final = plan.validate(catalog)
        assert set(final) == {"Final"}

    def test_plan_rejects_bad_step_with_context(self, catalog):
        plan = EvolutionPlan(
            [DropTable("R"), DropTable("R")]  # second drop fails
        )
        with pytest.raises(SmoValidationError, match="step 2"):
            plan.validate(catalog)

    def test_plan_describe(self):
        plan = EvolutionPlan([DropTable("R")])
        assert plan.describe() == "1. DROP TABLE R"
        assert len(plan) == 1


class TestHistory:
    def test_record_and_describe(self):
        history = EvolutionHistory()
        history.record(DropTable("R"), ["A", "B"])
        history.record(RenameTable("A", "C"), ["B", "C"])
        assert len(history) == 2
        text = history.describe()
        assert "v1: DROP TABLE R" in text
        assert "v2: RENAME TABLE A TO C" in text
        assert history.entries[0].tables_after == ("A", "B")

    def test_operators(self):
        history = EvolutionHistory()
        op = DropTable("R")
        history.record(op, [])
        assert history.operators() == [op]
