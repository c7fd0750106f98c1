"""Unit tests for functional-dependency theory and data-driven checks."""

import pytest

from repro.errors import LosslessJoinError
from repro.fd import (
    FunctionalDependency,
    check_lossless,
    closure,
    fds_from_keys,
    holds,
    holds_each,
    is_key_in_data,
)
from repro.storage import ColumnSchema, DataType, TableSchema, table_from_python
from tests.harness.chase import chase_lossless

FD = FunctionalDependency.of


class TestClosure:
    def test_reflexive(self):
        assert closure({"A"}, []) == frozenset({"A"})

    def test_transitive(self):
        fds = [FD("A", "B"), FD("B", "C")]
        assert closure({"A"}, fds) == frozenset({"A", "B", "C"})

    def test_composite_lhs(self):
        fds = [FD(["A", "B"], "C")]
        assert closure({"A"}, fds) == frozenset({"A"})
        assert closure({"A", "B"}, fds) == frozenset({"A", "B", "C"})


class TestFunctionalDependency:
    def test_str(self):
        assert str(FD("A", "B")) == "A -> B"


class TestCheckLossless:
    ALL = ("E", "S", "A")

    def test_figure1_shape(self):
        # Employee -> Address: T(E, A) is keyed by the common attr E.
        fds = [FD("E", "A")]
        plan = check_lossless(self.ALL, ("E", "S"), ("E", "A"), fds)
        assert plan.changed_side == "right"
        assert plan.common == frozenset({"E"})

    def test_no_common_attributes(self):
        with pytest.raises(LosslessJoinError):
            check_lossless(self.ALL, ("E", "S"), ("A",), [])

    def test_not_covering(self):
        with pytest.raises(LosslessJoinError):
            check_lossless(self.ALL, ("E",), ("E", "A"), [FD("E", "A")])

    def test_neither_side_determined(self):
        with pytest.raises(LosslessJoinError):
            check_lossless(self.ALL, ("E", "S"), ("E", "A"), [])

    def test_both_sides_determined_prefers_smaller(self):
        fds = [FD("E", ["S", "A"])]
        plan = check_lossless(("E", "S", "A"), ("E", "S", "A"), ("E",), fds)
        assert plan.changed_side == "right"

    def test_prefer_changed_override(self):
        fds = [FD("E", ["S", "A"])]
        plan = check_lossless(
            self.ALL, ("E", "S"), ("E", "A"), fds, prefer_changed="left"
        )
        assert plan.changed_side == "left"

    def test_fds_from_keys(self):
        schema = TableSchema(
            "T",
            (
                ColumnSchema("a", DataType.INT),
                ColumnSchema("b", DataType.INT),
            ),
            primary_key=("a",),
        )
        fds = fds_from_keys(schema)
        assert "b" in closure({"a"}, fds)


class TestChase:
    def test_binary_agrees_with_closure_test(self):
        fds = [FD("E", "A")]
        assert chase_lossless(
            ("E", "S", "A"), [("E", "S"), ("E", "A")], fds
        )
        assert not chase_lossless(("E", "S", "A"), [("E", "S"), ("E", "A")], [])

    def test_ternary_decomposition(self):
        # Classic: R(A,B,C,D), A->B, C->D; split into (A,B), (A,C), (C,D).
        fds = [FD("A", "B"), FD("C", "D")]
        assert chase_lossless(
            ("A", "B", "C", "D"),
            [("A", "B"), ("A", "C"), ("C", "D")],
            fds,
        )

    def test_lossy_ternary(self):
        assert not chase_lossless(
            ("A", "B", "C"), [("A", "B"), ("B", "C")], []
        )


class TestDataDriven:
    @pytest.fixture
    def table(self):
        return table_from_python(
            "R",
            {
                "K": (DataType.INT, [1, 1, 2, 3, 3]),
                "P": (DataType.INT, [9, 8, 9, 7, 6]),
                "D": (DataType.INT, [5, 5, 6, 5, 5]),
            },
        )

    def test_holds_positive(self, table):
        assert holds(table, ["K"], ["D"])

    def test_holds_negative(self, table):
        assert not holds(table, ["K"], ["P"])
        assert not holds(table, ["D"], ["K"])

    def test_holds_trivial(self, table):
        assert holds(table, ["K"], ["K"])
        assert holds(table, ["K", "P"], ["K"])

    def test_holds_each_groups_lhs_once_and_only_if_needed(
        self, table, monkeypatch
    ):
        from repro.storage.column import BitmapColumn

        decoded = []
        decode_vids = BitmapColumn.decode_vids

        def counted(column):
            decoded.append(column.name)
            return decode_vids(column)

        monkeypatch.setattr(BitmapColumn, "decode_vids", counted)
        assert holds_each(table, ["K"], [["K"], ["K", "P"]]) == [True, False]
        assert sorted(decoded) == ["K", "P"]
        decoded.clear()
        assert holds_each(table, ["K", "D"], [["K"], ["D"]]) == [True, True]
        assert decoded == []

    def test_is_key_in_data(self, table):
        assert not is_key_in_data(table, ["K"])
        assert is_key_in_data(table, ["K", "P"])

    def test_empty_table(self):
        table = table_from_python("E", {"a": (DataType.INT, [])})
        assert holds(table, ["a"], ["a"])
        assert is_key_in_data(table, ["a"])
