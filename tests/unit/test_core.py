"""Unit tests for the CODS core algorithms."""

import numpy as np
import pytest

from repro.core import (
    EvolutionEngine,
    EvolutionStatus,
    decompose,
    distinction,
    distinction_bitmap,
    distinction_scan,
    filter_column,
    merge_general,
    merge_key_fk,
    plan_decomposition,
)
from repro.bitmap import WAHBitmap
from repro.core.distinction import distinction_with_ranks
from repro.errors import EvolutionError, LosslessJoinError
from repro.fd import FunctionalDependency
from repro.smo import DecomposeTable, MergeTables
from repro.storage import DataType, table_from_python
from tests.conftest import make_fd_table, make_join_pair, nested_loop_join


class TestDistinction:
    def test_bitmap_path_positions(self):
        table = table_from_python(
            "R", {"k": (DataType.INT, [5, 5, 7, 5, 9, 7])}
        )
        status = EvolutionStatus()
        positions = distinction_bitmap(table.column("k"), status)
        assert positions.tolist() == [0, 2, 4]
        assert any(e.step == "distinction" for e in status.events)

    def test_with_ranks_inverse(self):
        table = table_from_python(
            "R", {"k": (DataType.INT, [9, 5, 9, 7])}
        )
        column = table.column("k")
        positions, ranks = distinction_with_ranks(column, EvolutionStatus())
        assert positions.tolist() == [0, 1, 3]
        # vid 0 = value 9 (first at row 0 -> rank 0), vid 1 = 5 (row 1 ->
        # rank 1), vid 2 = 7 (row 3 -> rank 2)
        assert ranks.tolist() == [0, 1, 2]

    def test_scan_path_composite(self):
        table = table_from_python(
            "R",
            {
                "a": (DataType.INT, [1, 1, 2, 1]),
                "b": (DataType.INT, [1, 2, 1, 1]),
            },
        )
        status = EvolutionStatus()
        positions = distinction_scan(table, ["a", "b"], status)
        assert positions.tolist() == [0, 1, 2]
        assert status.columns_decompressed == 2

    def test_dispatch(self):
        table = table_from_python(
            "R", {"a": (DataType.INT, [1, 2]), "b": (DataType.INT, [3, 3])}
        )
        assert distinction(table, ["a"], EvolutionStatus()).tolist() == [0, 1]
        assert distinction(
            table, ["a", "b"], EvolutionStatus()
        ).tolist() == [0, 1]
        with pytest.raises(EvolutionError):
            distinction(table, [], EvolutionStatus())


class TestFiltering:
    def test_filter_column_values(self):
        table = table_from_python(
            "R", {"x": (DataType.STRING, list("abcabc"))}
        )
        status = EvolutionStatus()
        out = filter_column(
            table.column("x"), np.array([0, 2, 4]), status
        )
        assert out.to_values() == ["a", "c", "b"]
        assert status.bitmaps_filtered == 3

    def test_filter_column_compaction(self):
        table = table_from_python(
            "R", {"x": (DataType.STRING, list("aabb"))}
        )
        out = filter_column(
            table.column("x"), np.array([0, 1]), EvolutionStatus()
        )
        assert out.distinct_count == 1


class TestPlanDecomposition:
    def test_uses_declared_keys(self):
        table = table_from_python(
            "R",
            {
                "k": (DataType.INT, [1, 2]),
                "p": (DataType.INT, [1, 1]),
                "d": (DataType.INT, [4, 4]),
            },
        )
        op = DecomposeTable("R", "S", ("k", "p"), "T", ("k", "d"))
        plan = plan_decomposition(
            table, op,
            extra_fds=[FunctionalDependency.of("k", "d")],
            verify_with_data=False,
        )
        assert plan.changed_side == "right"

    def test_falls_back_to_data(self):
        table = make_fd_table(50, 10)  # K -> D in the data, no declared keys
        op = DecomposeTable("R", "S", ("K", "P"), "T", ("K", "D"))
        plan = plan_decomposition(table, op)
        assert plan.changed_side == "right"

    def test_lossy_rejected(self):
        table = table_from_python(
            "R",
            {
                "K": (DataType.INT, [1, 1]),
                "P": (DataType.INT, [1, 2]),
                "D": (DataType.INT, [3, 4]),  # K does NOT determine D
            },
        )
        op = DecomposeTable("R", "S", ("K", "P"), "T", ("K", "D"))
        with pytest.raises(LosslessJoinError):
            plan_decomposition(table, op)

    def test_no_data_check_when_disabled(self):
        table = make_fd_table(50, 10)
        op = DecomposeTable("R", "S", ("K", "P"), "T", ("K", "D"))
        with pytest.raises(LosslessJoinError):
            plan_decomposition(table, op, verify_with_data=False)


class TestDecompose:
    def test_property1_zero_work_on_unchanged_side(self):
        table = make_fd_table(200, 20)
        op = DecomposeTable("R", "S", ("K", "P"), "T", ("K", "D"))
        status = EvolutionStatus()
        left, right = decompose(table, op, status)
        # Unchanged side S shares column objects with R (no copies).
        assert left.column("P") is table.column("P")
        assert left.column("K") is table.column("K")
        assert status.columns_reused == 2
        # Only the changed side's columns were touched.
        assert status.rows_materialized == 0

    def test_changed_side_content(self):
        table = make_fd_table(300, 30, seed=3)
        op = DecomposeTable("R", "S", ("K", "P"), "T", ("K", "D"))
        _left, right = decompose(table, op, EvolutionStatus())
        assert right.nrows == 30
        expected = sorted(set(zip(
            table.column("K").to_values(), table.column("D").to_values()
        )))
        assert right.sorted_rows() == expected
        assert right.schema.primary_key == ("K",)

    def test_composite_key_changed_side(self):
        table = table_from_python(
            "R",
            {
                "a": (DataType.INT, [1, 1, 2, 1]),
                "b": (DataType.INT, [1, 1, 2, 2]),
                "c": (DataType.INT, [9, 8, 7, 6]),
                "d": (DataType.INT, [5, 5, 4, 3]),
            },
        )
        # (a, b) -> d holds in the data.
        op = DecomposeTable("R", "S", ("a", "b", "c"), "T", ("a", "b", "d"))
        _left, right = decompose(table, op, EvolutionStatus())
        assert right.sorted_rows() == [(1, 1, 5), (1, 2, 3), (2, 2, 4)]


class TestMergeKfk:
    def test_reuses_left_columns(self):
        left, right = make_join_pair(100, 0, 12, right_keyed=True)
        op = MergeTables("S", "T", "R", ("J",))
        status = EvolutionStatus()
        merged = merge_key_fk(left, right, op, ("J",), status)
        assert merged.column("J") is left.column("J")
        assert merged.column("A") is left.column("A")
        assert merged.nrows == left.nrows
        assert status.columns_reused == 2

    def test_content_matches_reference(self):
        left, right = make_join_pair(80, 0, 9, seed=5, right_keyed=True)
        op = MergeTables("S", "T", "R", ("J",))
        merged = merge_key_fk(left, right, op, ("J",), EvolutionStatus())
        expected = nested_loop_join(
            left.to_rows(), right.to_rows(), 0, 0
        )
        assert merged.sorted_rows() == expected

    def test_rejects_non_key_right(self):
        left, right = make_join_pair(30, 30, 5, seed=2)  # duplicates in T
        op = MergeTables("S", "T", "R", ("J",))
        with pytest.raises(EvolutionError):
            merge_key_fk(left, right, op, ("J",), EvolutionStatus())

    def test_rejects_dangling_keys(self):
        left = table_from_python(
            "S", {"J": (DataType.INT, [1, 5]), "A": (DataType.INT, [0, 0])}
        )
        right = table_from_python(
            "T", {"J": (DataType.INT, [1]), "B": (DataType.INT, [9])}
        )
        op = MergeTables("S", "T", "R", ("J",))
        with pytest.raises(EvolutionError):
            merge_key_fk(left, right, op, ("J",), EvolutionStatus())

    def test_composite_key_merge(self):
        left = table_from_python(
            "S",
            {
                "j1": (DataType.INT, [1, 1, 2]),
                "j2": (DataType.INT, [1, 2, 1]),
                "a": (DataType.INT, [10, 20, 30]),
            },
        )
        right = table_from_python(
            "T",
            {
                "j1": (DataType.INT, [1, 1, 2]),
                "j2": (DataType.INT, [1, 2, 1]),
                "b": (DataType.INT, [7, 8, 9]),
            },
        )
        op = MergeTables("S", "T", "R", ("j1", "j2"))
        merged = merge_key_fk(left, right, op, ("j1", "j2"), EvolutionStatus())
        assert merged.sorted_rows() == [
            (1, 1, 10, 7), (1, 2, 20, 8), (2, 1, 30, 9),
        ]


class TestMergeGeneral:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_nested_loop(self, seed):
        left, right = make_join_pair(40, 35, 6, seed=seed)
        op = MergeTables("S", "T", "R", ("J",))
        merged = merge_general(left, right, op, ("J",), EvolutionStatus())
        expected = nested_loop_join(left.to_rows(), right.to_rows(), 0, 0)
        assert merged.sorted_rows() == expected

    def test_clustered_layout(self):
        left = table_from_python(
            "S",
            {"J": (DataType.INT, [1, 2, 1]), "A": (DataType.STRING, ["x", "y", "z"])},
        )
        right = table_from_python(
            "T",
            {"J": (DataType.INT, [1, 1, 2]), "B": (DataType.STRING, ["p", "q", "r"])},
        )
        op = MergeTables("S", "T", "R", ("J",))
        merged = merge_general(left, right, op, ("J",), EvolutionStatus())
        # Block of J=1 first (n1=2 × n2=2), S-values consecutive,
        # T-values strided — the exact Section 2.5.2 layout.
        assert merged.to_rows() == [
            (1, "x", "p"), (1, "x", "q"),
            (1, "z", "p"), (1, "z", "q"),
            (2, "y", "r"),
        ]

    @pytest.mark.parametrize("seed", range(3))
    def test_t_side_column_equals_the_per_value_constructor(self, seed):
        """One batched constructor builds the T-side column: word for
        word what ``WAHBitmap.from_positions`` builds per value, in the
        same dictionary order, counted as one created bitmap each."""
        rng = np.random.default_rng(seed)
        left = table_from_python(
            "S",
            {
                "J": (DataType.INT, rng.integers(0, 8, 120).tolist()),
                "A": (DataType.INT, rng.integers(0, 5, 120).tolist()),
            },
        )
        right = table_from_python(
            "T",
            {
                # J = 8 and 9 join nothing: their B values drop out.
                "J": (DataType.INT, rng.integers(0, 10, 90).tolist()),
                "B": (DataType.STRING,
                      [f"b{v}" for v in rng.integers(0, 40, 90)]),
            },
        )
        status = EvolutionStatus()
        merged = merge_general(
            left, right, MergeTables("S", "T", "R", ("J",)), ("J",), status
        )
        column = merged.column("B")
        values = column.to_values()
        present = set(values)
        assert column.dictionary.values() == [
            v for v in right.column("B").dictionary.values() if v in present
        ]
        for vid, value in enumerate(column.dictionary.values()):
            want = WAHBitmap.from_positions(
                [row for row, v in enumerate(values) if v == value],
                merged.nrows,
            )
            assert column.bitmaps[vid].words.tolist() == want.words.tolist()
            assert column.bitmaps[vid].count() == want.count()
        assert status.bitmaps_created == sum(
            merged.column(name).distinct_count for name in ("J", "A", "B")
        )

    def test_no_common_values(self):
        left = table_from_python(
            "S", {"J": (DataType.INT, [1]), "A": (DataType.INT, [1])}
        )
        right = table_from_python(
            "T", {"J": (DataType.INT, [2]), "B": (DataType.INT, [2])}
        )
        op = MergeTables("S", "T", "R", ("J",))
        merged = merge_general(left, right, op, ("J",), EvolutionStatus())
        assert merged.nrows == 0

    def test_blowup_counts(self):
        # n1=3 occurrences × n2=4 occurrences -> 12 output rows.
        left = table_from_python(
            "S", {"J": (DataType.INT, [7] * 3), "A": (DataType.INT, [1, 2, 3])}
        )
        right = table_from_python(
            "T", {"J": (DataType.INT, [7] * 4), "B": (DataType.INT, [4, 5, 6, 7])}
        )
        op = MergeTables("S", "T", "R", ("J",))
        merged = merge_general(left, right, op, ("J",), EvolutionStatus())
        assert merged.nrows == 12

    def test_composite_join(self):
        rng = np.random.default_rng(8)
        left = table_from_python(
            "S",
            {
                "j1": (DataType.INT, rng.integers(0, 3, 25).tolist()),
                "j2": (DataType.INT, rng.integers(0, 3, 25).tolist()),
                "a": (DataType.INT, rng.integers(0, 5, 25).tolist()),
            },
        )
        right = table_from_python(
            "T",
            {
                "j1": (DataType.INT, rng.integers(0, 3, 20).tolist()),
                "j2": (DataType.INT, rng.integers(0, 3, 20).tolist()),
                "b": (DataType.INT, rng.integers(0, 5, 20).tolist()),
            },
        )
        op = MergeTables("S", "T", "R", ("j1", "j2"))
        merged = merge_general(left, right, op, ("j1", "j2"), EvolutionStatus())
        expected = sorted(
            lr + (rr[2],)
            for lr in left.to_rows()
            for rr in right.to_rows()
            if lr[0] == rr[0] and lr[1] == rr[1]
        )
        assert merged.sorted_rows() == expected


class TestCombinedCodeRegressions:
    """Exact outputs of the paths that group rows by combined vid codes:
    row order, witnesses and status counts, not just the row sets."""

    def test_kfk_composite_ignores_t_rows_with_values_absent_from_s(self):
        """T repeats (9, 9) — both values absent from S — and (1, 9) —
        j2 = 9 absent from S.  Neither can match an S row, so neither
        pair makes the join attributes a non-key: the merge succeeds."""
        left = table_from_python(
            "S",
            {
                "j1": (DataType.INT, [1, 1, 2]),
                "j2": (DataType.INT, [1, 2, 1]),
                "a": (DataType.INT, [10, 20, 30]),
            },
        )
        right = table_from_python(
            "T",
            {
                "j1": (DataType.INT, [2, 9, 1, 9, 1, 1, 1]),
                "j2": (DataType.INT, [1, 9, 1, 9, 9, 2, 9]),
                "b": (DataType.INT, [70, 71, 72, 73, 74, 75, 76]),
            },
        )
        op = MergeTables("S", "T", "R", ("j1", "j2"))
        status = EvolutionStatus()
        merged = merge_key_fk(left, right, op, ("j1", "j2"), status)
        assert merged.to_rows() == [
            (1, 1, 10, 72), (1, 2, 20, 75), (2, 1, 30, 70),
        ]
        assert status.columns_decompressed == 5

    def test_kfk_composite_duplicate_of_matchable_values_is_not_a_key(self):
        left = table_from_python(
            "S",
            {
                "j1": (DataType.INT, [1, 2]),
                "j2": (DataType.INT, [1, 2]),
            },
        )
        right = table_from_python(
            "T",
            {
                "j1": (DataType.INT, [1, 2, 1]),
                "j2": (DataType.INT, [1, 2, 1]),
                "b": (DataType.INT, [5, 6, 7]),
            },
        )
        op = MergeTables("S", "T", "R", ("j1", "j2"))
        with pytest.raises(EvolutionError, match="not a key"):
            merge_key_fk(left, right, op, ("j1", "j2"), EvolutionStatus())

    def test_general_composite_row_order_and_counts(self):
        """R is clustered by join combination in the lexicographic order
        of S's vid tuples (j1's vid most significant: 2 before 1, in
        first-seen vid order) — neither value order nor S's row order —
        and within a block S occurrence p, T occurrence q sits at
        p·n2 + q."""
        left = table_from_python(
            "S",
            {
                "j1": (DataType.INT, [2, 1, 1, 2, 1]),
                "j2": (DataType.INT, [1, 2, 1, 2, 1]),
                "a": (DataType.INT, [10, 20, 30, 40, 50]),
            },
        )
        right = table_from_python(
            "T",
            {
                "j1": (DataType.INT, [1, 2, 2, 1, 3, 1]),
                "j2": (DataType.INT, [1, 2, 1, 1, 1, 2]),
                "b": (DataType.INT, [5, 6, 7, 8, 9, 4]),
            },
        )
        op = MergeTables("S", "T", "R", ("j1", "j2"))
        status = EvolutionStatus()
        merged = merge_general(left, right, op, ("j1", "j2"), status)
        assert merged.to_rows() == [
            (2, 1, 10, 7),
            (2, 2, 40, 6),
            (1, 1, 30, 5), (1, 1, 30, 8), (1, 1, 50, 5), (1, 1, 50, 8),
            (1, 2, 20, 4),
        ]
        assert status.summary() == {
            "columns_reused": 0,
            "bitmaps_reused": 0,
            "bitmaps_filtered": 0,
            "bitmaps_created": 14,
            "columns_decompressed": 6,
            "rows_materialized": 0,
            "delta_rows_flushed": 0,
        }

    @pytest.mark.parametrize("changed", ["left", "right"])
    def test_decompose_without_declared_key_checks_the_data(self, changed):
        """R declares no key; (K1, K2) -> D holds in the data and
        (K1, K2) -> P does not, so ``holds`` alone decides which side is
        deduplicated, and its rows are the first occurrence of each
        (K1, K2) in R's row order."""
        table = table_from_python(
            "R",
            {
                "K1": (DataType.INT, [3, 1, 3, 1, 3, 2]),
                "K2": (DataType.INT, [0, 0, 0, 1, 1, 0]),
                "P": (DataType.INT, [1, 2, 3, 4, 5, 6]),
                "D": (DataType.INT, [7, 8, 7, 9, 8, 7]),
            },
        )
        keyed, free = ("K1", "K2", "D"), ("K1", "K2", "P")
        op = (
            DecomposeTable("R", "S", keyed, "T", free) if changed == "left"
            else DecomposeTable("R", "S", free, "T", keyed)
        )
        assert table.schema.all_keys() == ()
        status = EvolutionStatus()
        left, right = decompose(table, op, status)
        deduplicated, reused = (
            (left, right) if changed == "left" else (right, left)
        )
        assert deduplicated.to_rows() == [
            (3, 0, 7), (1, 0, 8), (1, 1, 9), (3, 1, 8), (2, 0, 7),
        ]
        assert reused.to_rows() == [
            (3, 0, 1), (1, 0, 2), (3, 0, 3), (1, 1, 4), (3, 1, 5), (2, 0, 6),
        ]
        assert deduplicated.schema.primary_key == ("K1", "K2")
        assert status.columns_reused == 3
        assert status.columns_decompressed == 2

    def test_decompose_decodes_each_common_column_once(self, monkeypatch):
        """With no declared key, both FD checks (``holds_each``) extend
        one grouping of the common columns: each column is decoded once —
        the common one included — and the single-column distinction
        reads bitmaps only."""
        from repro.storage.column import BitmapColumn

        table = table_from_python(
            "R",
            {
                "E": (DataType.INT, [i % 7 for i in range(60)]),
                "K": (DataType.INT, list(range(60))),
                "A": (DataType.STRING, [f"a{i % 7}" for i in range(60)]),
                "P": (DataType.INT, [i % 7 * 10 for i in range(60)]),
            },
        )
        decoded = []
        decode_vids = BitmapColumn.decode_vids

        def counted(column):
            decoded.append(column.name)
            return decode_vids(column)

        monkeypatch.setattr(BitmapColumn, "decode_vids", counted)
        op = DecomposeTable("R", "S", ("E", "K"), "T", ("E", "A"))
        _left, right = decompose(table, op, EvolutionStatus())
        assert sorted(decoded) == ["A", "E", "K"]
        assert right.nrows == 7

        decoded.clear()
        plan = plan_decomposition(
            table,
            DecomposeTable("R", "S", ("E", "A", "K"), "T", ("E", "A", "P")),
        )
        assert plan.changed_side == "right"
        assert sorted(decoded) == ["A", "E", "K", "P"]
