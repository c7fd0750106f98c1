"""Unit tests for the row-store substrate: B+-tree, heap, engine."""

import numpy as np
import pytest

from repro.errors import SchemaError, StorageError
from repro.rowstore import BPlusTree, HeapTable, RowEngine
from repro.storage import ColumnSchema, DataType, TableSchema


def schema_ab(name="R"):
    return TableSchema(
        name,
        (ColumnSchema("a", DataType.INT), ColumnSchema("b", DataType.STRING)),
    )


class TestBPlusTree:
    def test_insert_and_search(self):
        tree = BPlusTree(order=4)
        for key in [5, 3, 8, 1, 9, 7, 2, 6, 4, 0]:
            tree.insert(key, key * 10)
        for key in range(10):
            assert tree.search(key) == [key * 10]
        assert tree.search(99) == []
        assert len(tree) == 10

    def test_duplicate_keys_accumulate(self):
        tree = BPlusTree(order=4)
        tree.insert("x", 1)
        tree.insert("x", 2)
        assert sorted(tree.search("x")) == [1, 2]
        assert len(tree) == 2

    def test_splits_maintain_order(self):
        tree = BPlusTree(order=4)
        keys = list(range(200))
        rng = np.random.default_rng(0)
        rng.shuffle(keys)
        for key in keys:
            tree.insert(key, key)
        assert tree.keys() == sorted(range(200))
        assert tree.height > 1

    def test_bulk_load_equals_incremental(self):
        pairs = [(k % 37, k) for k in range(500)]
        bulk = BPlusTree.bulk_load(pairs, order=16)
        incremental = BPlusTree(order=16)
        for key, row in pairs:
            incremental.insert(key, row)
        assert bulk.keys() == incremental.keys()
        for key in range(37):
            assert sorted(bulk.search(key)) == sorted(
                incremental.search(key)
            )

    def test_bulk_load_empty(self):
        tree = BPlusTree.bulk_load([])
        assert len(tree) == 0
        assert tree.search(1) == []

    def test_order_validation(self):
        with pytest.raises(StorageError):
            BPlusTree(order=2)


class TestHeapTable:
    def test_insert_and_scan(self):
        heap = HeapTable(schema_ab())
        heap.insert((1, "x"))
        heap.insert(("2", "y"))  # coerced
        assert list(heap.scan()) == [(1, "x"), (2, "y")]
        assert heap.nrows == 2

    def test_arity_check(self):
        heap = HeapTable(schema_ab())
        with pytest.raises(StorageError):
            heap.insert((1,))

    def test_index_maintained_on_insert(self):
        heap = HeapTable(schema_ab())
        heap.insert_many([(i % 3, str(i)) for i in range(9)])
        heap.create_index("a")
        heap.insert((0, "ten"))
        assert len(heap.lookup("a", 0)) == 4

    def test_lookup_without_index(self):
        heap = HeapTable(schema_ab())
        heap.insert_many([(1, "x"), (2, "y"), (1, "z")])
        assert heap.lookup("a", 1) == [(1, "x"), (1, "z")]

    def test_create_index_unknown_column(self):
        heap = HeapTable(schema_ab())
        with pytest.raises(SchemaError):
            heap.create_index("zzz")


class TestRowEngine:
    @pytest.fixture
    def engine(self):
        engine = RowEngine()
        engine.create_table(schema_ab())
        engine.insert_rows(
            "R", [(1, "x"), (2, "y"), (1, "z"), (3, "x")]
        )
        return engine

    def test_catalog_ops(self, engine):
        with pytest.raises(SchemaError):
            engine.create_table(schema_ab())
        engine.rename_table("R", "R2")
        assert engine.table_names() == ["R2"]
        engine.drop_table("R2")
        with pytest.raises(SchemaError):
            engine.drop_table("R2")

    def test_scan_with_predicate(self, engine):
        rows = list(
            engine.scan("R", lambda get: get("a") == 1)
        )
        assert rows == [(1, "x"), (1, "z")]

    def test_project_distinct(self, engine):
        values = list(engine.project("R", ["b"], distinct=True))
        assert values == [("x",), ("y",), ("z",)]

    def test_project_plain(self, engine):
        values = list(engine.project("R", ["a"]))
        assert values == [(1,), (2,), (1,), (3,)]

    def test_hash_join(self, engine):
        other = TableSchema(
            "Dim",
            (
                ColumnSchema("a", DataType.INT),
                ColumnSchema("label", DataType.STRING),
            ),
        )
        engine.create_table(other)
        engine.insert_rows("Dim", [(1, "one"), (2, "two"), (3, "three")])
        rows = sorted(
            engine.hash_join("R", "Dim", ["a"], ["a", "b", "label"])
        )
        assert rows == [
            (1, "x", "one"), (1, "z", "one"),
            (2, "y", "two"), (3, "x", "three"),
        ]

    def test_hash_join_builds_on_smaller(self, engine):
        # Just a behavioural check: join is symmetric in content.
        other = TableSchema("Big", (ColumnSchema("a", DataType.INT),))
        engine.create_table(other)
        engine.insert_rows("Big", [(1,)] * 10)
        rows = list(engine.hash_join("R", "Big", ["a"], ["a", "b"]))
        assert len(rows) == 20  # 2 R-rows with a=1 × 10

    def test_join_unknown_output_column(self, engine):
        other = TableSchema("D2", (ColumnSchema("a", DataType.INT),))
        engine.create_table(other)
        with pytest.raises(SchemaError):
            list(engine.hash_join("R", "D2", ["a"], ["nope"]))
