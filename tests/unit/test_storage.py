"""Unit tests for the storage layer: types, schema, dictionary, column."""

import datetime

import numpy as np
import pytest

from repro.bitmap.batch import batch_from_positions
from repro.errors import SchemaError, StorageError
from repro.storage import (
    BitmapColumn,
    ColumnSchema,
    DataType,
    Dictionary,
    TableSchema,
    coerce,
    parse_text,
    parse_type_name,
    render_text,
)


class TestTypes:
    def test_coerce_int(self):
        assert coerce("42", DataType.INT) == 42
        assert coerce(42.0, DataType.INT) == 42
        assert coerce(True, DataType.INT) == 1

    def test_coerce_int_rejects_fraction(self):
        with pytest.raises(SchemaError):
            coerce(1.5, DataType.INT)

    def test_coerce_float(self):
        assert coerce("1.5", DataType.FLOAT) == 1.5
        assert coerce(2, DataType.FLOAT) == 2.0

    def test_coerce_string(self):
        assert coerce(7, DataType.STRING) == "7"
        assert coerce("x", DataType.STRING) == "x"

    def test_coerce_bool(self):
        assert coerce("true", DataType.BOOL) is True
        assert coerce("No", DataType.BOOL) is False
        assert coerce(1, DataType.BOOL) is True
        with pytest.raises(SchemaError):
            coerce("maybe", DataType.BOOL)

    def test_coerce_date(self):
        assert coerce("2010-09-13", DataType.DATE) == datetime.date(
            2010, 9, 13
        )
        with pytest.raises(SchemaError):
            coerce("13/09/2010", DataType.DATE)

    def test_none_passthrough(self):
        for dtype in DataType:
            assert coerce(None, dtype) is None

    def test_parse_and_render_text(self):
        assert parse_text("", DataType.INT) is None
        assert parse_text("5", DataType.INT) == 5
        assert render_text(None) == ""
        assert render_text(datetime.date(2010, 9, 13)) == "2010-09-13"

    def test_parse_type_name(self):
        assert parse_type_name("VARCHAR(30)") == DataType.STRING
        assert parse_type_name("integer") == DataType.INT
        assert parse_type_name("DOUBLE") == DataType.FLOAT
        with pytest.raises(SchemaError):
            parse_type_name("BLOB")


class TestTableSchema:
    @pytest.fixture
    def schema(self):
        return TableSchema(
            "R",
            (
                ColumnSchema("a", DataType.INT),
                ColumnSchema("b", DataType.STRING),
                ColumnSchema("c", DataType.FLOAT),
            ),
            primary_key=("a",),
            candidate_keys=(("b",),),
        )

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema(
                "R",
                (
                    ColumnSchema("a", DataType.INT),
                    ColumnSchema("a", DataType.INT),
                ),
            )

    def test_key_must_reference_columns(self):
        with pytest.raises(SchemaError):
            TableSchema(
                "R", (ColumnSchema("a", DataType.INT),), primary_key=("z",)
            )

    def test_lookups(self, schema):
        assert schema.column_names == ("a", "b", "c")
        assert schema.index_of("b") == 1
        assert schema.column("c").dtype == DataType.FLOAT
        with pytest.raises(SchemaError):
            schema.column("zzz")

    def test_is_key(self, schema):
        assert schema.is_key(("a",))
        assert schema.is_key(("a", "c"))
        assert schema.is_key(("b",))
        assert not schema.is_key(("c",))

    def test_all_keys_dedup(self, schema):
        assert schema.all_keys() == (("a",), ("b",))

    def test_with_column(self, schema):
        wider = schema.with_column(ColumnSchema("d", DataType.BOOL))
        assert wider.column_names == ("a", "b", "c", "d")
        with pytest.raises(SchemaError):
            wider.with_column(ColumnSchema("a", DataType.INT))

    def test_without_column(self, schema):
        narrower = schema.without_column("c")
        assert narrower.column_names == ("a", "b")
        with pytest.raises(SchemaError):
            schema.without_column("a")  # primary key column

    def test_without_column_drops_affected_candidate_keys(self, schema):
        narrower = schema.without_column("b")
        assert narrower.candidate_keys == ()

    def test_rename_column_fixes_keys(self, schema):
        renamed = schema.with_renamed_column("a", "id")
        assert renamed.primary_key == ("id",)
        assert renamed.column_names == ("id", "b", "c")
        with pytest.raises(SchemaError):
            schema.with_renamed_column("a", "b")

    def test_project(self, schema):
        projected = schema.project(["b", "a"], "P")
        assert projected.column_names == ("b", "a")
        assert projected.candidate_keys == (("b",),)
        with pytest.raises(SchemaError):
            schema.project(["nope"], "P")

    def test_compatible_with(self, schema):
        same = TableSchema("Other", schema.columns)
        assert schema.compatible_with(same)
        different = TableSchema("X", (ColumnSchema("a", DataType.INT),))
        assert not schema.compatible_with(different)

    def test_invalid_names(self):
        with pytest.raises(SchemaError):
            ColumnSchema("bad name", DataType.INT)
        with pytest.raises(SchemaError):
            TableSchema("", ())


class TestDictionary:
    def test_insertion_order_ids(self):
        dictionary = Dictionary()
        assert dictionary.add("x") == 0
        assert dictionary.add("y") == 1
        assert dictionary.add("x") == 0
        assert len(dictionary) == 2

    def test_encode_bulk_matches_sequential(self):
        values = ["b", "a", "b", "c", "a", "b"]
        bulk = Dictionary()
        vids_bulk = bulk.encode(values)
        sequential = Dictionary()
        vids_seq = [sequential.add(v) for v in values]
        assert vids_bulk.tolist() == vids_seq
        assert bulk.values() == sequential.values()

    def test_copy_and_subset_equal_rebuilding_by_add(self):
        nan = float("nan")
        dictionary = Dictionary(["x", nan, 3, None, float("nan")])
        kept = [4, 1, 0]
        for built, values in (
            (dictionary.copy(), dictionary.values()),
            (dictionary.subset(kept), [dictionary.value(v) for v in kept]),
        ):
            rebuilt = Dictionary(values)
            assert built.values() == rebuilt.values()
            for value in values + [float("nan"), "y"]:
                assert built.vid_or_none(value) == rebuilt.vid_or_none(value)
        copy = dictionary.copy()
        assert copy.add("new") == 5 and "new" not in dictionary

    def test_encode_numpy_ints(self):
        dictionary = Dictionary()
        vids = dictionary.encode(np.array([5, 3, 5, 9]))
        assert vids.tolist() == [0, 1, 0, 2]
        assert dictionary.values() == [5, 3, 9]

    def test_encode_incremental(self):
        dictionary = Dictionary()
        dictionary.encode(["a", "b"])
        vids = dictionary.encode(["b", "c"])
        assert vids.tolist() == [1, 2]

    def test_encode_with_none(self):
        dictionary = Dictionary()
        vids = dictionary.encode(["a", None, "a"])
        assert vids.tolist() == [0, 1, 0]
        assert dictionary.value(1) is None

    def test_encode_keeps_trailing_nul_strings_apart(self):
        # A fixed-width NumPy string drops trailing NULs; the bulk path
        # must not merge "a\0" into "a".
        dictionary = Dictionary()
        vids = dictionary.encode(["a\0", "a", "a\0", "b"])
        assert vids.tolist() == [0, 1, 0, 2]
        assert dictionary.values() == ["a\0", "a", "b"]

    def test_bulk_registration_gives_the_add_loop_vids(self):
        """``Dictionary(values)`` and ``encode`` register a batch in one
        step; the vids (and, for the constructor, the first-seen value
        objects) are those of one ``add`` per value."""
        nan = float("nan")
        batches = (
            ["b", "a", "b", "c", "a"],
            [1, 1.0, True, 2, 1],
            [True, 1.0, 1],
            [nan, None, nan, float("nan"), 0.5],
            [None, "x", None],
            ["z\0", "z", "z\0"],
            [3, None, 3.0, "z\0", nan, True, "z", nan],
        )
        for values in batches:
            looped = Dictionary()
            want = [looped.add(value) for value in values]
            built = Dictionary(values)
            assert built.lookup(values).tolist() == want
            assert len(built) == len(looped)
            assert all(a is b for a, b in zip(built, looped))
            for prefix in ((), ("b", 1, None, "z")):
                looped, bulk = Dictionary(prefix), Dictionary(prefix)
                want = [looped.add(value) for value in values]
                assert bulk.encode(values).tolist() == want
                assert bulk.values() == looped.values()

    def test_lookup_errors(self):
        dictionary = Dictionary(["x"])
        with pytest.raises(StorageError):
            dictionary.vid("missing")
        with pytest.raises(StorageError):
            dictionary.value(5)
        assert dictionary.vid_or_none("missing") is None

    def test_decode(self):
        dictionary = Dictionary(["a", "b"])
        assert dictionary.decode(np.array([1, 0, 1])) == ["b", "a", "b"]


class TestBitmapColumn:
    def test_from_values_roundtrip(self):
        column = BitmapColumn.from_values(
            "c", DataType.STRING, ["x", "y", "x", "z", "x"]
        )
        assert column.nrows == 5
        assert column.distinct_count == 3
        assert column.to_values() == ["x", "y", "x", "z", "x"]

    @pytest.mark.parametrize(
        "distinct", [1, 256, 65_535, 65_536, 65_537, 70_000]
    )
    def test_from_vids_writes_the_int64_argsort_words(self, distinct):
        """The counting order (8-bit, 16-bit or two 16-bit passes) groups
        the rows exactly as a stable int64 argsort does."""
        rng = np.random.default_rng(distinct)
        vids = rng.permutation(np.concatenate(
            (np.arange(distinct), rng.integers(0, distinct, distinct + 99))
        ))
        column = BitmapColumn.from_vids(
            "c", DataType.INT, Dictionary(range(distinct)), vids
        )
        bounds = np.cumsum([0, *np.bincount(vids, minlength=distinct)])
        want = batch_from_positions(
            np.argsort(vids, kind="stable"), bounds, len(vids)
        )
        assert np.array_equal(column.bitmaps.words, want.words)
        assert np.array_equal(column.bitmaps.offsets, want.offsets)

    def test_value_counts(self):
        column = BitmapColumn.from_values("c", DataType.INT, [1, 2, 1, 1, 2])
        assert column.value_counts().tolist() == [3, 2]

    def test_get(self):
        column = BitmapColumn.from_values("c", DataType.INT, [4, 5, 6])
        assert [column.get(i) for i in range(3)] == [4, 5, 6]
        with pytest.raises(StorageError):
            column.get(3)

    def test_select_compacts_dictionary(self):
        column = BitmapColumn.from_values(
            "c", DataType.STRING, ["a", "b", "c", "a"]
        )
        out = column.select(np.array([0, 3]))
        assert out.to_values() == ["a", "a"]
        assert out.distinct_count == 1

    def test_select_no_compact_keeps_dictionary(self):
        column = BitmapColumn.from_values("c", DataType.INT, [1, 2, 3])
        out = column.select(np.array([0]), compact=False)
        assert out.distinct_count == 3
        assert out.to_values() == [1]

    def test_concat_shared_and_new_values(self):
        a = BitmapColumn.from_values("c", DataType.STRING, ["x", "y"])
        b = BitmapColumn.from_values("c", DataType.STRING, ["y", "z"])
        combined = a.concat(b)
        assert combined.to_values() == ["x", "y", "y", "z"]
        assert combined.distinct_count == 3

    def test_concat_type_mismatch(self):
        a = BitmapColumn.from_values("c", DataType.STRING, ["x"])
        b = BitmapColumn.from_values("c", DataType.INT, [1])
        with pytest.raises(StorageError):
            a.concat(b)

    def test_decode_vids_detects_corruption(self):
        column = BitmapColumn.from_values("c", DataType.INT, [1, 2])
        bitmaps = list(column.bitmaps)
        bitmaps[0] = type(bitmaps[0]).zeros(2)
        column = BitmapColumn("c", DataType.INT, column.dictionary, bitmaps, 2)
        with pytest.raises(StorageError):
            column.decode_vids()

    def test_nulls_roundtrip(self):
        column = BitmapColumn.from_values(
            "c", DataType.INT, [1, None, 1, None]
        )
        assert column.to_values() == [1, None, 1, None]

    def test_renamed_shares_bitmaps(self):
        column = BitmapColumn.from_values("c", DataType.INT, [1, 2])
        renamed = column.renamed("d")
        assert renamed.name == "d"
        assert renamed.bitmaps is column.bitmaps
