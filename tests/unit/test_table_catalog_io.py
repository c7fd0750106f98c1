"""Unit tests for tables, the catalog and both IO formats."""

import struct

import numpy as np
import pytest

from repro.bitmap import WAHBitmap
from repro.core import EvolutionEngine
from repro.errors import SchemaError, SerializationError, StorageError
from repro.storage import (
    Catalog,
    ColumnSchema,
    DataType,
    Table,
    TableSchema,
    infer_type,
    load_csv,
    load_engine,
    load_table,
    save_csv,
    save_engine,
    save_table,
    table_from_python,
)


@pytest.fixture
def small_table():
    return table_from_python(
        "R",
        {
            "a": (DataType.INT, [1, 2, 1, 3]),
            "b": (DataType.STRING, ["x", "y", "x", "z"]),
        },
        primary_key=(),
    )


class TestTable:
    def test_from_rows(self):
        schema = TableSchema(
            "R",
            (ColumnSchema("a", DataType.INT), ColumnSchema("b", DataType.STRING)),
        )
        table = Table.from_rows(schema, [(1, "x"), (2, "y")])
        assert table.to_rows() == [(1, "x"), (2, "y")]

    def test_ragged_columns_rejected(self):
        schema = TableSchema(
            "R",
            (ColumnSchema("a", DataType.INT), ColumnSchema("b", DataType.INT)),
        )
        with pytest.raises(StorageError):
            Table.from_columns(schema, {"a": [1], "b": [1, 2]})

    def test_missing_column_data_rejected(self):
        schema = TableSchema("R", (ColumnSchema("a", DataType.INT),))
        with pytest.raises(SchemaError):
            Table.from_columns(schema, {})

    def test_empty_table(self):
        schema = TableSchema("R", (ColumnSchema("a", DataType.INT),))
        table = Table.empty(schema)
        assert table.nrows == 0
        assert table.to_rows() == []

    def test_project_shares_columns(self, small_table):
        projected = small_table.project(["b"], "P")
        assert projected.column("b") is small_table.column("b")
        assert projected.nrows == small_table.nrows

    def test_with_without_rename_column(self, small_table):
        from repro.storage import BitmapColumn

        extra = BitmapColumn.from_values("c", DataType.BOOL, [True] * 4)
        wider = small_table.with_column(
            ColumnSchema("c", DataType.BOOL), extra
        )
        assert wider.column_names == ("a", "b", "c")
        narrower = wider.without_column("a")
        assert narrower.column_names == ("b", "c")
        renamed = narrower.with_renamed_column("b", "bb")
        assert renamed.column_names == ("bb", "c")

    def test_with_column_length_check(self, small_table):
        from repro.storage import BitmapColumn

        bad = BitmapColumn.from_values("c", DataType.INT, [1])
        with pytest.raises(StorageError):
            small_table.with_column(ColumnSchema("c", DataType.INT), bad)

    def test_concat_requires_compatibility(self, small_table):
        other = table_from_python("X", {"a": (DataType.INT, [5])})
        with pytest.raises(SchemaError):
            small_table.concat(other)

    def test_same_content_unordered(self, small_table):
        shuffled = table_from_python(
            "R",
            {
                "a": (DataType.INT, [3, 1, 2, 1]),
                "b": (DataType.STRING, ["z", "x", "y", "x"]),
            },
        )
        assert small_table.same_content(shuffled)
        assert not small_table.same_content(shuffled, ordered=True)

    def test_head(self, small_table):
        assert small_table.head(2) == [(1, "x"), (2, "y")]


class TestCatalog:
    def test_create_drop_rename(self, small_table):
        catalog = Catalog()
        catalog.create(small_table)
        assert "R" in catalog
        with pytest.raises(SchemaError):
            catalog.create(small_table)
        catalog.rename("R", "R2")
        assert catalog.table("R2").nrows == 4
        with pytest.raises(SchemaError):
            catalog.table("R")
        dropped = catalog.drop("R2")
        assert dropped.nrows == 4
        assert catalog.table_names() == []

    def test_history_versions(self, small_table):
        catalog = Catalog()
        catalog.create(small_table)
        catalog.rename("R", "R2")
        assert catalog.version == 2

    def test_describe(self, small_table):
        catalog = Catalog()
        assert "empty" in catalog.describe()
        catalog.create(small_table)
        text = catalog.describe()
        assert "R(" in text and "4 rows" in text


class TestCsvIO:
    def test_roundtrip(self, small_table, tmp_path):
        path = tmp_path / "r.csv"
        save_csv(small_table, path)
        loaded = load_csv(path, "R")
        assert loaded.same_content(small_table, ordered=True)
        assert loaded.schema.column("a").dtype == DataType.INT

    def test_type_inference(self):
        assert infer_type(["1", "2"]) == DataType.INT
        assert infer_type(["1.5", "2"]) == DataType.FLOAT
        assert infer_type(["true", "false"]) == DataType.BOOL
        assert infer_type(["2020-01-01"]) == DataType.DATE
        assert infer_type(["hello", "1"]) == DataType.STRING
        assert infer_type([""]) == DataType.STRING

    def test_nulls(self, tmp_path):
        table = table_from_python(
            "N", {"a": (DataType.INT, [1, None, 3])}
        )
        path = tmp_path / "n.csv"
        save_csv(table, path)
        loaded = load_csv(path, "N")
        assert loaded.to_rows() == [(1,), (None,), (3,)]

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(StorageError):
            load_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(StorageError):
            load_csv(path)

    def test_file_stem_must_be_an_identifier(self, small_table, tmp_path):
        path = tmp_path / "my-data.csv"
        save_csv(small_table, path)
        with pytest.raises(StorageError, match="load <path> <name>"):
            load_csv(path)
        loaded = load_csv(path, "my_data")
        assert loaded.schema.name == "my_data"
        assert loaded.same_content(small_table, ordered=True)

    def test_a_passed_schema_names_the_table(self, small_table, tmp_path):
        path = tmp_path / "r.csv"
        save_csv(small_table, path)
        people = small_table.schema.renamed("people")
        loaded = load_csv(path, schema=people)
        assert loaded.schema.name == "people"
        assert loaded.same_content(small_table, ordered=True)
        assert load_csv(path, "crew", schema=people).schema.name == "crew"

    def test_a_passed_schema_skips_the_file_stem_check(
        self, small_table, tmp_path
    ):
        path = tmp_path / "my-data.csv"
        save_csv(small_table, path)
        loaded = load_csv(path, schema=small_table.schema.renamed("people"))
        assert loaded.schema.name == "people"
        assert loaded.same_content(small_table, ordered=True)

    def test_explicit_schema_header_check(self, small_table, tmp_path):
        path = tmp_path / "r.csv"
        save_csv(small_table, path)
        wrong = TableSchema("R", (ColumnSchema("zzz", DataType.INT),))
        with pytest.raises(StorageError):
            load_csv(path, schema=wrong)


# ``save_table`` of Z(a INT) = [7, 7, 9]: header, schema JSON, then the
# one column's codec block, dictionary JSON and two WAH bitmaps.
PINNED_CODS = (
    b"CODS\x01\x00\x03\x00\x00\x00\x00\x00\x00\x00t\x00\x00\x00"
    b'{"name": "Z", "columns": [{"name": "a", "dtype": "INT", '
    b'"nullable": true}], "primary_key": [], "candidate_keys": []}'
    b"\x01\x00\x00\x00"
    b"\x03\x00\x00\x00wah"
    b"\x06\x00\x00\x00[7, 9]"
    b"\x02\x00\x00\x00"
    b"\x14\x00\x00\x00WAH1\x03\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00"
    b"\x03\x00\x00\x00"
    b"\x14\x00\x00\x00WAH1\x03\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00"
    b"\x04\x00\x00\x00"
)


class TestBinaryIO:
    def test_roundtrip(self, small_table, tmp_path):
        path = tmp_path / "r.cods"
        save_table(small_table, path)
        loaded = load_table(path)
        assert loaded.same_content(small_table, ordered=True)
        assert loaded.schema.column_names == small_table.schema.column_names

    def test_roundtrip_with_nulls_and_dates(self, tmp_path):
        import datetime

        table = table_from_python(
            "D",
            {
                "when": (
                    DataType.DATE,
                    [datetime.date(2010, 9, 13), None],
                ),
                "ok": (DataType.BOOL, [True, False]),
            },
        )
        path = tmp_path / "d.cods"
        save_table(table, path)
        assert load_table(path).to_rows() == table.to_rows()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.cods"
        path.write_bytes(b"JUNKJUNKJUNK")
        with pytest.raises(SerializationError):
            load_table(path)

    def test_truncated(self, small_table, tmp_path):
        path = tmp_path / "r.cods"
        save_table(small_table, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(SerializationError):
            load_table(path)

    def test_catalog_roundtrip(self, small_table, tmp_path):
        catalog = Catalog()
        catalog.create(small_table)
        catalog.create(small_table.renamed("R2"))
        save_engine(EvolutionEngine(catalog), tmp_path / "db")
        loaded = load_engine(tmp_path / "db").catalog
        assert loaded.table_names() == ["R", "R2"]
        assert loaded.table("R").same_content(small_table, ordered=True)

    def test_catalog_missing_manifest(self, tmp_path):
        with pytest.raises(SerializationError):
            load_engine(tmp_path)

    def test_compressed_on_disk(self, tmp_path):
        # A highly compressible table must stay small on disk.
        table = table_from_python(
            "Z", {"a": (DataType.INT, [7] * 100_000)}
        )
        path = tmp_path / "z.cods"
        save_table(table, path)
        assert path.stat().st_size < 2_000

    def test_file_bytes_are_pinned(self, tmp_path):
        """Files written before WAH became the only codec still load,
        and saving writes them back byte for byte."""
        path = tmp_path / "z.cods"
        path.write_bytes(PINNED_CODS)
        loaded = load_table(path)
        assert loaded.to_rows() == [(7,), (7,), (9,)]
        save_table(loaded, tmp_path / "again.cods")
        assert (tmp_path / "again.cods").read_bytes() == PINNED_CODS
        save_table(
            table_from_python("Z", {"a": (DataType.INT, [7, 7, 9])}), path
        )
        assert path.read_bytes() == PINNED_CODS

    @pytest.mark.parametrize(
        "codec", [b"plain", b"\xff\xfewah"], ids=["plain", "non-utf8"]
    )
    def test_codec_other_than_wah_is_rejected(self, small_table, tmp_path,
                                              codec):
        path = tmp_path / "r.cods"
        save_table(small_table, path)
        data = path.read_bytes()
        block = struct.pack("<I", 3) + b"wah"
        at = data.index(block, data.index(block) + 1)  # column b's block
        path.write_bytes(
            data[:at] + struct.pack("<I", len(codec)) + codec
            + data[at + len(block):]
        )
        with pytest.raises(SerializationError) as info:
            load_table(path)
        assert str(path) in str(info.value)
        assert "column 'b'" in str(info.value)


class TestMalformedBitmaps:
    """Each file once loaded and then answered queries wrongly (a one-fill
    too long made ``s = 'b'`` match all 62 rows, not 31) or failed
    later with a ``BitmapError``; the load rejects every one with a
    ``SerializationError`` naming the file and the column."""

    @staticmethod
    def replay(tmp_path, nrows, words, nbits=None):
        """Save an ``nrows``-row table whose column ``s`` alternates 'a'
        and 'b', then swap the stored bitmap of 'b' for ``words`` with
        header length ``nbits`` (``nrows`` by default)."""
        table = table_from_python(
            "T",
            {
                "k": (DataType.INT, list(range(nrows))),
                "s": (DataType.STRING, ["a", "b"] * (nrows // 2)),
            },
            primary_key=(),
        )
        path = tmp_path / "T.cods"
        save_table(table, path)
        old = table.column("s").bitmaps[1].to_bytes()
        new = WAHBitmap(
            np.array(words, dtype=np.uint32),
            nrows if nbits is None else nbits,
        ).to_bytes()
        data = path.read_bytes()
        block = struct.pack("<I", len(old)) + old
        assert data.count(block) == 1
        path.write_bytes(
            data.replace(block, struct.pack("<I", len(new)) + new)
        )
        return path

    def assert_rejected(self, path):
        with pytest.raises(SerializationError) as info:
            load_table(path)
        assert str(path) in str(info.value)
        assert "column 's'" in str(info.value)

    def test_well_formed_words_load_unchanged(self, tmp_path):
        b = 0x2AAAAAAA  # bits 1, 3, ..., 29 of a group
        path = self.replay(tmp_path, 62, [b, b ^ 0x7FFFFFFF])
        column = load_table(path).column("s")
        assert column.bitmaps[1].count() == 31
        assert column.bitmaps[1].words.tolist() == [b, b ^ 0x7FFFFFFF]

    def test_one_fill_longer_than_the_table(self, tmp_path):
        path = self.replay(tmp_path, 62, [0xC000000A, 0x55555555])
        self.assert_rejected(path)
        (tmp_path / "catalog.json").write_text(
            f'{{"tables": ["{path.stem}"], "version": 1}}'
        )
        with pytest.raises(SerializationError):
            load_engine(tmp_path)

    def test_header_length_is_not_the_row_count(self, tmp_path):
        self.assert_rejected(
            self.replay(tmp_path, 62, [0x2AAAAAAA, 0x55555555], nbits=93)
        )

    def test_short_word_array(self, tmp_path):
        self.assert_rejected(self.replay(tmp_path, 62, [0x2AAAAAAA]))

    def test_no_words(self, tmp_path):
        self.assert_rejected(self.replay(tmp_path, 62, []))

    def test_padding_bits_set(self, tmp_path):
        # 40 rows: the second group holds 9 bits; bit 9 is padding.
        self.assert_rejected(
            self.replay(tmp_path, 40, [0x2AAAAAAA, 0x0AA | 0x200])
        )

    def test_fill_over_the_partial_last_group(self, tmp_path):
        self.assert_rejected(self.replay(tmp_path, 40, [0x80000002]))

    def test_fill_of_zero_groups(self, tmp_path):
        self.assert_rejected(
            self.replay(tmp_path, 62, [0x2AAAAAAA, 0x80000000, 0x55555555])
        )
