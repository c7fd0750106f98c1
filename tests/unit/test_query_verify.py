"""Tests for compressed-domain querying and integrity verification."""

import numpy as np
import pytest

from repro.db import Database
from repro.delta import CompactionPolicy
from repro.errors import StorageError
from repro.exec.batch import TableBatch
from repro.smo import Comparison, Or, parse_smo
from repro.sql import iter_script_statements
from repro.storage import BitmapColumn, DataType, table_from_python
from repro.storage.verify import (
    VerificationReport,
    verify_catalog,
    verify_column,
    verify_table,
)


@pytest.fixture
def table():
    return table_from_python(
        "Q",
        {
            "city": (DataType.STRING, ["SF", "NY", "SF", "LA", "NY", "SF"]),
            "pop": (DataType.INT, [8, 19, 8, 12, 19, 9]),
        },
    )


@pytest.fixture
def db(table):
    """``table`` served as the main store of a ``Database`` (no delta
    rows), so every query below reads bitmaps in the compressed domain."""
    db = Database(policy=CompactionPolicy.never())
    db.load_table(table)
    yield db
    db.close()


class TestQuery:
    def test_count_where(self, db):
        count = "SELECT COUNT(*) FROM Q WHERE "
        assert db.execute(count + "city = 'SF'") == [(3,)]
        assert db.execute(count + "pop > 10") == [(3,)]
        assert db.execute(count + "city = 'NY' AND pop = 19") == [(2,)]

    def test_select_where(self, db):
        rows = db.execute("SELECT * FROM Q WHERE city = 'SF'")
        assert rows == [("SF", 8), ("SF", 8), ("SF", 9)]

    def test_select_where_projection(self, db):
        rows = db.execute("SELECT city FROM Q WHERE pop >= 12")
        assert sorted(rows) == [("LA",), ("NY",), ("NY",)]

    def test_select_where_empty(self, db):
        assert db.execute("SELECT * FROM Q WHERE city = 'ZZ'") == []

    def test_positions_where(self, table):
        batch = TableBatch(table).filter(
            Or(Comparison("city", "=", "LA"), Comparison("pop", "=", 9))
        )
        assert batch.selection.tolist() == [3, 5]

    def test_group_count(self, db):
        assert db.execute(
            "SELECT city, COUNT(*) FROM Q GROUP BY city"
        ) == [("LA", 1), ("NY", 2), ("SF", 3)]

    def test_value_exists(self, db):
        count = "SELECT COUNT(*) FROM Q WHERE city = "
        assert db.execute(count + "'SF'") == [(3,)]
        assert db.execute(count + "'Boston'") == [(0,)]

    def test_query_survives_evolution(self, db):
        """Bitmaps stay queryable after a data-level evolution."""
        db.execute("PARTITION TABLE Q INTO West, East WHERE city = 'SF'")
        assert db.execute(
            "SELECT COUNT(*) FROM West WHERE pop = 8"
        ) == [(2,)]
        assert db.execute(
            "SELECT city, COUNT(*) FROM West GROUP BY city"
        ) == [("SF", 3)]
        metrics = db.adapter.metrics
        assert metrics.counter("exec.agg_batches_compressed").value == 2
        assert metrics.counter("exec.agg_batches_hash").value == 0

    def test_predicate_validation(self, db):
        from repro.errors import SchemaError

        with pytest.raises(SchemaError):
            db.execute("SELECT COUNT(*) FROM Q WHERE nope = 1")


class TestVerify:
    def test_clean_table_passes(self, table):
        report = verify_table(table)
        assert report.ok
        assert str(report) == "ok"

    @staticmethod
    def corrupted(column, bitmap):
        """``column`` with ``bitmap`` in place of vid 0's bitmap, built
        through the constructor."""
        bitmaps = list(column.bitmaps)
        bitmaps[0] = bitmap
        return BitmapColumn(
            column.name, column.dtype, column.dictionary, bitmaps,
            column.nrows,
        )

    def test_overlapping_bitmaps_detected(self, table):
        column = table.column("city")
        codec = type(column.bitmaps[0])
        report = verify_column(
            self.corrupted(column, codec.from_positions([0, 1], table.nrows))
        )
        assert not report.ok
        assert any("multiple values" in v for v in report.violations)

    def test_uncovered_rows_detected(self, table):
        column = table.column("city")
        codec = type(column.bitmaps[0])
        report = verify_column(
            self.corrupted(column, codec.zeros(table.nrows))
        )
        assert any("no value" in v for v in report.violations)

    def test_bits_past_the_last_row_detected(self, table):
        column = table.column("city")
        codec = type(column.bitmaps[0])
        # A one-fill of two groups: 62 set bits in a 6-row column.
        long_fill = codec(np.array([0xC0000002], dtype=np.uint32), 6)
        report = verify_column(self.corrupted(column, long_fill))
        assert any("past the last row 5" in v for v in report.violations)

    def test_wrong_length_detected(self, table):
        """A bitmap of the wrong length cannot make a column at all."""
        column = table.column("pop")
        codec = type(column.bitmaps[0])
        with pytest.raises(StorageError) as info:
            self.corrupted(column, codec.zeros(3))
        assert "bits" in str(info.value)
        assert "'pop'" in str(info.value)

    def test_key_violation_detected(self):
        bad = table_from_python(
            "K",
            {"a": (DataType.INT, [1, 1]), "b": (DataType.INT, [2, 3])},
            primary_key=("a",),
        )
        report = verify_table(bad)
        assert any("duplicate" in v for v in report.violations)

    def test_catalog_verification(self, table):
        from repro.storage import Catalog

        catalog = Catalog()
        catalog.create(table)
        assert verify_catalog(catalog).ok

    def test_all_evolution_outputs_verify(self, fig1_table):
        """Every SMO output satisfies the structural invariants."""
        from repro.core import EvolutionEngine

        engine = EvolutionEngine()
        engine.load_table(fig1_table)
        for statement in iter_script_statements(
            """
            DECOMPOSE TABLE R INTO S (Employee, Skill), T (Employee, Address);
            MERGE TABLES S, T INTO R;
            COPY TABLE R TO R2;
            ADD COLUMN Country STRING TO R2 DEFAULT 'US';
            PARTITION TABLE R2 INTO A, B WHERE Employee = 'Jones';
            UNION TABLES A, B INTO R3
            """
        ):
            engine.apply(parse_smo(statement))
        report = verify_catalog(engine.catalog)
        assert report.ok, str(report)
