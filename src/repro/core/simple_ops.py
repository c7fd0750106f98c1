"""The straightforward SMOs (paper Section 2.3).

CREATE/DROP/RENAME TABLE are schema-level only.  COPY, UNION and
PARTITION move data but never change it, so they operate on whole
compressed bitmaps: COPY shares them (bitmaps are immutable), UNION
concatenates them in the compressed domain, PARTITION evaluates its
predicate on compressed bitmaps and then bitmap-filters both ways.
ADD COLUMN with a default is a single fill bitmap — O(1) regardless of
table size; DROP/RENAME COLUMN are metadata.
"""

from __future__ import annotations

from repro.bitmap.batch import RowSplit, batch_from_intervals
from repro.core.status import EvolutionStatus
from repro.smo.ops import AddColumn, PartitionTable, UnionTables
from repro.storage.column import BitmapColumn
from repro.storage.dictionary import Dictionary
from repro.storage.table import Table
from repro.storage.types import coerce


def copy_table(table: Table, new_name: str, status: EvolutionStatus) -> Table:
    """COPY TABLE: share all compressed columns under a new name."""
    with status.step(
        "column reuse",
        f"copy of {table.name} shares all {len(table.schema.columns)} "
        "compressed columns",
    ):
        status.reuse_columns(len(table.schema.columns))
        return table.renamed(new_name)


def union_tables(
    left: Table, right: Table, op: UnionTables, status: EvolutionStatus
) -> Table:
    """UNION TABLES: concatenate compressed bitmaps column by column."""
    with status.step(
        "bitmap concat",
        f"appending {right.nrows} rows of {right.name} to "
        f"{left.nrows} rows of {left.name}",
    ):
        result = left.concat(right, op.out_name)
        status.created_bitmaps(
            sum(result.column(n).distinct_count for n in result.column_names)
        )
        return result


def partition_table(
    table: Table, op: PartitionTable, status: EvolutionStatus
) -> tuple[Table, Table]:
    """PARTITION TABLE: predicate bitmap + two-way bitmap filtering."""
    with status.step(
        "predicate",
        f"evaluating {op.predicate} on compressed bitmaps",
    ):
        matches = op.predicate.bitmap(table)
    split = RowSplit.of(matches.to_dense())
    names = table.schema.column_names
    ntrue = split.ntrue
    with status.step(
        "filtering",
        f"bitmap filtering {len(names)} columns into {ntrue} + "
        f"{table.nrows - ntrue} rows, one pass per column",
    ):
        # The row maps are made once; both sides come out of one
        # extraction of each column's positions, and each side still
        # counts as a filtering of its own.
        sides = {name: table.column(name).split(split) for name in names}
        status.filtered_bitmaps(
            2 * sum(table.column(name).distinct_count for name in names)
        )
    key = table.schema.primary_key
    return (
        Table(
            table.schema.project(names, op.true_name, key),
            {name: pair[0] for name, pair in sides.items()},
            ntrue,
        ),
        Table(
            table.schema.project(names, op.false_name, key),
            {name: pair[1] for name, pair in sides.items()},
            table.nrows - ntrue,
        ),
    )


def add_column(
    table: Table, op: AddColumn, status: EvolutionStatus
) -> Table:
    """ADD COLUMN: from explicit values, or a default fill bitmap."""
    if op.values is not None:
        with status.step(
            "column build",
            f"building {op.column.name!r} from {len(op.values)} user values",
        ):
            column = BitmapColumn.from_values(
                op.column.name, op.column.dtype, list(op.values)
            )
            status.created_bitmaps(column.distinct_count)
    else:
        with status.step(
            "fill bitmap",
            f"default column {op.column.name!r} is one fill bitmap "
            "(O(1) in the table size)",
        ):
            value = coerce(op.default, op.column.dtype)
            column = BitmapColumn(
                op.column.name,
                op.column.dtype,
                Dictionary([value]),
                batch_from_intervals([0], [table.nrows], [0, 1], table.nrows),
                table.nrows,
            )
            status.created_bitmaps(1)
    return table.with_column(op.column, column)


def drop_column(table: Table, column: str, status: EvolutionStatus) -> Table:
    """DROP COLUMN: other columns untouched (the paper's simplest case)."""
    with status.step(
        "metadata",
        f"dropping column {column!r}; "
        f"{len(table.schema.columns) - 1} columns unaffected",
    ):
        status.reuse_columns(len(table.schema.columns) - 1)
        return table.without_column(column)


def rename_column(
    table: Table, old: str, new: str, status: EvolutionStatus
) -> Table:
    """RENAME COLUMN: pure metadata."""
    with status.step("metadata", f"renaming column {old!r} to {new!r}"):
        return table.with_renamed_column(old, new)
