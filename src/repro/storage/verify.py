"""Structural integrity verification for bitmap-encoded tables.

A well-formed bitmap column satisfies three invariants (the ``v × r``
matrix of paper Section 2.2 is a permutation matrix per row):

1. every bitmap has exactly ``nrows`` bits;
2. bitmaps are pairwise disjoint (a row holds one value);
3. together they cover every row exactly once.

``BitmapColumn`` refuses to be built without the first, so it always
holds.  ``verify_table`` / ``verify_catalog`` check the other two and
report violations —
the failure-injection tests corrupt columns on purpose and assert these
checks catch it, and the evolution tests run them over every output.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bitmap.batch import batch_positions
from repro.storage.column import BitmapColumn
from repro.storage.table import Table


@dataclass
class VerificationReport:
    """Outcome of an integrity check."""

    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, message: str) -> None:
        self.violations.append(message)

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        return "; ".join(self.violations)


def verify_column(column: BitmapColumn, report: VerificationReport | None
                  = None, context: str = "") -> VerificationReport:
    """Check that one column's bitmaps are disjoint and cover every
    row: one batched extraction of every value's positions, one
    ``bincount``."""
    report = report if report is not None else VerificationReport()
    prefix = f"{context}column {column.name!r}: "
    positions, _ = batch_positions(column.bitmaps)
    coverage = np.bincount(positions, minlength=column.nrows)
    if len(coverage) > column.nrows:
        report.add(f"{prefix}set bits past the last row {column.nrows - 1}")
        coverage = coverage[:column.nrows]
    over = np.flatnonzero(coverage > 1)
    under = np.flatnonzero(coverage == 0)
    if len(over):
        report.add(
            f"{prefix}{len(over)} rows covered by multiple values "
            f"(first at row {int(over[0])})"
        )
    if len(under):
        report.add(
            f"{prefix}{len(under)} rows covered by no value "
            f"(first at row {int(under[0])})"
        )
    return report


def verify_table(table: Table) -> VerificationReport:
    """Verify every column of a table, plus key uniqueness if declared."""
    report = VerificationReport()
    context = f"table {table.schema.name!r}: "
    for name in table.schema.column_names:
        verify_column(table.column(name), report, context)
    if report.ok and table.schema.primary_key:
        from repro.fd.discovery import is_key_in_data

        if not is_key_in_data(table, table.schema.primary_key):
            report.add(
                f"{context}declared key "
                f"{table.schema.primary_key} has duplicate values"
            )
    return report


def verify_catalog(catalog) -> VerificationReport:
    """Verify every table of a catalog."""
    report = VerificationReport()
    for name in catalog.table_names():
        table_report = verify_table(catalog.table(name))
        report.violations.extend(table_report.violations)
    return report
