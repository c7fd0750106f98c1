"""Predicates for PARTITION TABLE conditions (and the SQL WHERE clause).

Predicates evaluate in the compressed domain: a comparison first selects
the satisfying *values* from the column dictionary (a hash lookup per
literal for ``=`` / ``IN``, a scan of the ``O(distinct)`` values for the
others), then ORs their disjoint bitmaps (``O(matching rows)``; one
matching value is its bitmap as stored, none is ``WAHBitmap.zeros``)
— rows are never materialized.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bitmap.ops import union, union_disjoint
from repro.bitmap.wah import WAHBitmap
from repro.errors import SchemaError
from repro.storage.types import coerce

EQ, NE, LT, LE, GT, GE, IN = "=", "!=", "<", "<=", ">", ">=", "IN"
_COMPARATORS = {
    EQ: lambda a, b: a == b,
    NE: lambda a, b: a != b,
    LT: lambda a, b: a is not None and a < b,
    LE: lambda a, b: a is not None and a <= b,
    GT: lambda a, b: a is not None and a > b,
    GE: lambda a, b: a is not None and a >= b,
}


class Predicate:
    """Abstract predicate over one table's rows."""

    def matches(self, row_value_of) -> bool:  # pragma: no cover - interface
        """Row-at-a-time evaluation; ``row_value_of(attr)`` fetches."""
        raise NotImplementedError

    def bitmap(self, table):  # pragma: no cover - interface
        """Compressed-domain evaluation: bitmap of satisfying rows."""
        raise NotImplementedError

    def attributes(self) -> frozenset:  # pragma: no cover - interface
        raise NotImplementedError

    def typed(self, dtypes) -> "Predicate":  # pragma: no cover - interface
        """This predicate with its literals coerced to their columns'
        types (``dtypes``: name -> DataType; unknown names are left to
        :meth:`validate`), as :meth:`bitmap` compares; the plain-vector
        batch evaluators compare stored values as they are."""
        raise NotImplementedError

    def validate(self, schema) -> None:
        for attr in self.attributes():
            if not schema.has_column(attr):
                raise SchemaError(
                    f"predicate references unknown column {attr!r} of "
                    f"table {schema.name!r}"
                )


@dataclass(frozen=True)
class Comparison(Predicate):
    """``attr <op> literal`` or ``attr IN (v1, v2, …)``."""

    attr: str
    op: str
    value: object

    def __post_init__(self):
        if self.op not in (*_COMPARATORS, IN):
            raise SchemaError(f"unknown comparison operator {self.op!r}")
        if self.op == IN:
            object.__setattr__(self, "value", tuple(self.value))

    def attributes(self) -> frozenset:
        return frozenset([self.attr])

    def typed(self, dtypes) -> "Comparison":
        dtype = dtypes.get(self.attr)
        if dtype is None:
            return self
        if self.op == IN:
            value = tuple(coerce(v, dtype) for v in self.value)
        else:
            value = coerce(self.value, dtype)
        # A literal equal to its coerced form compares the same way, so
        # the already-typed common case keeps this node.
        if value == self.value:
            return self
        return Comparison(self.attr, self.op, value)

    def matches(self, row_value_of) -> bool:
        actual = row_value_of(self.attr)
        if self.op == IN:
            return actual in self.value
        return _COMPARATORS[self.op](actual, self.value)

    def value_test(self):
        """A per-value callable with exactly :meth:`matches` semantics.

        The batch evaluators (:mod:`repro.exec.predicate`) test range
        comparisons one value at a time through this closure, so their
        edge cases (NULL ordering) stay identical to the row path's."""
        if self.op == IN:
            literals = self.value
            return lambda value: value in literals
        compare = _COMPARATORS[self.op]
        literal = self.value
        return lambda value: compare(value, literal)

    def _matching_vids(self, column) -> list[int]:
        """Sorted vids of the dictionary values satisfying the test.

        ``=`` and ``IN`` are dictionary lookups, ``O(literals)``; ranges
        and ``!=`` scan the dictionary, ``O(distinct)``."""
        dictionary = column.dictionary
        if self.op == IN:
            # A hash lookup is set membership, which is what IN means.
            vids = {
                dictionary.vid_or_none(coerce(v, column.dtype))
                for v in self.value
            }
            vids.discard(None)
            return sorted(vids)
        literal = coerce(self.value, column.dtype)
        if self.op == EQ:
            # Re-check ``a == b`` on the hit: a NaN literal matches no
            # value, not even the NaN object it was looked up as.
            vid = dictionary.vid_or_none(literal)
            if vid is None or dictionary.value(vid) != literal:
                return []
            return [vid]
        compare = _COMPARATORS[self.op]
        return [
            vid
            for vid, value in enumerate(dictionary.values())
            if compare(value, literal)
        ]

    def bitmap(self, table):
        column = table.column(self.attr)
        vids = self._matching_vids(column)
        if not vids:
            return WAHBitmap.zeros(table.nrows)
        if len(vids) == 1:
            return column.bitmap_for_vid(vids[0])
        # Several values: their word ranges, gathered from the packed
        # buffer, are extracted in one pass.
        return union_disjoint(column.bitmaps.take(vids), table.nrows)

    def __str__(self) -> str:
        if self.op == IN:
            inner = ", ".join(_render(v) for v in self.value)
            return f"{self.attr} IN ({inner})"
        return f"{self.attr} {self.op} {_render(self.value)}"


@dataclass(frozen=True)
class And(Predicate):
    left: Predicate
    right: Predicate

    def attributes(self) -> frozenset:
        return self.left.attributes() | self.right.attributes()

    def typed(self, dtypes) -> "And":
        return And(self.left.typed(dtypes), self.right.typed(dtypes))

    def matches(self, row_value_of) -> bool:
        return self.left.matches(row_value_of) and self.right.matches(
            row_value_of
        )

    def bitmap(self, table):
        return self.left.bitmap(table) & self.right.bitmap(table)

    def __str__(self) -> str:
        return f"({self.left} AND {self.right})"


@dataclass(frozen=True)
class Or(Predicate):
    left: Predicate
    right: Predicate

    def attributes(self) -> frozenset:
        return self.left.attributes() | self.right.attributes()

    def typed(self, dtypes) -> "Or":
        return Or(self.left.typed(dtypes), self.right.typed(dtypes))

    def matches(self, row_value_of) -> bool:
        return self.left.matches(row_value_of) or self.right.matches(
            row_value_of
        )

    def bitmap(self, table):
        return union(
            [self.left.bitmap(table), self.right.bitmap(table)], table.nrows
        )

    def __str__(self) -> str:
        return f"({self.left} OR {self.right})"


@dataclass(frozen=True)
class Not(Predicate):
    inner: Predicate

    def attributes(self) -> frozenset:
        return self.inner.attributes()

    def typed(self, dtypes) -> "Not":
        return Not(self.inner.typed(dtypes))

    def matches(self, row_value_of) -> bool:
        return not self.inner.matches(row_value_of)

    def bitmap(self, table):
        return self.inner.bitmap(table).invert()

    def __str__(self) -> str:
        return f"(NOT {self.inner})"


def _render(value) -> str:
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    return str(value)
