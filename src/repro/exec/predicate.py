"""Predicate compilation: SQL/SMO predicate trees as batch evaluators.

:func:`compile_predicate` turns a :class:`~repro.smo.predicate.
Predicate` tree into a closure evaluated *column-wise*: each
:class:`~repro.smo.predicate.Comparison` becomes one pass over the
referenced column's value vector at the selected positions, and the
boolean combinators (AND/OR/NOT) reduce to NumPy mask algebra instead
of per-row short-circuiting.  This is the one evaluation strategy for
plain vectors — :class:`~repro.exec.batch.ValuesBatch` and the write
buffer's :class:`~repro.exec.batch.DeltaBatch` (and so the DML victim
lookup); the compressed main store resolves predicates to bitmaps
without decoding (``Predicate.bitmap``).

Semantics are exactly those of ``Predicate.matches``: ``=`` / ``!=``
map ``operator.eq`` / ``operator.ne`` (stored value on the left) and
``IN`` the literal tuple's ``__contains__`` over the gathered values at
C level; ranges call :meth:`Comparison.value_test`.  The row path and
the batch path cannot disagree on NULLs or a NaN literal.
"""

from __future__ import annotations

from functools import partial
from itertools import repeat
from operator import eq, itemgetter, ne

import numpy as np

from repro.errors import SqlExecutionError
from repro.smo.predicate import IN, And, Comparison, Not, Or

#: An evaluator takes (columns, positions) — a name->vector mapping and
#: the sorted, distinct physical positions under evaluation — and
#: returns a boolean mask aligned with ``positions``.  Only
#: ``positions`` are read: a write buffer's vectors outgrow its batch.


def gather(vector, positions) -> list:
    """``[vector[p] for p in positions]`` for sorted, distinct
    ``positions``: a prefix slice when they are exactly ``0..n-1``, one
    C-level gather otherwise."""
    count = len(positions)
    if count == 0:
        return []
    if positions[-1] == count - 1:
        return vector[:count]
    if count == 1:
        return [vector[int(positions[0])]]
    positions = (
        positions.tolist()
        if isinstance(positions, np.ndarray)
        else positions
    )
    return list(itemgetter(*positions)(vector))


def _value_tests(predicate: Comparison):
    """``values -> iterator of truths`` with exactly the comparison's
    per-value semantics."""
    literal = predicate.value
    if predicate.op == IN:
        return partial(map, literal.__contains__)
    if predicate.op in ("=", "!="):
        compare = eq if predicate.op == "=" else ne
        return lambda values: map(compare, values, repeat(literal))
    return partial(map, predicate.value_test())


def compile_predicate(predicate):
    """Compile a predicate tree into a columnar evaluator."""
    if isinstance(predicate, Comparison):
        attr = predicate.attr
        tests = _value_tests(predicate)

        def evaluate(columns, positions):
            return np.fromiter(
                tests(gather(columns[attr], positions)),
                dtype=bool,
                count=len(positions),
            )

        return evaluate
    if isinstance(predicate, (And, Or)):
        left = compile_predicate(predicate.left)
        right = compile_predicate(predicate.right)
        if isinstance(predicate, And):
            # Evaluate the right side only where the left still holds.
            def evaluate(columns, positions):
                mask = left(columns, positions)
                alive = np.flatnonzero(mask)
                if len(alive):
                    mask[alive] &= right(columns, positions[alive])
                return mask

            return evaluate

        def evaluate(columns, positions):
            mask = left(columns, positions)
            dead = np.flatnonzero(~mask)
            if len(dead):
                mask[dead] |= right(columns, positions[dead])
            return mask

        return evaluate
    if isinstance(predicate, Not):
        inner = compile_predicate(predicate.inner)

        def evaluate(columns, positions):
            return ~inner(columns, positions)

        return evaluate
    raise SqlExecutionError(
        f"cannot compile predicate {predicate!r}"
    )  # pragma: no cover - all Predicate kinds handled above
