"""Empirical FD validation on column-store tables.

When a decomposition is requested without declared keys, CODS can verify
against the data that the common attributes functionally determine the
changed side (Property 2 requires it).  ``holds_each`` answers that by
counting distinct value combinations: each row's vids fold into one
combined code (:mod:`repro.storage.codes`) and a histogram or a 1-D
``np.unique`` counts them, O(rows) with no row sort.
"""

from __future__ import annotations

from repro.storage.codes import combine, nonzero_counts, table_codes


def holds_each(table, lhs, rhs_sets) -> list[bool]:
    """Per ``rhs`` in ``rhs_sets``: True iff ``lhs -> rhs`` holds in the
    data of ``table``.

    Standard partition argument: the FD holds iff grouping by ``lhs``
    yields exactly as many groups as grouping by ``lhs ∪ rhs``.  The
    ``lhs ∪ rhs`` codes extend the ``lhs`` codes by one combine step
    per ``rhs`` column.  ``lhs`` is grouped once, and only if some
    ``rhs`` reaches past it, so every column is decoded once per call.
    """
    lhs = list(lhs)
    results, grouped = [], None
    for rhs in rhs_sets:
        rhs = [attr for attr in rhs if attr not in lhs]
        if not rhs:
            results.append(True)
            continue
        if grouped is None:
            codes, space, steps = table_codes(table, lhs)
            grouped = codes, space, steps, len(nonzero_counts(codes, space)[0])
        codes, space, steps, groups = grouped
        steps = list(steps)
        for attr in rhs:
            column = table.column(attr)
            codes, space = combine(
                codes, space, column.decode_vids(),
                max(1, column.distinct_count), steps,
            )
        results.append(len(nonzero_counts(codes, space)[0]) == groups)
    return results


def holds(table, lhs, rhs) -> bool:
    """True iff ``lhs -> rhs`` holds in the data of ``table``
    (:func:`holds_each` of one right-hand side)."""
    (result,) = holds_each(table, lhs, [rhs])
    return result


def is_key_in_data(table, attrs) -> bool:
    """True iff ``attrs`` values are unique per row (a key of the data)."""
    codes, space, _steps = table_codes(table, list(attrs))
    return len(nonzero_counts(codes, space)[0]) == table.nrows
