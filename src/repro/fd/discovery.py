"""Empirical FD validation and discovery on column-store tables.

When a decomposition is requested without declared keys, CODS can verify
against the data that the common attributes functionally determine the
changed side (Property 2 requires it).  ``holds`` answers that by
counting distinct value combinations: each row's vids fold into one
combined code (:mod:`repro.storage.codes`) and a histogram or a 1-D
``np.unique`` counts them, O(rows) with no row sort.  ``discover``
enumerates all minimal FDs with small left-hand sides (a
TANE-flavoured levelwise search, adequate for the schema sizes in the
paper's scenarios).
"""

from __future__ import annotations

from itertools import combinations

from repro.fd.functional_deps import FunctionalDependency, implies
from repro.storage.codes import combine, nonzero_counts, table_codes


def holds(table, lhs, rhs) -> bool:
    """True iff ``lhs -> rhs`` holds in the data of ``table``.

    Standard partition argument: the FD holds iff grouping by ``lhs``
    yields exactly as many groups as grouping by ``lhs ∪ rhs``.  The
    ``lhs ∪ rhs`` codes extend the ``lhs`` codes by one combine step
    per ``rhs`` column, so every column is decoded once.
    """
    lhs = list(lhs)
    rhs = [attr for attr in rhs if attr not in lhs]
    if not rhs:
        return True
    codes, space, steps = table_codes(table, lhs)
    groups = len(nonzero_counts(codes, space)[0])
    for attr in rhs:
        column = table.column(attr)
        codes, space = combine(
            codes, space, column.decode_vids(),
            max(1, column.distinct_count), steps,
        )
    return len(nonzero_counts(codes, space)[0]) == groups


def is_key_in_data(table, attrs) -> bool:
    """True iff ``attrs`` values are unique per row (a key of the data)."""
    codes, space, _steps = table_codes(table, list(attrs))
    return len(nonzero_counts(codes, space)[0]) == table.nrows


def discover(table, max_lhs: int = 2) -> list[FunctionalDependency]:
    """All minimal FDs with ``|lhs| <= max_lhs`` holding in the data.

    Levelwise search with pruning: once ``X -> A`` is found, no superset
    of ``X`` is reported for ``A``.
    """
    attrs = list(table.schema.column_names)
    found: list[FunctionalDependency] = []
    for size in range(1, max_lhs + 1):
        for lhs in combinations(attrs, size):
            lhs_set = frozenset(lhs)
            for target in attrs:
                if target in lhs_set:
                    continue
                candidate = FunctionalDependency(lhs_set, frozenset([target]))
                if implies(found, candidate):
                    continue  # already implied by a smaller FD
                if holds(table, lhs, [target]):
                    found.append(candidate)
    return found
