"""The chase test for lossless-join decompositions: the oracle that
``repro.fd.check_lossless`` is cross-validated against.

``check_lossless`` decides a *binary* split by a closure argument (the
common attributes must determine one side).  The chase decides any
n-ary split by rewriting a tableau under the FDs, an independent
procedure, so the two must agree on every binary decomposition.
"""

from __future__ import annotations


def chase_lossless(all_attrs, decomposition, fds) -> bool:
    """True iff ``decomposition`` (a list of attribute sets) of
    ``all_attrs`` is lossless-join under ``fds``: the chased tableau
    holds a row of distinguished symbols only."""
    attrs = sorted(frozenset(all_attrs))
    attr_index = {attr: i for i, attr in enumerate(attrs)}
    # tableau[i][j]: distinguished (True) or row-subscripted symbol.
    tableau = [
        [attr in frozenset(component) for attr in attrs]
        for component in decomposition
    ]
    symbols = [
        [True if cell else ("b", row, col) for col, cell in enumerate(line)]
        for row, line in enumerate(tableau)
    ]

    changed = True
    while changed:
        changed = False
        for fd in fds:
            lhs_cols = [attr_index[a] for a in fd.lhs if a in attr_index]
            rhs_cols = [attr_index[a] for a in fd.rhs if a in attr_index]
            if len(lhs_cols) != len(fd.lhs):
                continue
            groups: dict = {}
            for row, line in enumerate(symbols):
                key = tuple(line[c] for c in lhs_cols)
                groups.setdefault(key, []).append(row)
            for rows in groups.values():
                if len(rows) < 2:
                    continue
                for col in rhs_cols:
                    cells = [symbols[r][col] for r in rows]
                    if any(c is True for c in cells):
                        target = True
                    else:
                        target = min(cells, key=str)
                    for r in rows:
                        if symbols[r][col] != target:
                            symbols[r][col] = target
                            changed = True
    return any(all(cell is True for cell in line) for line in symbols)
