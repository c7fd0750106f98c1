"""Lossless-join validation for binary decompositions.

The CODS decomposition (paper Section 2.4) assumes a lossless-join
split: ``R -> S, T`` is lossless iff the common attributes functionally
determine all of ``S`` or all of ``T``.  This module implements that
check — from declared FDs, from declared keys, or empirically from the
data — and identifies which output table is the *changed* one (the side
keyed by the common attributes; the other side is reused unchanged,
Property 1).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import LosslessJoinError
from repro.fd.functional_deps import FunctionalDependency, closure


@dataclass(frozen=True)
class DecompositionPlan:
    """The validated shape of a binary lossless-join decomposition.

    ``changed_side`` is ``"left"`` or ``"right"``: the output table whose
    rows must be deduplicated (its key is the common attributes).  The
    other side is unchanged and reuses the input's columns directly.
    """

    common: frozenset
    changed_side: str


def check_lossless(
    all_attrs,
    left_attrs,
    right_attrs,
    fds=(),
    prefer_changed: str | None = None,
) -> DecompositionPlan:
    """Validate ``R(all) -> left, right`` and pick the changed side.

    Raises :class:`LosslessJoinError` when the attribute sets do not
    cover ``R`` or when the common attributes determine neither side.
    When the common attributes determine *both* sides, ``prefer_changed``
    breaks the tie (default: the smaller side is changed, which touches
    fewer bitmaps).
    """
    all_attrs = frozenset(all_attrs)
    left = frozenset(left_attrs)
    right = frozenset(right_attrs)
    if left | right != all_attrs:
        missing = sorted(all_attrs - (left | right))
        extra = sorted((left | right) - all_attrs)
        raise LosslessJoinError(
            f"output attributes must cover the input exactly; "
            f"missing={missing}, unknown={extra}"
        )
    common = left & right
    if not common:
        raise LosslessJoinError(
            "output tables share no attributes; the decomposition cannot "
            "be lossless-join"
        )
    determined = closure(common, fds)
    determines_left = left <= determined
    determines_right = right <= determined
    if not determines_left and not determines_right:
        raise LosslessJoinError(
            f"common attributes {sorted(common)} determine neither output "
            "side under the declared functional dependencies; the "
            "decomposition would be lossy"
        )
    if determines_left and determines_right:
        if prefer_changed in ("left", "right"):
            changed = prefer_changed
        else:
            changed = "left" if len(left) <= len(right) else "right"
    else:
        changed = "left" if determines_left else "right"
    return DecompositionPlan(common, changed)


def fds_from_keys(schema) -> list[FunctionalDependency]:
    """Derive FDs from a table schema's declared keys."""
    attrs = frozenset(schema.column_names)
    return [
        FunctionalDependency(frozenset(key), attrs - frozenset(key))
        for key in schema.all_keys()
    ]
