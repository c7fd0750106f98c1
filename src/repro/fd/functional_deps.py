"""Functional dependencies and attribute-set closure.

The decomposition operator of CODS (paper Section 2.4) is only valid for
lossless-join decompositions, and its two structural properties rest on
FD reasoning: the common attributes of the two output tables must
functionally determine one side.  This module provides the classical
attribute-set closure that check rests on.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class FunctionalDependency:
    """``lhs -> rhs`` over attribute names."""

    lhs: frozenset
    rhs: frozenset

    def __post_init__(self):
        object.__setattr__(self, "lhs", frozenset(self.lhs))
        object.__setattr__(self, "rhs", frozenset(self.rhs))

    @classmethod
    def of(cls, lhs, rhs) -> "FunctionalDependency":
        """Build from iterables or single attribute names."""
        if isinstance(lhs, str):
            lhs = [lhs]
        if isinstance(rhs, str):
            rhs = [rhs]
        return cls(frozenset(lhs), frozenset(rhs))

    def __str__(self) -> str:
        left = ",".join(sorted(self.lhs))
        right = ",".join(sorted(self.rhs))
        return f"{left} -> {right}"


def closure(attrs, fds) -> frozenset:
    """Attribute-set closure under ``fds`` (the standard fixpoint)."""
    result = set(attrs)
    changed = True
    while changed:
        changed = False
        for fd in fds:
            if fd.lhs <= result and not fd.rhs <= result:
                result |= fd.rhs
                changed = True
    return frozenset(result)
