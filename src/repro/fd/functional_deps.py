"""Functional dependencies: closure, implication, candidate keys.

The decomposition operator of CODS (paper Section 2.4) is only valid for
lossless-join decompositions, and its two structural properties rest on
FD reasoning: the common attributes of the two output tables must
functionally determine one side.  This module provides the classical
algorithms: attribute-set closure, FD implication, and candidate-key
enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations


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


def implies(fds, candidate: FunctionalDependency) -> bool:
    """True if ``fds`` logically implies ``candidate`` (Armstrong)."""
    return candidate.rhs <= closure(candidate.lhs, fds)


def is_superkey(attrs, all_attrs, fds) -> bool:
    """True if ``attrs`` functionally determines every attribute."""
    return frozenset(all_attrs) <= closure(attrs, fds)


def candidate_keys(all_attrs, fds) -> list[frozenset]:
    """All minimal keys of a relation with attributes ``all_attrs``.

    Uses the classical observation that attributes never appearing on
    any right-hand side must belong to every key, which keeps the
    search practical for the schema sizes that occur in practice.
    """
    all_attrs = frozenset(all_attrs)
    in_rhs = frozenset().union(*(fd.rhs for fd in fds)) if fds else frozenset()
    core = all_attrs - in_rhs  # must be in every key
    optional = sorted(all_attrs & in_rhs)

    if is_superkey(core, all_attrs, fds):
        return [core]

    keys: list[frozenset] = []
    for size in range(1, len(optional) + 1):
        for extra in combinations(optional, size):
            candidate = core | frozenset(extra)
            if any(key <= candidate for key in keys):
                continue  # not minimal
            if is_superkey(candidate, all_attrs, fds):
                keys.append(candidate)
        if keys and all(
            any(key <= core | frozenset(extra) for key in keys)
            for extra in combinations(optional, size)
        ):
            # every larger candidate would contain a found key
            break
    return keys


def minimal_cover(fds) -> list[FunctionalDependency]:
    """A minimal (canonical) cover: singleton RHS, no extraneous LHS
    attributes, no redundant FDs."""
    # Split to singleton right-hand sides.
    split = [
        FunctionalDependency(fd.lhs, frozenset([attr]))
        for fd in fds
        for attr in fd.rhs
    ]
    # Remove extraneous LHS attributes.
    reduced: list[FunctionalDependency] = []
    for fd in split:
        lhs = set(fd.lhs)
        for attr in sorted(fd.lhs):
            if len(lhs) == 1:
                break
            trial = frozenset(lhs - {attr})
            if fd.rhs <= closure(trial, split):
                lhs.discard(attr)
        reduced.append(FunctionalDependency(frozenset(lhs), fd.rhs))
    # Remove redundant FDs.
    result = list(dict.fromkeys(reduced))  # dedupe, keep order
    index = 0
    while index < len(result):
        fd = result[index]
        rest = result[:index] + result[index + 1 :]
        if implies(rest, fd):
            result = rest
        else:
            index += 1
    return result
