"""Functional-dependency theory and data-driven validation."""

from repro.fd.decompose_check import (
    DecompositionPlan,
    check_lossless,
    fds_from_keys,
)
from repro.fd.discovery import holds, holds_each, is_key_in_data
from repro.fd.functional_deps import (
    FunctionalDependency,
    candidate_keys,
    closure,
    implies,
    is_superkey,
    minimal_cover,
)

__all__ = [
    "DecompositionPlan",
    "FunctionalDependency",
    "candidate_keys",
    "check_lossless",
    "closure",
    "fds_from_keys",
    "holds",
    "holds_each",
    "implies",
    "is_key_in_data",
    "is_superkey",
    "minimal_cover",
]
