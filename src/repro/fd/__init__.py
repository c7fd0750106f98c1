"""Functional-dependency theory and data-driven validation."""

from repro.fd.decompose_check import (
    DecompositionPlan,
    check_lossless,
    fds_from_keys,
)
from repro.fd.discovery import holds, holds_each, is_key_in_data
from repro.fd.functional_deps import (
    FunctionalDependency,
    closure,
)

__all__ = [
    "DecompositionPlan",
    "FunctionalDependency",
    "check_lossless",
    "closure",
    "fds_from_keys",
    "holds",
    "holds_each",
    "is_key_in_data",
]
