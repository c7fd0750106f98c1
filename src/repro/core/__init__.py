"""The CODS core: data-level data evolution on compressed columns."""

from repro.core.decompose import decompose, plan_decomposition
from repro.core.distinction import (
    distinction,
    distinction_bitmap,
    distinction_scan,
)
from repro.core.engine import EvolutionEngine
from repro.core.filtering import filter_column
from repro.core.merge_general import merge_general
from repro.core.merge_kfk import merge_key_fk
from repro.core.status import EvolutionStatus, StatusEvent

__all__ = [
    "EvolutionEngine",
    "EvolutionStatus",
    "StatusEvent",
    "decompose",
    "distinction",
    "distinction_bitmap",
    "distinction_scan",
    "filter_column",
    "merge_general",
    "merge_key_fk",
    "plan_decomposition",
]
