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
from repro.core.query import (
    count_where,
    group_count,
    positions_where,
    select_where,
    value_exists,
)
from repro.core.status import EvolutionStatus, StatusEvent

__all__ = [
    "EvolutionEngine",
    "EvolutionStatus",
    "StatusEvent",
    "count_where",
    "decompose",
    "distinction",
    "distinction_bitmap",
    "distinction_scan",
    "filter_column",
    "group_count",
    "merge_general",
    "merge_key_fk",
    "plan_decomposition",
    "positions_where",
    "select_where",
    "value_exists",
]
