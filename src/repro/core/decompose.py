"""The DECOMPOSE TABLE algorithm (paper Section 2.4).

``R -> S, T`` with the common attributes a key of (say) ``T``:

* Property 1 — ``S`` is *unchanged*: it adopts ``R``'s compressed
  columns by reference.  No bitmap is read, decompressed or copied.
* ``T`` is built by **distinction** (one witness position per distinct
  key value, found on the compressed bitmaps) followed by **bitmap
  filtering** (shrinking each affected bitmap to those positions).

Losslessness is validated from declared keys/FDs first; if they are
inconclusive the engine can fall back to verifying the functional
dependency in the data (Property 2 must hold for correctness).
"""

from __future__ import annotations

import numpy as np

from repro.bitmap.batch import batch_from_positions
from repro.core.distinction import distinction, distinction_with_ranks
from repro.core.filtering import filter_column
from repro.core.status import EvolutionStatus
from repro.errors import LosslessJoinError
from repro.fd import check_lossless, fds_from_keys, holds_each
from repro.fd.decompose_check import DecompositionPlan
from repro.smo.ops import DecomposeTable
from repro.storage.column import BitmapColumn
from repro.storage.table import Table


def plan_decomposition(
    table: Table,
    op: DecomposeTable,
    extra_fds=(),
    verify_with_data: bool = True,
) -> DecompositionPlan:
    """Determine the changed side, proving losslessness.

    Declared keys (of the input schema) and ``extra_fds`` are tried
    first; if they cannot prove the split lossless and
    ``verify_with_data`` is set, the functional dependency
    ``common -> side`` is tested against the data (vectorized partition
    counting).
    """
    fds = list(fds_from_keys(table.schema)) + list(extra_fds)
    all_attrs = table.schema.column_names
    try:
        return check_lossless(all_attrs, op.left_attrs, op.right_attrs, fds)
    except LosslessJoinError:
        if not verify_with_data:
            raise
    common = sorted(set(op.left_attrs) & set(op.right_attrs))
    left_holds, right_holds = holds_each(
        table, common, (op.left_attrs, op.right_attrs)
    )
    if not left_holds and not right_holds:
        raise LosslessJoinError(
            f"common attributes {common} determine neither output side, "
            "in the schema or in the data; the decomposition would be lossy"
        )
    if left_holds and right_holds:
        changed = "left" if len(op.left_attrs) <= len(op.right_attrs) else "right"
    else:
        changed = "left" if left_holds else "right"
    return DecompositionPlan(frozenset(common), changed)


def decompose(
    table: Table,
    op: DecomposeTable,
    status: EvolutionStatus,
    extra_fds=(),
    verify_with_data: bool = True,
) -> tuple[Table, Table]:
    """Execute a decomposition; returns ``(left, right)`` tables."""
    plan = plan_decomposition(table, op, extra_fds, verify_with_data)

    if plan.changed_side == "left":
        changed_name, changed_attrs = op.left_name, op.left_attrs
        unchanged_name, unchanged_attrs = op.right_name, op.right_attrs
    else:
        changed_name, changed_attrs = op.right_name, op.right_attrs
        unchanged_name, unchanged_attrs = op.left_name, op.left_attrs

    # Property 1: the unchanged side reuses R's columns by reference.
    with status.step(
        "column reuse",
        f"{unchanged_name} adopts columns "
        f"({', '.join(unchanged_attrs)}) of {table.name} unchanged",
    ):
        pk = (
            table.schema.primary_key
            if table.schema.primary_key
            and set(table.schema.primary_key) <= set(unchanged_attrs)
            else ()
        )
        unchanged = table.project(unchanged_attrs, unchanged_name, pk)
        status.reuse_columns(len(unchanged_attrs))
        status.reuse_bitmaps(
            sum(
                table.column(attr).distinct_count
                for attr in unchanged_attrs
            )
        )

    # The changed side: distinction, then bitmap filtering.
    key_attrs = [a for a in changed_attrs if a in plan.common]
    changed = _build_changed_table(
        table, changed_attrs, key_attrs, changed_name, status
    )

    if plan.changed_side == "left":
        return changed, unchanged
    return unchanged, changed


def _build_changed_table(
    table: Table,
    changed_attrs,
    key_attrs,
    changed_name: str,
    status: EvolutionStatus,
) -> Table:
    """Distinction + bitmap filtering for the changed output table.

    For a single-attribute key, distinction already tells where each key
    value's (unique) row lands, so the key column of the output is built
    directly from unit bitmaps; only the non-key columns need filtering.
    """
    single_key = (
        len(key_attrs) == 1 and table.column(key_attrs[0]).distinct_count > 0
    )
    schema = table.schema.project(
        changed_attrs, changed_name, tuple(key_attrs)
    )
    columns = {}
    if single_key:
        key_column = table.column(key_attrs[0])
        positions, rank_of_vid = distinction_with_ranks(key_column, status)
        new_len = len(positions)
        with status.step(
            "filtering",
            f"key column rebuilt from witness ranks; bitmap filtering "
            f"{len(changed_attrs) - 1} non-key columns down to "
            f"{new_len} rows",
        ):
            columns[key_attrs[0]] = BitmapColumn(
                key_column.name,
                key_column.dtype,
                key_column.dictionary,
                # One unit bitmap per key value, set at its witness rank.
                batch_from_positions(
                    rank_of_vid, np.arange(len(rank_of_vid) + 1), new_len
                ),
                new_len,
            )
            status.created_bitmaps(key_column.distinct_count)
            for attr in changed_attrs:
                if attr == key_attrs[0]:
                    continue
                columns[attr] = filter_column(
                    table.column(attr), positions, status
                )
    else:
        positions = distinction(table, key_attrs, status)
        new_len = len(positions)
        with status.step(
            "filtering",
            f"bitmap filtering {len(changed_attrs)} columns down to "
            f"{new_len} rows",
        ):
            for attr in changed_attrs:
                columns[attr] = filter_column(
                    table.column(attr), positions, status
                )
    return Table(schema, columns, new_len)
