"""Shared fixtures: the paper's running example and random-table factories."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exec import filter_batches, iter_rows
from repro.storage import DataType, Table, table_from_python


def rows_where(view, predicate=None) -> list[tuple]:
    """Rows of a ``MutableTable`` / ``Snapshot`` satisfying
    ``predicate`` (all when ``None``), read the way queries read them:
    through ``scan_batches()`` and the batch filter."""
    batches = view.scan_batches()
    if predicate is not None:
        batches = filter_batches(batches, predicate)
    return list(iter_rows(batches))


@pytest.fixture
def fig1_table() -> Table:
    """The exact table R of the paper's Figure 1 (7 rows)."""
    return table_from_python(
        "R",
        {
            "Employee": (
                DataType.STRING,
                ["Jones", "Jones", "Roberts", "Ellis", "Jones", "Ellis",
                 "Harrison"],
            ),
            "Skill": (
                DataType.STRING,
                ["Typing", "Shorthand", "Light Cleaning", "Alchemy",
                 "Whittling", "Juggling", "Light Cleaning"],
            ),
            "Address": (
                DataType.STRING,
                ["425 Grant Ave", "425 Grant Ave", "747 Industrial Way",
                 "747 Industrial Way", "425 Grant Ave",
                 "747 Industrial Way", "425 Grant Ave"],
            ),
        },
    )


@pytest.fixture
def fig1_decomposed() -> tuple[list[tuple], list[tuple]]:
    """Expected S and T contents after the Figure 1 decomposition."""
    s_rows = [
        ("Jones", "Typing"),
        ("Jones", "Shorthand"),
        ("Roberts", "Light Cleaning"),
        ("Ellis", "Alchemy"),
        ("Jones", "Whittling"),
        ("Ellis", "Juggling"),
        ("Harrison", "Light Cleaning"),
    ]
    t_rows = sorted(
        [
            ("Jones", "425 Grant Ave"),
            ("Roberts", "747 Industrial Way"),
            ("Ellis", "747 Industrial Way"),
            ("Harrison", "425 Grant Ave"),
        ]
    )
    return s_rows, t_rows


def make_fd_table(
    nrows: int,
    n_keys: int,
    n_payload: int = 5,
    n_dependent: int = 3,
    seed: int = 0,
    name: str = "R",
) -> Table:
    """Random R(K, P, D) with the FD K -> D built in.

    ``K`` has ``n_keys`` distinct values, ``P`` is free payload, ``D`` is
    functionally determined by ``K`` — the generic shape of the paper's
    decomposition input.
    """
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, n_keys, nrows)
    if nrows >= n_keys:  # guarantee the cardinality
        keys[:n_keys] = np.arange(n_keys)
    payload = rng.integers(0, n_payload, nrows)
    dependent_of_key = rng.integers(0, n_dependent, n_keys)
    return table_from_python(
        name,
        {
            "K": (DataType.INT, keys.tolist()),
            "P": (DataType.INT, payload.tolist()),
            "D": (DataType.INT, dependent_of_key[keys].tolist()),
        },
    )


def make_join_pair(
    left_rows: int,
    right_rows: int,
    n_join: int,
    seed: int = 0,
    right_keyed: bool = False,
):
    """Random S(J, A), T(J, B) pair for merge tests.

    With ``right_keyed`` the right table has exactly one row per join
    value (the key–foreign-key scenario); otherwise duplicates appear on
    both sides (the general scenario).
    """
    rng = np.random.default_rng(seed)
    left_join = rng.integers(0, n_join, left_rows)
    left_payload = rng.integers(0, 4, left_rows)
    if right_keyed:
        right_join = np.arange(n_join)
        right_rows = n_join
    else:
        right_join = rng.integers(0, n_join, right_rows)
    right_payload = rng.integers(0, 4, right_rows)
    left = table_from_python(
        "S",
        {
            "J": (DataType.INT, left_join.tolist()),
            "A": (DataType.INT, left_payload.tolist()),
        },
    )
    right = table_from_python(
        "T",
        {
            "J": (DataType.INT, right_join.tolist()),
            "B": (DataType.INT, right_payload.tolist()),
        },
        primary_key=("J",) if right_keyed else (),
    )
    return left, right


def nested_loop_join(left_rows, right_rows, left_join_pos, right_join_pos):
    """Reference equi-join for verification (sorted output)."""
    result = []
    for left_row in left_rows:
        for right_row in right_rows:
            if left_row[left_join_pos] == right_row[right_join_pos]:
                combined = left_row + tuple(
                    v for i, v in enumerate(right_row) if i != right_join_pos
                )
                result.append(combined)
    return sorted(result)
