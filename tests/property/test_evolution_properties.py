"""Property-based tests for the evolution algorithms.

Four invariants on hypothesis-generated tables: lossless
decomposition inverts under mergence, data-level equals query-level,
general mergence equals the nested-loop reference, and Property 1's
zero-work guarantee holds.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import EvolutionEngine, EvolutionStatus, merge_general
from repro.smo import DecomposeTable, MergeTables
from repro.storage import DataType, table_from_python
from tests.conftest import nested_loop_join


@st.composite
def fd_tables(draw):
    """R(K, P, D) with K -> D guaranteed; arbitrary sizes and skew."""
    n_keys = draw(st.integers(min_value=1, max_value=12))
    nrows = draw(st.integers(min_value=n_keys, max_value=80))
    keys = draw(
        st.lists(
            st.integers(0, n_keys - 1), min_size=nrows, max_size=nrows
        )
    )
    keys[:n_keys] = list(range(n_keys))  # realize all key values
    payload = draw(
        st.lists(st.integers(0, 5), min_size=nrows, max_size=nrows)
    )
    dependent_of_key = draw(
        st.lists(st.integers(0, 3), min_size=n_keys, max_size=n_keys)
    )
    return table_from_python(
        "R",
        {
            "K": (DataType.INT, keys),
            "P": (DataType.INT, payload),
            "D": (DataType.INT, [dependent_of_key[k] for k in keys]),
        },
    )


@st.composite
def join_pairs(draw):
    """S(J, A) and T(J, B) with arbitrary duplication on both sides."""
    n_join = draw(st.integers(min_value=1, max_value=6))
    left_rows = draw(st.integers(min_value=0, max_value=30))
    right_rows = draw(st.integers(min_value=0, max_value=30))
    left_join = draw(
        st.lists(st.integers(0, n_join - 1), min_size=left_rows,
                 max_size=left_rows)
    )
    right_join = draw(
        st.lists(st.integers(0, n_join - 1), min_size=right_rows,
                 max_size=right_rows)
    )
    left_payload = draw(
        st.lists(st.integers(0, 3), min_size=left_rows, max_size=left_rows)
    )
    right_payload = draw(
        st.lists(st.integers(0, 3), min_size=right_rows,
                 max_size=right_rows)
    )
    left = table_from_python(
        "S",
        {"J": (DataType.INT, left_join), "A": (DataType.INT, left_payload)},
    )
    right = table_from_python(
        "T",
        {"J": (DataType.INT, right_join), "B": (DataType.INT, right_payload)},
    )
    return left, right


DECOMPOSE = DecomposeTable("R", "S", ("K", "P"), "T", ("K", "D"))


def _engine_with_declared_fd() -> EvolutionEngine:
    """Engine that knows K -> D at the schema level.

    With the FD declared, the lossless-join check deterministically
    picks T as the changed side; without it, a table where K -> P also
    happens to hold in the data may legitimately dedup S instead.
    """
    from repro.fd import FunctionalDependency

    return EvolutionEngine(
        extra_fds=[FunctionalDependency.of("K", "D")],
        verify_with_data=False,
    )


@settings(max_examples=60, deadline=None)
@given(fd_tables())
def test_decompose_merge_identity(table):
    engine = EvolutionEngine()
    engine.load_table(table)
    engine.apply(DECOMPOSE)
    engine.apply(MergeTables("S", "T", "R"))
    assert engine.table("R").same_content(table, ordered=True)


@settings(max_examples=60, deadline=None)
@given(fd_tables())
def test_changed_side_is_distinct_projection(table):
    engine = _engine_with_declared_fd()
    engine.load_table(table)
    engine.apply(DECOMPOSE)
    expected = sorted(
        set(
            zip(
                table.column("K").to_values(),
                table.column("D").to_values(),
            )
        )
    )
    assert engine.table("T").sorted_rows() == expected


@settings(max_examples=60, deadline=None)
@given(fd_tables())
def test_property1_column_sharing(table):
    engine = _engine_with_declared_fd()
    engine.load_table(table)
    key_column = table.column("K")
    payload_column = table.column("P")
    engine.apply(DECOMPOSE)
    assert engine.table("S").column("K") is key_column
    assert engine.table("S").column("P") is payload_column


@settings(max_examples=60, deadline=None)
@given(join_pairs())
def test_general_merge_matches_nested_loop(pair):
    left, right = pair
    op = MergeTables("S", "T", "R", ("J",))
    merged = merge_general(left, right, op, ("J",), EvolutionStatus())
    expected = nested_loop_join(left.to_rows(), right.to_rows(), 0, 0)
    assert merged.sorted_rows() == expected


@settings(max_examples=60, deadline=None)
@given(join_pairs())
def test_merge_output_is_clustered_by_join_value(pair):
    left, right = pair
    op = MergeTables("S", "T", "R", ("J",))
    merged = merge_general(left, right, op, ("J",), EvolutionStatus())
    join_values = [row[0] for row in merged.to_rows()]
    # Clustered: each join value occupies one contiguous block.
    seen = set()
    previous = object()
    for value in join_values:
        if value != previous:
            assert value not in seen, "join value appears in two blocks"
            seen.add(value)
            previous = value


@settings(max_examples=30, deadline=None)
@given(fd_tables(), st.integers(0, 1))
def test_data_level_equals_query_level(table, which):
    """CODS output ≡ SQL output, on random inputs (invariant 4)."""
    from repro.baselines import make_system

    label = ["C", "M"][which]
    cods = make_system("D")
    query = make_system(label)
    for system in (cods, query):
        system.load(table)
        system.apply(DECOMPOSE)
    assert cods.extract("S").sorted_rows() == query.extract(
        "S"
    ).sorted_rows()
    assert cods.extract("T").sorted_rows() == query.extract(
        "T"
    ).sorted_rows()
