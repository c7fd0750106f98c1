"""Property tests for ``repro.storage.codes``: rows grouped by one
combined vid code per row agree exactly with the row sort
(``np.unique(matrix, axis=0)``, ``tests/harness/row_groups.py``) —
the same dense group ids, the same first-row witnesses, and
``split_codes`` recovering the same distinct vid tuples — for 0–5
columns, 0 rows, and radices up to 2**31, where the products pass
``CODE_LIMIT`` and the running codes are re-densified."""

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from repro.storage.codes import (
    CODE_LIMIT,
    combine_columns,
    dense_ids,
    first_rows,
    nonzero_counts,
    split_codes,
)
from tests.harness.row_groups import unique_rows

radices = st.one_of(st.integers(1, 5), st.integers(1, 2**31))


@st.composite
def vid_columns(draw):
    """``(columns, radices, nrows)``: each column draws its rows from a
    few vids below its radix, so wide radices still repeat tuples."""
    sizes = draw(st.lists(radices, min_size=0, max_size=5))
    nrows = draw(st.integers(0, 40))
    columns = []
    for size in sizes:
        pool = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=4))
        picks = draw(
            st.lists(st.integers(0, len(pool) - 1), min_size=nrows,
                     max_size=nrows)
        )
        columns.append(np.array(pool, dtype=np.int64)[picks])
    return columns, sizes, nrows


def _wide_case():
    """Five columns of radix 2**31: every step after the second passes
    ``CODE_LIMIT``."""
    rng = np.random.default_rng(5)
    pools = [rng.integers(0, 2**31, 3) for _ in range(5)]
    columns = [pool[rng.integers(0, 3, 30)] for pool in pools]
    return columns, [2**31] * 5, 30


@given(vid_columns())
@example(_wide_case())
def test_codes_group_rows_like_the_row_sort(case):
    columns, sizes, nrows = case
    want_rows, want_first, want_inverse = unique_rows(columns, nrows)
    codes, space, steps = combine_columns(columns, sizes, nrows)
    assert space <= CODE_LIMIT
    assert codes.dtype == np.int64 and len(codes) == nrows
    assert np.all((codes >= 0) & (codes < space))

    present, inverse = dense_ids(codes, space)
    assert np.array_equal(inverse, want_inverse)

    witnessed, first = first_rows(codes, space)
    assert np.array_equal(witnessed, present)
    assert np.array_equal(first, want_first)

    counted, counts = nonzero_counts(codes, space)
    assert np.array_equal(counted, present)
    assert np.array_equal(counts, np.bincount(want_inverse,
                                              minlength=len(present)))

    if columns:  # zero columns leave no vids to split back out
        parts = split_codes(present, steps)
        assert len(parts) == len(columns)
        for index, part in enumerate(parts):
            assert np.array_equal(part, want_rows[:, index])


def test_wide_radices_re_densify():
    columns, sizes, nrows = _wide_case()
    _codes, _space, steps = combine_columns(columns, sizes, nrows)
    assert sum(dense is not None for _size, dense in steps) == 3
