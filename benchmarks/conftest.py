"""Benchmark configuration.

Scale is controlled by ``CODS_BENCH_ROWS`` (default 20 000 here, so the
whole suite finishes in minutes on a laptop; the paper used 10 000 000).
``benchmarks/run_figures.py`` / ``cods-figures`` run the full-size
sweeps and print the figures' numbers.
"""

from __future__ import annotations

import os

import pytest


def bench_rows() -> int:
    return int(os.environ.get("CODS_BENCH_ROWS", 20_000))


@pytest.fixture(scope="session")
def nrows() -> int:
    return bench_rows()
