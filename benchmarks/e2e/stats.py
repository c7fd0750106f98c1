"""The one estimator of cods-e2e.

A workload's timed section runs ``reps`` times on fresh state.  A
latency metric is the median over reps of the per-rep median, a rate is
the median over reps; either way a value is stored with ``n`` (samples
behind it), ``min``/``max`` over reps and
``spread = (max - min) / median``.  A percentile above the median is
given only where at least ten samples lie beyond it.
"""

from __future__ import annotations

import math
import statistics

#: Samples that must lie beyond a percentile for it to be reported.
SAMPLES_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float | None:
    """Nearest-rank percentile, or ``None`` when fewer than
    :data:`SAMPLES_BEYOND` samples lie beyond it."""
    ordered = sorted(values)
    if len(ordered) * (1.0 - q) < SAMPLES_BEYOND:
        return None
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[rank - 1])


def over_reps(per_rep, unit: str, n: int | None = None) -> dict:
    """One metric from its per-rep values."""
    per_rep = [float(v) for v in per_rep]
    mid = median(per_rep)
    return {
        "value": mid,
        "unit": unit,
        "n": n if n is not None else len(per_rep),
        "reps": len(per_rep),
        "min": min(per_rep),
        "max": max(per_rep),
        "spread": (max(per_rep) - min(per_rep)) / mid if mid else 0.0,
    }


def latency_over_reps(per_rep_samples, unit: str = "ms", scale: float = 1e3):
    """Median over reps of the per-rep median of a latency class
    (samples in seconds), or ``None`` when no rep has a sample."""
    filled = [samples for samples in per_rep_samples if samples]
    if not filled:
        return None
    return over_reps(
        [median(samples) * scale for samples in filled],
        unit,
        n=sum(len(samples) for samples in filled),
    )
