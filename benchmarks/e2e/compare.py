"""``run.py compare`` and the verdict rule behind ``run.py aa``.

One row per workload and end-to-end metric: base, new, ratio with its
base, bound and a verdict.  A file holds one or more sets (``--out``
appends one per ``--all`` run); set *i* of the base pairs with set *i*
of the new side — the two were run next to each other, the sides taking
turns at running first — and the row is judged on the per-pair ratios
``new / base``, so that what the machine did to both runs of a pair
drops out.

``regressed``
    the median of the pair ratios is worse than 1 by more than the
    metric's bound (for a metric whose base is 0, an exact count: any
    rise);
``unresolved``
    not regressed, but the spread of the pair ratios is wider than the
    bound, so "no change" cannot be told from a change of the bound's
    size;
``improved``
    better by more than the spread, and the new side wins at least nine
    tenths of the pairs, ties counting for neither (fewer than ten
    pairs can show an improvement but not carry a claim — the row says
    how many there were);
``unchanged``
    everything else.

The spread is the distance between the quartiles of the pair ratios as
a share of their median with four pairs or more, their
``(max - min) / median`` with two or three, and with a single pair the
wider of the two runs' own ``(max - min) / median`` over reps (which
overstates it: reps are shorter than runs).
"""

from __future__ import annotations

import math
import statistics

import catalog


def sets_of(document: dict) -> list[dict]:
    return document["sets"] if "sets" in document else [document]


def _values(sets, workload: str, metric: str) -> list[dict]:
    return [
        s["workloads"][workload]["end_to_end"][metric]
        for s in sets
        if metric in s["workloads"].get(workload, {}).get("end_to_end", {})
    ]


def verdict(base: list[dict], new: list[dict], better: str, bound: float):
    """The row for one metric from its per-set metric dicts, paired in
    order."""
    pairs = [(b["value"], n["value"]) for b, n in zip(base, new)]
    base_mid = statistics.median(b for b, _ in pairs)
    new_mid = statistics.median(n for _, n in pairs)
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for b, n in pairs if sign * (n - b) < 0)
    losses = sum(1 for b, n in pairs if sign * (n - b) > 0)
    if all(b for b, _ in pairs):
        ratios = [n / b for b, n in pairs]
        ratio = statistics.median(ratios)
        worse = sign * (ratio - 1.0)
        if len(ratios) >= 4:
            q1, _, q3 = statistics.quantiles(ratios, n=4)
            spread = (q3 - q1) / ratio
        elif len(ratios) >= 2:
            spread = (max(ratios) - min(ratios)) / ratio
        else:
            spread = max(m.get("spread", 0.0) for m in base + new)
    else:  # a count that is 0 at the base: no ratio, the plain rise
        ratio, spread = None, 0.0
        worse = max(0.0, sign * (new_mid - base_mid))
    if worse > bound:
        outcome = "regressed"
    elif bound and spread > bound:  # a bound of 0 is an exact count
        outcome = "unresolved"
    elif (worse < 0 and -worse > spread
          and wins >= math.ceil(0.9 * (wins + losses))):
        outcome = "improved"
    else:
        outcome = "unchanged"
    return {
        "base": base_mid, "new": new_mid, "ratio": ratio,
        "worse_by": worse, "spread": spread, "bound": bound,
        "pairs": len(pairs), "wins": wins, "verdict": outcome,
    }


def compare_sets(first: dict, second: dict) -> list[dict]:
    base_sets, new_sets = sets_of(first), sets_of(second)
    rows = []
    for workload in catalog.WORKLOADS:
        for metric, (unit, better, bound, _, _) in catalog.END_TO_END.items():
            base = _values(base_sets, workload, metric)
            new = _values(new_sets, workload, metric)
            if not base or not new:
                continue
            row = verdict(base, new, better, bound)
            row.update(workload=workload, metric=metric, unit=unit)
            rows.append(row)
    return rows


def render(rows: list[dict]) -> str:
    lines = [
        f"{'workload':18s} {'metric':28s} {'base':>12s} {'new':>12s} "
        f"{'new/base':>9s} {'spread':>7s} {'bound':>6s} {'pairs':>5s} "
        f"{'wins':>4s} verdict"
    ]
    for row in rows:
        ratio = "-" if row["ratio"] is None else f"{row['ratio']:.3f}"
        lines.append(
            f"{row['workload']:18s} {row['metric']:28s} "
            f"{row['base']:12.4f} {row['new']:12.4f} {ratio:>9s} "
            f"{row['spread']:7.3f} {row['bound']:6.2f} {row['pairs']:5d} "
            f"{row['wins']:4d} {row['verdict']}"
        )
    return "\n".join(lines)
