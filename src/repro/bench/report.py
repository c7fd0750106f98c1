"""Rendering benchmark results in the paper's format.

Figure 3 is a pair of line charts (time vs #distinct values, one line
per system); we render the same series as an aligned text table plus a
crude log-scale ASCII chart, and compute the headline speedup factors.
"""

from __future__ import annotations

from collections import defaultdict


def _format_seconds(seconds: float) -> str:
    if seconds < 1e-4:
        return f"{seconds * 1e6:8.1f}µs"
    if seconds < 0.1:
        return f"{seconds * 1e3:8.2f}ms"
    return f"{seconds:8.3f}s "


def series_table(results, title: str) -> str:
    """Aligned table: one row per series, one column per distinct count."""
    by_series: dict = defaultdict(dict)
    sweep: list[int] = []
    for result in results:
        by_series[result.series][result.distinct] = result.seconds
        if result.distinct not in sweep:
            sweep.append(result.distinct)
    sweep.sort()

    lines = [title]
    header = "series    " + "".join(f"{d:>11,}" for d in sweep)
    lines.append(header)
    lines.append("-" * len(header))
    for series, points in by_series.items():
        cells = "".join(
            _format_seconds(points[d]) if d in points else "         -"
            for d in sweep
        )
        lines.append(f"{series:<10}" + cells)
    return "\n".join(lines)


def speedup_summary(results, baseline_series=("C", "C+I", "S", "M")) -> str:
    """CODS speedup over each query-level series, min–max over the sweep."""
    by_series: dict = defaultdict(dict)
    for result in results:
        by_series[result.series][result.distinct] = result.seconds
    if "D" not in by_series:
        return "(no CODS series in results)"
    lines = []
    for series in baseline_series:
        if series not in by_series:
            continue
        ratios = [
            by_series[series][d] / by_series["D"][d]
            for d in by_series["D"]
            if d in by_series[series] and by_series["D"][d] > 0
        ]
        if ratios:
            lines.append(
                f"D vs {series}: {min(ratios):.0f}x – {max(ratios):.0f}x faster"
            )
    return "\n".join(lines)


def ascii_chart(results, width: int = 60, height: int = 12) -> str:
    """Log-log scatter of the series (x: distinct values, y: seconds)."""
    import math

    points = [
        (r.series, r.distinct, r.seconds) for r in results if r.seconds > 0
    ]
    if not points:
        return "(no data)"
    xs = [math.log10(p[1]) for p in points]
    ys = [math.log10(p[2]) for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    grid = [[" "] * width for _ in range(height)]
    markers = {}
    for (series, distinct, seconds), x, y in zip(points, xs, ys):
        marker = markers.setdefault(series, series[0])
        col = int((x - x_lo) / x_span * (width - 1))
        row = height - 1 - int((y - y_lo) / y_span * (height - 1))
        grid[row][col] = marker
    legend = "  ".join(f"{m}={s}" for s, m in markers.items())
    body = "\n".join("|" + "".join(row) for row in grid)
    axis = "+" + "-" * width
    return (
        f"time (log s) vs #distinct values (log)   {legend}\n{body}\n{axis}"
    )


def table1_report(rows, series=("D", "C+I", "M")) -> str:
    """Per-operator table for the Table 1 micro-benchmarks."""
    header = f"{'operator':<18}" + "".join(f"{label:>12}" for label in series)
    lines = ["Table 1 operators — evolution time per system", header,
             "-" * len(header)]
    for record in rows:
        cells = "".join(
            _format_seconds(record[label]).rjust(12)
            for label in series
        )
        lines.append(f"{record['operator']:<18}" + cells)
    return "\n".join(lines)
