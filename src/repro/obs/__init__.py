"""repro.obs — observability: metrics, query traces, EXPLAIN plumbing.

Three small layers (catalogued in ``docs/observability.md``):

* :class:`MetricsRegistry` — named counters, gauges (callback-backed
  for delta/snapshot state) and histograms with monotonic-clock
  timers.  Per-adapter registries propagate counter traffic to the
  process-wide :func:`global_registry`; :class:`NullRegistry` is the
  drop-in no-op.
* :class:`QueryTrace` / :class:`Span` — the per-query operator tree
  behind ``EXPLAIN`` / ``EXPLAIN ANALYZE`` and opt-in tracing, with
  :class:`ExecStats` as the always-on (per-batch, never per-row)
  counter record.
* :func:`to_json_lines` / :func:`to_prometheus` — snapshot exporters,
  surfaced as ``Database.metrics(fmt=...)``.
"""

from repro.obs.export import prometheus_name, to_json_lines, to_prometheus
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    global_registry,
    reset_global_registry,
)
from repro.obs.trace import (
    TRACE_COLUMNS,
    ExecStats,
    QueryTrace,
    Span,
)

__all__ = [
    "Counter",
    "ExecStats",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "QueryTrace",
    "Span",
    "TRACE_COLUMNS",
    "global_registry",
    "prometheus_name",
    "reset_global_registry",
    "to_json_lines",
    "to_prometheus",
]
