"""Per-query tracing: span trees and the always-on execution stats.

Two instruments with very different costs live here:

* :class:`ExecStats` — a tiny mutable record the planner fills on
  *every* SELECT (batch and row counts, accumulated per batch, never
  per row) and the executor flushes into the adapter's registry once
  per query.  Always on.
* :class:`QueryTrace` / :class:`Span` — the operator tree behind
  ``EXPLAIN``, ``EXPLAIN ANALYZE`` and opt-in query tracing.  The
  planner's stages *are* the spans: each carries the step that
  transforms its stream.  When a trace is active the planner times
  each stage's output once per batch or chunk pulled, so spans carry
  *inclusive* wall time (a span's seconds include its upstream
  producers, exactly like pulling on that stream does).

The row shape of a rendered trace is fixed —
``(operator, detail, batches, rows_in, rows_out, ms)`` with the
operator indented two spaces per tree level — and documented in
``docs/observability.md`` ("Span schema").
"""

from __future__ import annotations

#: Column names of a rendered trace (the EXPLAIN cursor description).
TRACE_COLUMNS = ("operator", "detail", "batches", "rows_in", "rows_out", "ms")


class Span:
    """One operator of a query's plan, with its observed traffic.

    A plan stage also carries ``step``, which builds the stage's output
    stream from the streams of its ``inputs`` predecessors (0 for a
    scan, 2 for a join; see :mod:`repro.exec.planner`)."""

    __slots__ = (
        "operator", "detail", "batches", "rows_in", "rows_out",
        "seconds", "children", "step", "inputs",
    )

    def __init__(self, operator: str, detail: str = "", step=None,
                 inputs: int = 1):
        self.operator = operator
        self.detail = detail
        self.batches = 0
        self.rows_in = 0
        self.rows_out = 0
        self.seconds = 0.0
        self.children: list[Span] = []
        self.step = step
        self.inputs = inputs

    def child(self, operator: str, detail: str = "", step=None,
              inputs: int = 1) -> "Span":
        span = Span(operator, detail, step, inputs)
        self.children.append(span)
        return span

    def as_dict(self) -> dict:
        return {
            "operator": self.operator,
            "detail": self.detail,
            "batches": self.batches,
            "rows_in": self.rows_in,
            "rows_out": self.rows_out,
            "ms": round(self.seconds * 1e3, 3),
            "children": [child.as_dict() for child in self.children],
        }

    def __repr__(self) -> str:
        return (
            f"Span({self.operator!r}, rows_out={self.rows_out}, "
            f"children={len(self.children)})"
        )


class QueryTrace:
    """The span tree of one SELECT.

    ``timed=True`` (EXPLAIN ANALYZE, opt-in tracing) makes the planner
    time every stage's output; ``timed=False`` renders a static plan
    (plain EXPLAIN) with zeroed counters.
    """

    def __init__(self, sql: str = "", timed: bool = False):
        self.sql = sql
        self.timed = timed
        self.executed = False
        self.root: Span | None = None

    def finalize(self) -> "QueryTrace":
        """Fill derived fields after execution: each pipeline stage's
        ``rows_in`` is its predecessor's ``rows_out`` (the stages of a
        SELECT form a chain; only scans and join inputs originate
        rows, and those set their counts during execution)."""
        if self.root is not None:
            _chain_rows(self.root)
        return self

    def rows(self) -> list[tuple]:
        """The trace as result rows — the fixed 6-tuple shape of
        :data:`TRACE_COLUMNS`, operator indented by tree depth."""
        out: list[tuple] = []
        if self.root is not None:
            _render(self.root, 0, out)
        return out

    def as_dict(self) -> dict:
        return {
            "sql": self.sql,
            "timed": self.timed,
            "executed": self.executed,
            "plan": self.root.as_dict() if self.root is not None else None,
        }


def _chain_rows(span: Span) -> None:
    previous = None
    for child in span.children:
        _chain_rows(child)
        if previous is not None and child.rows_in == 0:
            child.rows_in = previous.rows_out
        previous = child
    if previous is not None and span.rows_in == 0:
        # A parent consumes what its last stage produced.
        span.rows_in = previous.rows_out


def _render(span: Span, depth: int, out: list[tuple]) -> None:
    out.append((
        "  " * depth + span.operator,
        span.detail,
        span.batches,
        span.rows_in,
        span.rows_out,
        round(span.seconds * 1e3, 3),
    ))
    for child in span.children:
        _render(child, depth + 1, out)


class ExecStats:
    """Always-on per-query accounting, flushed once per statement.

    The planner adds to these plain attributes batch-wise (one addition
    per 4096-row batch, not per row); the executor copies the totals
    into the adapter's registry counters after the result list
    materializes.  Keeping the hot path free of registry lookups is
    what holds the overhead gate at <= 5%.
    """

    __slots__ = (
        "queries", "batches", "rows_decoded", "rows_returned",
        "agg_batches_compressed", "agg_batches_hash", "agg_groups",
        "agg_partials_reused",
    )

    def __init__(self):
        self.queries = 0
        self.batches = 0
        self.rows_decoded = 0
        self.rows_returned = 0
        # Aggregation accounting (see repro.exec.aggregate): batches
        # folded in the compressed vid/popcount domain (main store) vs
        # row-wise by hash (delta and values), and groups produced.
        self.agg_batches_compressed = 0
        self.agg_batches_hash = 0
        self.agg_groups = 0
        # Main batches folded from a generation's cached whole-table
        # partials without building one.
        self.agg_partials_reused = 0
