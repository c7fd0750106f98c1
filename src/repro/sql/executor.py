"""The SQL executor: statement evaluation over an engine adapter.

This is the "query execution engine" box of Figure 2 (right side).
SELECTs are planned onto the vectorized batch pipeline of
:mod:`repro.exec` — data flows column-wise from the storage engine
through filter, projection and join, with selected positions standing
in for row movement, and tuples are materialized only at this
adapter/cursor boundary.  DML and DDL dispatch to the adapter
directly.  Both query-level baselines run their evolutions through
this code path.
"""

from __future__ import annotations

from dataclasses import replace

from repro.errors import CodsError, SqlExecutionError
from repro.exec.planner import execute_select, plan_select, select_chunks
from repro.obs.trace import ExecStats, QueryTrace
from repro.sql.adapter import EngineAdapter, require_table
from repro.sql.ast import (
    CreateIndex,
    CreateTable,
    Delete,
    DropTable,
    Explain,
    InsertSelect,
    InsertValues,
    RenameTable,
    Select,
    Statement,
    Update,
)
from repro.sql.parser import iter_script_statements, parse_sql


class SqlExecutor:
    """Executes parsed statements against an adapter.

    Observability: every SELECT charges the adapter's metrics registry
    (``exec.queries``/``exec.batches``/``exec.rows_decoded``/
    ``exec.rows_returned``) unless ``instrument=False``; setting
    ``trace_queries`` additionally records a timed
    :class:`~repro.obs.QueryTrace` span tree for each SELECT,
    retained as :attr:`last_trace` (span timing is opt-in — it wraps
    every pipeline stage, so it is never on by default).
    """

    def __init__(self, adapter: EngineAdapter, instrument: bool = True):
        self.adapter = adapter
        self.instrument = instrument
        self.trace_queries = False
        self.last_trace: QueryTrace | None = None
        # Metric handles resolved once — get-or-create lookups stay off
        # the per-query path (the registry returns stable objects).
        if instrument:
            registry = adapter.metrics
            self._select_seconds = registry.histogram("exec.select_seconds")
            self._flush_counters = tuple(
                registry.counter(name)
                for name in (
                    "exec.queries", "exec.batches",
                    "exec.rows_decoded", "exec.rows_returned",
                )
            )

    @property
    def metrics(self):
        """The adapter's metrics registry (per-backend, aggregating
        into :func:`repro.obs.global_registry`)."""
        return self.adapter.metrics

    # -- entry points ------------------------------------------------------

    def execute(self, statement_or_text):
        """Execute one statement (text or AST).

        Returns a list of tuples for SELECT, an affected-row count for
        INSERT/UPDATE/DELETE, ``None`` for DDL.
        """
        statement = (
            parse_sql(statement_or_text)
            if isinstance(statement_or_text, str)
            else statement_or_text
        )
        return self._dispatch(statement)

    def execute_script(self, text: str) -> list:
        """Execute a semicolon-separated script; returns per-statement
        results.

        ``--`` comments are stripped (see
        :func:`~repro.sql.parser.iter_script_statements`).  The whole
        script is parsed before anything runs, so a syntax error
        anywhere executes nothing; a statement that fails *during
        execution* leaves the earlier statements applied.  Either way
        the error re-raises annotated with the 1-based statement
        position and the offending SQL fragment, so a mid-script
        failure never loses its place.
        """
        return run_script(text, parse_sql, self._dispatch)

    # -- dispatch ---------------------------------------------------------

    def _dispatch(self, statement: Statement):
        if isinstance(statement, Select):
            return self._run_select_list(self._typed(statement))
        if isinstance(statement, Explain):
            return self._run_explain(
                replace(statement, select=self._typed(statement.select))
            )
        if isinstance(statement, InsertValues):
            require_table(self.adapter, statement.table)
            return self.adapter.insert_rows(statement.table, statement.rows)
        if isinstance(statement, InsertSelect):
            require_table(self.adapter, statement.table)
            # Materialize before inserting: a lazy drain would scan the
            # source *while* the target's writer lock is held, and a
            # concurrent writer doing the mirror image deadlocks.
            rows = list(self._run_select(self._typed(statement.select)))
            return self.adapter.insert_rows(statement.table, rows)
        if isinstance(statement, Update):
            require_table(self.adapter, statement.table)
            schema = self.adapter.schema(statement.table)
            for column, _value in statement.assignments:
                if not schema.has_column(column):
                    raise SqlExecutionError(
                        f"no column {column!r} in table {statement.table!r}"
                    )
            where = statement.where
            if where is not None:
                where.validate(schema)
                where = where.typed(_column_types(schema))
            return self.adapter.update_rows(
                statement.table, statement.assignments, where
            )
        if isinstance(statement, Delete):
            require_table(self.adapter, statement.table)
            where = statement.where
            if where is not None:
                schema = self.adapter.schema(statement.table)
                where.validate(schema)
                where = where.typed(_column_types(schema))
            return self.adapter.delete_rows(statement.table, where)
        if isinstance(statement, CreateTable):
            self.adapter.create_table(statement.schema)
            return None
        if isinstance(statement, DropTable):
            require_table(self.adapter, statement.name)
            self.adapter.drop_table(statement.name)
            return None
        if isinstance(statement, RenameTable):
            require_table(self.adapter, statement.name)
            self.adapter.rename_table(statement.name, statement.new_name)
            return None
        if isinstance(statement, CreateIndex):
            require_table(self.adapter, statement.table)
            self.adapter.create_index(statement.table, statement.column)
            return None
        raise SqlExecutionError(
            f"unsupported statement {statement!r}"
        )  # pragma: no cover

    def _typed(self, select: Select) -> Select:
        """``select`` with its WHERE literals coerced to the types of
        the columns they compare against (see ``Predicate.typed``);
        unknown tables are left for the planner to reject."""
        if select.where is None:
            return select
        dtypes = {}
        tables = [select.table]
        if select.join is not None:
            tables.insert(0, select.join.table)  # the left side wins
        for table in tables:
            if self.adapter.has_table(table):
                dtypes.update(_column_types(self.adapter.schema(table)))
        where = select.where.typed(dtypes)
        return select if where is select.where else replace(select, where=where)

    # -- SELECT pipeline ------------------------------------------------------

    def _run_select(self, select: Select):
        """Plan the SELECT onto the vectorized batch pipeline (see
        :func:`repro.exec.planner.execute_select`): one code path for
        every backend, with per-batch predicate strategies instead of
        row-at-a-time filtering here.  Lazy and uninstrumented — the
        INSERT … SELECT drain; statement-level SELECTs go through
        :meth:`_run_select_list`."""
        return execute_select(self.adapter, select)

    def _run_select_list(self, select: Select, trace=None) -> list:
        """Execute a SELECT to a list, with the always-on counters:
        batch/row totals accumulate per batch during the run and flush
        into the registry exactly once, after materialization."""
        if trace is None and self.instrument and self.trace_queries:
            trace = QueryTrace(timed=True)
        if not self.instrument:
            rows = _drain(select_chunks(self.adapter, select, None, trace))
        else:
            stats = ExecStats()
            with self._select_seconds.time():
                rows = _drain(
                    select_chunks(self.adapter, select, stats, trace)
                )
            queries, batches, decoded, returned = self._flush_counters
            queries.inc()
            batches.inc(stats.batches)
            decoded.inc(stats.rows_decoded)
            returned.inc(len(rows))
            if stats.agg_batches_compressed or stats.agg_batches_hash:
                # Aggregate queries are rare relative to scans, so the
                # exec.agg_* counters resolve lazily instead of widening
                # the cached handle tuple every executor carries.
                registry = self.adapter.metrics
                registry.counter("exec.agg_batches_compressed").inc(
                    stats.agg_batches_compressed
                )
                registry.counter("exec.agg_batches_hash").inc(
                    stats.agg_batches_hash
                )
                registry.counter("exec.agg_groups").inc(stats.agg_groups)
                registry.counter("exec.agg_partials_reused").inc(
                    stats.agg_partials_reused
                )
        if trace is not None:
            if trace.root is not None:
                trace.root.rows_out = len(rows)
            self.last_trace = trace.finalize()
        return rows

    def _run_explain(self, explain: Explain) -> list:
        """EXPLAIN renders the static plan; EXPLAIN ANALYZE executes
        the SELECT through the traced pipeline (charging the same
        counters a plain SELECT would) and renders the populated span
        tree.  Either way the trace is retained on :attr:`last_trace`
        and the rows use the fixed
        :data:`repro.obs.TRACE_COLUMNS` shape."""
        if explain.analyze:
            trace = QueryTrace(timed=True)
            self._run_select_list(explain.select, trace=trace)
        else:
            trace = plan_select(
                self.adapter, explain.select, QueryTrace(timed=False)
            )
            self.last_trace = trace
        return trace.rows()


def _drain(chunks) -> list:
    """The rows of a chunk stream as one fresh list, copied a chunk at
    a time."""
    rows: list = []
    for chunk in chunks:
        rows += chunk
    return rows


def _column_types(schema) -> dict:
    return {column.name: column.dtype for column in schema.columns}


def run_script(text: str, parse, run) -> list:
    """Split ``text`` into statements, ``parse`` every one before any
    runs, then ``run`` each in order — the one script loop behind
    :meth:`SqlExecutor.execute_script` and
    :meth:`repro.db.Session.execute_script`.  A failure in either pass
    re-raises through :func:`script_error`."""
    fragments = iter_script_statements(text)
    parsed = []
    for position, fragment in enumerate(fragments, start=1):
        try:
            parsed.append(parse(fragment))
        except CodsError as exc:
            raise script_error(exc, position, fragment) from exc
    results = []
    for position, (fragment, statement) in enumerate(
        zip(fragments, parsed), start=1
    ):
        try:
            results.append(run(statement))
        except CodsError as exc:
            raise script_error(exc, position, fragment) from exc
    return results


def script_error(exc: CodsError, position: int, fragment: str) -> CodsError:
    """Rewrap a per-statement error with its 1-based script position
    and the offending fragment, preserving the exception type so
    callers' ``except`` clauses keep matching."""
    snippet = fragment if len(fragment) <= 120 else fragment[:117] + "..."
    return type(exc)(f"statement {position} ({snippet!r}): {exc}")
