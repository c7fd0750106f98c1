"""Sessions and cursors: the DB-API-flavored execution surface.

A :class:`Session` is the one statement front door.  Its entry,
:meth:`Session.run`, binds ``qmark``-style positional parameters
(``?``) by literal substitution, parses the text once with
:func:`~repro.sql.parser.parse_statement`, and routes on the parsed
node's type: an SMO operator goes to the
:class:`~repro.core.engine.EvolutionEngine`, a SQL node to the
session's :class:`~repro.sql.executor.SqlExecutor` — so one
``execute()`` speaks both languages against the same catalog:

    session.execute("SELECT * FROM r WHERE k = ?", (3,))
    session.executemany("INSERT INTO r VALUES (?, ?)", [(1, "a"), (2, "b")])
    session.execute("DECOMPOSE TABLE r INTO a (k), b (k, s)")

:class:`Cursor`, :class:`~repro.db.Transaction` and the network server
all enter through :meth:`Session.run` and read what they need (result
columns, EXPLAIN shape, SMO status) from the node it returns, so no
statement is parsed twice.  :class:`Cursor` wraps a session with the
familiar ``execute``/``fetchone``/``fetchall`` protocol plus
``description`` and ``rowcount``, for callers porting DB-API code.
"""

from __future__ import annotations

import time

from repro.errors import CapabilityError, SmoValidationError, SqlSyntaxError
from repro.obs.trace import TRACE_COLUMNS
from repro.smo.ops import SchemaModificationOperator
from repro.smo.parser import render_literal
from repro.sql.ast import (
    Aggregate,
    CreateIndex,
    CreateTable,
    DropTable,
    Explain,
    RenameTable,
    Select,
)
from repro.sql.executor import SqlExecutor, run_script
from repro.sql.parser import parse_statement

#: SQL AST nodes that change the table set or its physical layout —
#: under durability these checkpoint synchronously (see
#: ``Database._schema_changed``).
_DDL_NODES = (CreateTable, DropTable, RenameTable, CreateIndex)


def bind_parameters(text: str, params) -> str:
    """Substitute ``?`` placeholders (outside string literals) with the
    ``params`` rendered by :func:`repro.smo.parser.render_literal`;
    arity mismatches and unrenderable values raise
    :class:`SqlSyntaxError`."""
    params = tuple(params)
    out = []
    next_param = 0
    in_string = False
    for char in text:
        if char == "'":
            in_string = not in_string
            out.append(char)
        elif char == "?" and not in_string:
            if next_param >= len(params):
                raise SqlSyntaxError(
                    f"statement has more placeholders than the "
                    f"{len(params)} bound parameter(s)"
                )
            try:
                out.append(render_literal(params[next_param]))
            except SmoValidationError as exc:
                raise SqlSyntaxError(f"cannot bind parameter: {exc}") from exc
            next_param += 1
        else:
            out.append(char)
    if next_param != len(params):
        raise SqlSyntaxError(
            f"{len(params)} parameter(s) bound but the statement has "
            f"{next_param} placeholder(s)"
        )
    return "".join(out)


def bind_and_parse(text: str, params=None):
    """Bind ``params`` into ``text`` and parse it, once: returns its
    node (a SQL AST node or an SMO operator)."""
    if params is not None:
        text = bind_parameters(text, params)
    return parse_statement(text)


def execute_each(execute, statement: str, param_rows) -> int:
    """``execute(statement, params)`` per parameter tuple; returns the
    summed affected-row count (``executemany`` of a session or a
    transaction)."""
    results = (execute(statement, params) for params in param_rows)
    return sum(result for result in results if isinstance(result, int))


class Session:
    """One execution scope over a :class:`~repro.db.Database`.

    Sessions are cheap — they share the database's adapter (and
    therefore its catalog) and add only the executor and routing
    state.  A transaction passes its own
    :class:`~repro.db.overlay.TransactionView` instead, so its pinned
    read view never leaks into other sessions.  ``execute``
    returns what the underlying layer returns: a row list for SELECT,
    an affected-row count for DML, ``None`` for DDL, and an
    :class:`~repro.core.status.EvolutionStatus` for SMO statements.
    """

    def __init__(self, database, adapter=None):
        self.database = database
        self.adapter = adapter if adapter is not None else database.adapter
        self.executor = SqlExecutor(self.adapter)
        self._closed = False

    # -- lifecycle ------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Mark this session closed (idempotent): further ``execute``
        calls raise.  Sessions hold no resources of their own — this
        exists so long-lived owners (the network server's per-connection
        sessions, notably the idle reaper) can fence off late use."""
        self._closed = True

    # -- observability ---------------------------------------------------

    @property
    def trace_queries(self) -> bool:
        """When set, every SELECT records a timed span tree (see
        :attr:`last_trace`).  Off by default — span timing wraps each
        pipeline stage; the always-on counters do not."""
        return self.executor.trace_queries

    @trace_queries.setter
    def trace_queries(self, value: bool) -> None:
        self.executor.trace_queries = bool(value)

    @property
    def last_trace(self):
        """The :class:`~repro.obs.QueryTrace` of the most recent traced
        SELECT or EXPLAIN on this session (``None`` before one runs)."""
        return self.executor.last_trace

    # -- execution ------------------------------------------------------

    def execute(self, statement, params=None):
        """Execute one SQL *or* SMO statement — text, a SQL AST node or
        an SMO operator — and return its result.

        When the database's ``slow_query_seconds`` threshold is set,
        statements at or over it are appended to
        ``database.slow_query_log``.
        """
        return self.run(statement, params)[1]

    def run(self, statement, params=None):
        """The one entry behind every front end: bind and parse text
        once, route by the parsed node's type, and return
        ``(node, result)`` — callers read result columns, the EXPLAIN
        shape and SMO status off the node instead of parsing again.

        The slow-query log records the caller's own text (the node's
        repr when a node was passed)."""
        if self._closed:
            raise CapabilityError("session is closed")
        self.database._check_open()
        threshold = self.database.slow_query_seconds
        start = time.perf_counter()
        node = statement
        if isinstance(statement, str):
            node = bind_and_parse(statement, params)
        result = self._route(node)
        if threshold is not None:
            elapsed = time.perf_counter() - start
            if elapsed >= threshold:
                self.database.slow_query_log.append({
                    "statement": (
                        statement if isinstance(statement, str) else repr(node)
                    ),
                    "seconds": elapsed,
                })
        return node, result

    def _route(self, node):
        if isinstance(node, SchemaModificationOperator):
            status = self.database.engine.apply(node)
            self.database._schema_changed()
            return status
        result = self.executor.execute(node)
        if isinstance(node, _DDL_NODES):
            self.database._schema_changed()
        return result

    def executemany(self, statement: str, param_rows) -> int:
        """Execute one parameterized statement per parameter tuple;
        returns the summed affected-row count."""
        return execute_each(self.execute, statement, param_rows)

    def execute_script(self, text: str) -> list:
        """Execute a ``;``-separated script that may mix SQL and SMO
        statements; returns per-statement results.

        The whole script is parsed before anything runs, so a typo
        anywhere executes nothing; a statement failing *during
        execution* leaves the earlier statements applied.  Like
        :meth:`SqlExecutor.execute_script`, either failure re-raises
        annotated with its 1-based position and fragment.
        """
        return run_script(text, parse_statement, self.execute)

    def cursor(self) -> "Cursor":
        """A DB-API-flavored cursor over this session."""
        return Cursor(self)

    # -- description helper ---------------------------------------------

    def result_columns(self, node) -> tuple[str, ...] | None:
        """The column names of the result set ``node`` produces —
        :data:`~repro.obs.TRACE_COLUMNS` for EXPLAIN [ANALYZE], the
        projection for a SELECT (mirroring the executor's rules), and
        ``None`` for statements that return no rows."""
        if isinstance(node, Explain):
            return TRACE_COLUMNS
        if not isinstance(node, Select):
            return None
        if node.columns is not None:
            # Aggregates surface under their rendered label, e.g.
            # ``count(*)`` or ``sum(Salary)``.
            return tuple(
                item.label if isinstance(item, Aggregate) else item
                for item in node.columns
            )
        left = self.adapter.schema(node.table).column_names
        if node.join is None:
            return tuple(left)
        right = self.adapter.schema(node.join.table).column_names
        return tuple(left) + tuple(
            n for n in right if n not in node.join.join_attrs
        )


class Cursor:
    """DB-API-shaped access: ``execute`` then ``fetch*``.

    ``description`` is a sequence of 7-tuples (name first, the rest
    ``None``) after a SELECT and ``None`` otherwise; ``rowcount`` is
    the affected-row count after DML and ``-1`` otherwise.  After an
    EXPLAIN [ANALYZE] the result set uses the fixed
    :data:`~repro.obs.TRACE_COLUMNS` shape and :attr:`trace` retains
    the underlying :class:`~repro.obs.QueryTrace` (also populated after
    a SELECT when the session's ``trace_queries`` is on).
    """

    arraysize = 1

    def __init__(self, session: Session):
        self.session = session
        self.description = None
        self.rowcount = -1
        self.trace = None
        self._rows: list | None = None
        self._position = 0
        self._closed = False

    # -- execution ------------------------------------------------------

    def execute(self, statement, params=None) -> "Cursor":
        self._check_open()
        self.description = None
        self.rowcount = -1
        self.trace = None
        self._rows, self._position = None, 0

        node, result = self.session.run(statement, params)
        columns = self.session.result_columns(node)
        if columns is not None:
            self._rows = list(result)
            self.description = tuple(
                (name, None, None, None, None, None, None)
                for name in columns
            )
            if isinstance(node, Explain) or self.session.trace_queries:
                self.trace = self.session.last_trace
        elif isinstance(result, int):
            self.rowcount = result
        return self

    def executemany(self, statement: str, param_rows) -> "Cursor":
        self._check_open()
        self.description = None
        self.trace = None
        self._rows, self._position = None, 0
        self.rowcount = self.session.executemany(statement, param_rows)
        return self

    # -- fetching -------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise CapabilityError("cursor is closed")

    def _result_rows(self) -> list:
        if self._rows is None:
            raise CapabilityError("no result set; execute a SELECT first")
        return self._rows

    def fetchone(self):
        rows = self._result_rows()
        if self._position >= len(rows):
            return None
        row = rows[self._position]
        self._position += 1
        return row

    def fetchmany(self, size: int | None = None) -> list:
        rows = self._result_rows()
        count = self.arraysize if size is None else size
        chunk = rows[self._position:self._position + count]
        self._position += len(chunk)
        return chunk

    def fetchall(self) -> list:
        rows = self._result_rows()
        chunk = rows[self._position:]
        self._position = len(rows)
        return chunk

    def __iter__(self):
        while True:
            row = self.fetchone()
            if row is None:
                return
            yield row

    def close(self) -> None:
        self._closed = True
        self._rows = None
