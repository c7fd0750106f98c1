"""Recursive-descent parser for the SQL subset, and the statement front
door for both languages.

Shares the tokenizer and predicate grammar with the SMO language, so a
WHERE clause means the same thing in ``PARTITION TABLE … WHERE`` and in
``SELECT … WHERE``.  :func:`parse_statement` tokenizes a statement once
and hands the tokens to the grammar its leading verb selects.
"""

from __future__ import annotations

from repro.errors import SmoValidationError, SqlSyntaxError
from repro.smo.ops import SchemaModificationOperator
from repro.smo.parser import (
    TokenStream,
    literal_value,
    parse_attr_list,
    parse_create_columns,
    parse_literal_list,
    parse_predicate,
    parse_smo_tokens,
)
from repro.sql.ast import (
    AGGREGATE_FUNCTIONS,
    Aggregate,
    CreateIndex,
    CreateTable,
    Delete,
    DropTable,
    Explain,
    InsertSelect,
    InsertValues,
    JoinClause,
    RenameTable,
    Select,
    Statement,
    Update,
)
from repro.storage.schema import TableSchema


_AGGREGATE_NAMES = frozenset(name.upper() for name in AGGREGATE_FUNCTIONS)


def _parse_select_item(tokens: TokenStream) -> str | Aggregate:
    """One select-list entry: a column name or an aggregate call."""
    name = tokens.expect_ident()
    if name.upper() not in _AGGREGATE_NAMES or not tokens.punct_is("("):
        return name
    tokens.next()
    func = name.lower()
    if tokens.punct_is("*"):
        tokens.next()
        tokens.expect_punct(")")
        if func != "count":
            raise SqlSyntaxError(f"{func.upper()}(*) is not supported")
        return Aggregate("count", None)
    argument = tokens.expect_ident()
    tokens.expect_punct(")")
    return Aggregate(func, argument)


def _parse_select(tokens: TokenStream) -> Select:
    tokens.expect_keyword("SELECT")
    distinct = False
    if tokens.keyword_is("DISTINCT"):
        tokens.next()
        distinct = True

    columns: tuple[str | Aggregate, ...] | None = None
    if tokens.punct_is("*"):
        tokens.next()
    else:
        if tokens.punct_is("("):
            raise SqlSyntaxError("unexpected '(' after SELECT")
        names = [_parse_select_item(tokens)]
        while tokens.punct_is(","):
            tokens.next()
            names.append(_parse_select_item(tokens))
        columns = tuple(names)

    tokens.expect_keyword("FROM")
    table = tokens.expect_ident()

    join = None
    if tokens.keyword_is("JOIN"):
        tokens.next()
        right = tokens.expect_ident()
        tokens.expect_keyword("ON")
        join = JoinClause(right, parse_attr_list(tokens))

    where = None
    if tokens.keyword_is("WHERE"):
        tokens.next()
        where = parse_predicate(tokens)

    group_by: tuple[str, ...] = ()
    if tokens.keyword_is("GROUP"):
        tokens.next()
        tokens.expect_keyword("BY")
        groups = [tokens.expect_ident()]
        while tokens.punct_is(","):
            tokens.next()
            groups.append(tokens.expect_ident())
        group_by = tuple(groups)

    order_by = None
    if tokens.keyword_is("ORDER"):
        tokens.next()
        tokens.expect_keyword("BY")
        column = tokens.expect_ident()
        ascending = True
        if tokens.keyword_is("ASC"):
            tokens.next()
        elif tokens.keyword_is("DESC"):
            tokens.next()
            ascending = False
        order_by = (column, ascending)

    limit = None
    if tokens.keyword_is("LIMIT"):
        tokens.next()
        kind, value = tokens.next()
        if kind != "number" or "." in value:
            raise SqlSyntaxError(f"LIMIT expects an integer, got {value!r}")
        limit = int(value)

    select = Select(
        columns, table, distinct, join, where, order_by, limit, group_by
    )
    if distinct and select.is_aggregate:
        raise SqlSyntaxError(
            "DISTINCT cannot be combined with GROUP BY or aggregates"
        )
    return select


def _parse_assignment(tokens: TokenStream) -> tuple[str, object]:
    column = tokens.expect_ident()
    kind, op = tokens.next()
    if kind != "op" or op != "=":
        raise SqlSyntaxError(f"expected '=' after {column!r} in SET")
    kind, value = tokens.next()
    return column, literal_value(kind, value)


#: Verbs that can only begin a schema-modification statement (``DROP
#: COLUMN`` is one too; ``DROP TABLE`` is SQL).
_SMO_VERBS = frozenset(
    {"DECOMPOSE", "MERGE", "COPY", "UNION", "PARTITION", "ADD", "RENAME"}
)


def _starts_smo(tokens: TokenStream) -> bool:
    head = [
        value.upper() if kind == "ident" else ""
        for kind, value in tokens.tokens[:2]
    ]
    return bool(head) and (head[0] in _SMO_VERBS or head == ["DROP", "COLUMN"])


def parse_statement(text: str) -> Statement | SchemaModificationOperator:
    """Parse one SQL *or* SMO statement in one tokenizer pass.

    ``DECOMPOSE`` / ``MERGE`` / ``COPY`` / ``UNION`` / ``PARTITION`` /
    ``ADD`` / ``RENAME`` and ``DROP COLUMN`` begin an SMO (parsed by
    :func:`repro.smo.parser.parse_smo_tokens`, whose errors stay
    :class:`SmoValidationError`); everything else — ``DROP TABLE``
    and unknown verbs included — is SQL, so the SQL grammar's
    :class:`SqlSyntaxError` is what callers see.
    """
    try:
        tokens = TokenStream(text)
        if not _starts_smo(tokens):
            return _parse_sql(tokens)
    except SmoValidationError as exc:
        raise SqlSyntaxError(str(exc)) from exc
    return parse_smo_tokens(tokens)


def parse_sql(text: str) -> Statement:
    """Parse one SQL statement."""
    try:
        return _parse_sql(TokenStream(text))
    except SmoValidationError as exc:
        raise SqlSyntaxError(str(exc)) from exc


def _parse_sql(tokens: TokenStream) -> Statement:
    verb = tokens.expect_keyword(
        "SELECT", "INSERT", "UPDATE", "DELETE", "CREATE", "DROP", "ALTER",
        "EXPLAIN",
    )

    if verb == "SELECT":
        tokens.index = 0
        select = _parse_select(tokens)
        tokens.done()
        return select

    if verb == "EXPLAIN":
        analyze = False
        if tokens.keyword_is("ANALYZE"):
            tokens.next()
            analyze = True
        select = _parse_select(tokens)
        tokens.done()
        return Explain(select, analyze)

    if verb == "INSERT":
        tokens.expect_keyword("INTO")
        table = tokens.expect_ident()
        if tokens.keyword_is("VALUES"):
            tokens.next()
            rows = [parse_literal_list(tokens)]
            while tokens.punct_is(","):
                tokens.next()
                rows.append(parse_literal_list(tokens))
            tokens.done()
            return InsertValues(table, tuple(rows))
        select = _parse_select(tokens)
        tokens.done()
        return InsertSelect(table, select)

    if verb == "UPDATE":
        table = tokens.expect_ident()
        tokens.expect_keyword("SET")
        assignments = [_parse_assignment(tokens)]
        while tokens.punct_is(","):
            tokens.next()
            assignments.append(_parse_assignment(tokens))
        where = None
        if tokens.keyword_is("WHERE"):
            tokens.next()
            where = parse_predicate(tokens)
        tokens.done()
        return Update(table, tuple(assignments), where)

    if verb == "DELETE":
        tokens.expect_keyword("FROM")
        table = tokens.expect_ident()
        where = None
        if tokens.keyword_is("WHERE"):
            tokens.next()
            where = parse_predicate(tokens)
        tokens.done()
        return Delete(table, where)

    if verb == "CREATE":
        kind = tokens.expect_keyword("TABLE", "INDEX")
        if kind == "TABLE":
            name = tokens.expect_ident()
            columns, primary_key = parse_create_columns(tokens)
            tokens.done()
            return CreateTable(TableSchema(name, columns, primary_key))
        index_name = tokens.expect_ident()
        tokens.expect_keyword("ON")
        table = tokens.expect_ident()
        columns = parse_attr_list(tokens)
        if len(columns) != 1:
            raise SqlSyntaxError("only single-column indexes are supported")
        tokens.done()
        return CreateIndex(index_name, table, columns[0])

    if verb == "DROP":
        tokens.expect_keyword("TABLE")
        name = tokens.expect_ident()
        tokens.done()
        return DropTable(name)

    # ALTER TABLE x RENAME TO y
    tokens.expect_keyword("TABLE")
    name = tokens.expect_ident()
    tokens.expect_keyword("RENAME")
    tokens.expect_keyword("TO")
    new_name = tokens.expect_ident()
    tokens.done()
    return RenameTable(name, new_name)


def iter_script_statements(text: str) -> list[str]:
    """Split a script into statement fragments.

    One character-level scan tracks string-literal state across the
    whole script: ``--`` comments (full line or trailing) are dropped
    and ``;`` terminates a statement only *outside* ``'...'`` literals
    — so a semicolon, comment marker or newline inside a string is
    data, never structure.  Returned fragments are stripped and
    non-empty.

    Shared by :meth:`repro.sql.executor.SqlExecutor.execute_script` and
    :meth:`repro.db.Session.execute_script`, so a script behaves the
    same through either entry point.
    """
    statements: list[str] = []
    current: list[str] = []

    def close() -> None:
        fragment = "".join(current).strip()
        current.clear()
        if fragment:
            statements.append(fragment)

    in_string = False
    index = 0
    length = len(text)
    while index < length:
        char = text[index]
        if char == "'":
            in_string = not in_string
            current.append(char)
        elif not in_string and text[index:index + 2] == "--":
            while index < length and text[index] != "\n":
                index += 1
            continue  # the newline itself is processed next iteration
        elif not in_string and char == ";":
            close()
        else:
            current.append(char)
        index += 1
    close()
    return statements
