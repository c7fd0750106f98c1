"""Parser for the textual SMO language.

The demo UI (paper Figure 4) lets users specify schema modification
operators; this module provides the textual equivalent.  Grammar (case
insensitive keywords, identifiers and literals as in SQL):

    DECOMPOSE TABLE R INTO S (A, B), T (A, C)
    MERGE TABLES S, T INTO R [ON (A [, B ...])]
    CREATE TABLE R (A INT, B STRING [, ...] [, KEY (A [, ...])])
    DROP TABLE R
    RENAME TABLE R TO R2
    COPY TABLE R TO R2
    UNION TABLES R1, R2 INTO R3
    PARTITION TABLE R INTO R1, R2 WHERE <predicate>
    ADD COLUMN C INT TO R [DEFAULT <literal>]
    DROP COLUMN C FROM R
    RENAME COLUMN C TO D IN R

Predicates support comparisons (=, !=, <>, <, <=, >, >=), IN lists,
AND/OR/NOT and parentheses.
"""

from __future__ import annotations

import datetime
import decimal
import math
import re

from repro.errors import SmoValidationError
from repro.smo.ops import (
    AddColumn,
    CopyTable,
    CreateTable,
    DecomposeTable,
    DropColumn,
    DropTable,
    MergeTables,
    PartitionTable,
    RenameColumn,
    RenameTable,
    SchemaModificationOperator,
    UnionTables,
)
from repro.smo.predicate import And, Comparison, Not, Or, Predicate
from repro.storage.schema import ColumnSchema, TableSchema
from repro.storage.types import parse_type_name

_TOKEN_RE = re.compile(
    r"""
    \s*(?:
        (?P<number>-?\d+\.\d+|-?\d+)
      | (?P<string>'(?:[^']|'')*')
      | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<op><=|>=|!=|<>|=|<|>)
      | (?P<punct>[(),*])
    )
    """,
    re.VERBOSE,
)


class TokenStream:
    """A tiny cursor over one statement's tokens (surrounding
    whitespace and a trailing ``;`` are not part of the statement).
    Shared with the SQL grammar, so a WHERE clause means the same in
    an SMO and in SQL."""

    def __init__(self, text: str):
        text = text.strip().rstrip(";")
        self.text = text
        self.tokens: list[tuple[str, str]] = []
        position = 0
        while position < len(text):
            match = _TOKEN_RE.match(text, position)
            if match is None:
                rest = text[position:].lstrip()
                if rest:
                    raise SmoValidationError(
                        f"cannot tokenize statement near {rest[:20]!r} "
                        f"in {text!r}"
                    )
                break
            position = match.end()
            for kind in ("number", "string", "ident", "op", "punct"):
                value = match.group(kind)
                if value is not None:
                    self.tokens.append((kind, value))
                    break
        self.index = 0

    def peek(self) -> tuple[str, str] | None:
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return None

    def next(self) -> tuple[str, str]:
        token = self.peek()
        if token is None:
            raise SmoValidationError(f"unexpected end of statement: {self.text!r}")
        self.index += 1
        return token

    def expect_keyword(self, *words: str) -> str:
        kind, value = self.next()
        if kind != "ident" or value.upper() not in words:
            raise SmoValidationError(
                f"expected {'/'.join(words)}, found {value!r} in {self.text!r}"
            )
        return value.upper()

    def expect_punct(self, symbol: str) -> None:
        kind, value = self.next()
        if kind != "punct" or value != symbol:
            raise SmoValidationError(
                f"expected {symbol!r}, found {value!r} in {self.text!r}"
            )

    def expect_ident(self) -> str:
        kind, value = self.next()
        if kind != "ident":
            raise SmoValidationError(
                f"expected identifier, found {value!r} in {self.text!r}"
            )
        return value

    def keyword_is(self, word: str) -> bool:
        token = self.peek()
        return (
            token is not None
            and token[0] == "ident"
            and token[1].upper() == word
        )

    def punct_is(self, symbol: str) -> bool:
        token = self.peek()
        return token is not None and token[0] == "punct" and token[1] == symbol

    def done(self) -> None:
        if self.peek() is not None:
            raise SmoValidationError(
                f"unexpected trailing tokens in statement: {self.text!r}"
            )


def literal_value(kind: str, value: str):
    if kind == "number":
        return float(value) if "." in value else int(value)
    if kind == "string":
        return value[1:-1].replace("''", "'")
    if kind == "ident":
        upper = value.upper()
        if upper == "TRUE":
            return True
        if upper == "FALSE":
            return False
        if upper == "NULL":
            return None
    raise SmoValidationError(f"expected a literal, found {value!r}")


def parse_attr_list(tokens: TokenStream) -> tuple[str, ...]:
    """``( name [, name …] )`` — shared with the SQL grammar."""
    tokens.expect_punct("(")
    attrs = [tokens.expect_ident()]
    while tokens.punct_is(","):
        tokens.next()
        attrs.append(tokens.expect_ident())
    tokens.expect_punct(")")
    return tuple(attrs)


def parse_literal_list(tokens: TokenStream) -> tuple:
    """``( literal [, literal …] )`` — an IN list, or a VALUES row."""
    tokens.expect_punct("(")
    values = [literal_value(*tokens.next())]
    while tokens.punct_is(","):
        tokens.next()
        values.append(literal_value(*tokens.next()))
    tokens.expect_punct(")")
    return tuple(values)


def parse_predicate(tokens: TokenStream) -> Predicate:
    """Parse OR-precedence predicate expression."""
    return _parse_or(tokens)


def _parse_or(tokens: TokenStream) -> Predicate:
    left = _parse_and(tokens)
    while tokens.keyword_is("OR"):
        tokens.next()
        left = Or(left, _parse_and(tokens))
    return left


def _parse_and(tokens: TokenStream) -> Predicate:
    left = _parse_not(tokens)
    while tokens.keyword_is("AND"):
        tokens.next()
        left = And(left, _parse_not(tokens))
    return left


def _parse_not(tokens: TokenStream) -> Predicate:
    if tokens.keyword_is("NOT"):
        tokens.next()
        return Not(_parse_not(tokens))
    return _parse_atom(tokens)


def _parse_atom(tokens: TokenStream) -> Predicate:
    if tokens.punct_is("("):
        tokens.next()
        inner = _parse_or(tokens)
        tokens.expect_punct(")")
        return inner
    attr = tokens.expect_ident()
    if tokens.keyword_is("IN"):
        tokens.next()
        return Comparison(attr, "IN", parse_literal_list(tokens))
    kind, op = tokens.next()
    if kind != "op":
        raise SmoValidationError(f"expected comparison operator after {attr!r}")
    if op == "<>":
        op = "!="
    kind, value = tokens.next()
    return Comparison(attr, op, literal_value(kind, value))


def parse_create_columns(tokens: TokenStream):
    """``( name TYPE [, …] [, KEY (…)] )`` — shared with SQL's CREATE
    TABLE."""
    tokens.expect_punct("(")
    columns = []
    primary_key: tuple[str, ...] = ()
    while True:
        name = tokens.expect_ident()
        if name.upper() == "KEY":
            primary_key = parse_attr_list(tokens)
        else:
            type_name = tokens.expect_ident()
            columns.append(ColumnSchema(name, parse_type_name(type_name)))
        if tokens.punct_is(","):
            tokens.next()
            continue
        break
    tokens.expect_punct(")")
    return tuple(columns), primary_key


def parse_smo(text: str) -> SchemaModificationOperator:
    """Parse one SMO statement into its operator object."""
    return parse_smo_tokens(TokenStream(text))


def parse_smo_tokens(tokens: TokenStream) -> SchemaModificationOperator:
    """Parse one SMO statement from its tokenized form (the entry
    :func:`repro.sql.parser.parse_statement` routes SMO verbs to)."""
    verb = tokens.expect_keyword(
        "DECOMPOSE", "MERGE", "CREATE", "DROP", "RENAME", "COPY", "UNION",
        "PARTITION", "ADD",
    )

    if verb == "DECOMPOSE":
        tokens.expect_keyword("TABLE")
        table = tokens.expect_ident()
        tokens.expect_keyword("INTO")
        left_name = tokens.expect_ident()
        left_attrs = parse_attr_list(tokens)
        tokens.expect_punct(",")
        right_name = tokens.expect_ident()
        right_attrs = parse_attr_list(tokens)
        tokens.done()
        return DecomposeTable(table, left_name, left_attrs, right_name, right_attrs)

    if verb == "MERGE":
        tokens.expect_keyword("TABLES")
        left = tokens.expect_ident()
        tokens.expect_punct(",")
        right = tokens.expect_ident()
        tokens.expect_keyword("INTO")
        out = tokens.expect_ident()
        join: tuple[str, ...] = ()
        if tokens.keyword_is("ON"):
            tokens.next()
            join = parse_attr_list(tokens)
        tokens.done()
        return MergeTables(left, right, out, join)

    if verb == "CREATE":
        tokens.expect_keyword("TABLE")
        name = tokens.expect_ident()
        columns, primary_key = parse_create_columns(tokens)
        tokens.done()
        return CreateTable(TableSchema(name, columns, primary_key))

    if verb == "DROP":
        kind = tokens.expect_keyword("TABLE", "COLUMN")
        if kind == "TABLE":
            table = tokens.expect_ident()
            tokens.done()
            return DropTable(table)
        column = tokens.expect_ident()
        tokens.expect_keyword("FROM")
        table = tokens.expect_ident()
        tokens.done()
        return DropColumn(table, column)

    if verb == "RENAME":
        kind = tokens.expect_keyword("TABLE", "COLUMN")
        if kind == "TABLE":
            table = tokens.expect_ident()
            tokens.expect_keyword("TO")
            new_name = tokens.expect_ident()
            tokens.done()
            return RenameTable(table, new_name)
        column = tokens.expect_ident()
        tokens.expect_keyword("TO")
        new_name = tokens.expect_ident()
        tokens.expect_keyword("IN")
        table = tokens.expect_ident()
        tokens.done()
        return RenameColumn(table, column, new_name)

    if verb == "COPY":
        tokens.expect_keyword("TABLE")
        table = tokens.expect_ident()
        tokens.expect_keyword("TO")
        new_name = tokens.expect_ident()
        tokens.done()
        return CopyTable(table, new_name)

    if verb == "UNION":
        tokens.expect_keyword("TABLES")
        left = tokens.expect_ident()
        tokens.expect_punct(",")
        right = tokens.expect_ident()
        tokens.expect_keyword("INTO")
        out = tokens.expect_ident()
        tokens.done()
        return UnionTables(left, right, out)

    if verb == "PARTITION":
        tokens.expect_keyword("TABLE")
        table = tokens.expect_ident()
        tokens.expect_keyword("INTO")
        true_name = tokens.expect_ident()
        tokens.expect_punct(",")
        false_name = tokens.expect_ident()
        tokens.expect_keyword("WHERE")
        predicate = parse_predicate(tokens)
        tokens.done()
        return PartitionTable(table, true_name, false_name, predicate)

    # ADD COLUMN
    tokens.expect_keyword("COLUMN")
    column_name = tokens.expect_ident()
    type_name = tokens.expect_ident()
    tokens.expect_keyword("TO")
    table = tokens.expect_ident()
    default = None
    if tokens.keyword_is("DEFAULT"):
        tokens.next()
        kind, value = tokens.next()
        default = literal_value(kind, value)
    tokens.done()
    return AddColumn(
        table, ColumnSchema(column_name, parse_type_name(type_name)), default
    )


def render_literal(value) -> str:
    """One Python value as literal text of the shared grammar — the
    inverse of :func:`literal_value`.  Used by parameter binding
    (:mod:`repro.db`) and SQL-statement generation
    (:mod:`repro.workload`)."""
    if value is None:
        return "NULL"
    if value is True:
        return "TRUE"
    if value is False:
        return "FALSE"
    if isinstance(value, int):
        return repr(value)
    if isinstance(value, float):
        # The tokenizer has no exponent form, so 1e20 must render as
        # plain digits (losslessly, via the repr round-trip decimal).
        if not math.isfinite(value):
            raise SmoValidationError(
                f"cannot render non-finite float {value!r}"
            )
        text = format(decimal.Decimal(repr(value)), "f")
        return text if "." in text else text + ".0"
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    if isinstance(value, datetime.date) and not isinstance(
        value, datetime.datetime
    ):
        # No date token: the ISO string literal is what DATE coercion
        # parses.
        return "'" + value.isoformat() + "'"
    raise SmoValidationError(
        f"cannot render a literal of type {type(value).__name__}"
    )

