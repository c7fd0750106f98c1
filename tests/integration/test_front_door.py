"""The statement front door: every statement is bound and parsed once,
then routed by its parsed type — in process (`Session`, `Cursor`,
`Transaction`) and over the wire (`repro.server`).

Pins the behaviours the single tokenizer pass guarantees: string values
round-trip byte for byte (a ``*`` inside a literal is data, never
syntax), syntax errors quote the caller's own text, dates bind as
parameters, and no path parses a statement twice.
"""

from __future__ import annotations

import datetime

import pytest

from repro.client import connect
from repro.db import Database
from repro.delta import CompactionPolicy
from repro.errors import SqlSyntaxError
from repro.server import CodsServer
from repro.smo.parser import TokenStream

pytestmark = pytest.mark.timeout(120)

#: Values a scanner that ignores string literals would corrupt.
TRICKY_STRINGS = (
    "select *", "count(*)", "SELECT DISTINCT *", "a*b", "what?", "it's",
    "a;b", "a--b", "COUNT ( * )",
)


@pytest.fixture()
def served():
    db = Database()
    server = CodsServer(db, "127.0.0.1", 0)
    server.start()
    try:
        yield db, server
    finally:
        server.stop()


def literal(value: str) -> str:
    return "'" + value.replace("'", "''") + "'"


def round_trip(run, value: str, bound: bool) -> list:
    """INSERT ``value`` and select it back by ``WHERE s = value``,
    either bound as a parameter or written as a literal."""
    run("CREATE TABLE t (k INT, s STRING)", None)
    if bound:
        run("INSERT INTO t VALUES (?, ?)", (1, value))
        return run("SELECT * FROM t WHERE s = ?", (value,))
    run(f"INSERT INTO t VALUES (1, {literal(value)})", None)
    return run(f"SELECT * FROM t WHERE s = {literal(value)}", None)


class TestStringsRoundTrip:
    @pytest.mark.parametrize("bound", [True, False], ids=["bound", "literal"])
    @pytest.mark.parametrize("value", TRICKY_STRINGS)
    def test_in_process(self, value, bound):
        db = Database()
        rows = round_trip(db.execute, value, bound)
        assert rows == [(1, value)]
        assert db.execute("SELECT s FROM t") == [(value,)]

    @pytest.mark.parametrize("bound", [True, False], ids=["bound", "literal"])
    @pytest.mark.parametrize("value", ["select *", "count(*)", "it's"])
    def test_over_the_wire(self, served, value, bound):
        _db, server = served
        with connect(*server.address) as conn:
            rows = round_trip(conn.execute, value, bound)
            assert rows == [(1, value)]

    def test_executemany_keeps_star_strings(self):
        db = Database()
        db.execute("CREATE TABLE t (k INT, s STRING)")
        db.executemany(
            "INSERT INTO t VALUES (?, ?)", [(1, "select *"), (2, "count(*)")]
        )
        assert db.execute("SELECT * FROM t") == [
            (1, "select *"), (2, "count(*)"),
        ]

    def test_star_forms_still_parse(self):
        db = Database()
        db.execute("CREATE TABLE t (k INT, s STRING)")
        db.execute("INSERT INTO t VALUES (1, 'a'), (2, 'a')")
        assert db.execute("select distinct * from t") == [(1, "a"), (2, "a")]
        assert db.execute("SELECT COUNT( * ) FROM t") == [(2,)]
        db.execute("CREATE TABLE u (k INT, s STRING)")
        assert db.execute("INSERT INTO u SELECT * FROM t") == 2
        with pytest.raises(SqlSyntaxError, match=r"SUM\(\*\) is not supported"):
            db.execute("SELECT SUM(*) FROM t")


class TestSyntaxErrors:
    """The shared tokenizer speaks of statements and quotes the
    caller's own text, whichever grammar the statement reaches."""

    def test_end_of_input(self):
        with pytest.raises(SqlSyntaxError) as info:
            Database().execute("SELECT * FROM")
        assert str(info.value) == "unexpected end of statement: 'SELECT * FROM'"

    def test_trailing_tokens(self):
        db = Database()
        db.execute("CREATE TABLE t (k INT)")
        with pytest.raises(SqlSyntaxError) as info:
            db.execute("SELECT * FROM t extra")
        assert str(info.value) == (
            "unexpected trailing tokens in statement: 'SELECT * FROM t extra'"
        )

    def test_untokenizable_character(self):
        with pytest.raises(SqlSyntaxError) as info:
            Database().execute("SELECT k FROM t WHERE k = #1")
        assert str(info.value) == (
            "cannot tokenize statement near '#1' in "
            "'SELECT k FROM t WHERE k = #1'"
        )


class TestDateParameters:
    DAY = datetime.date(2001, 2, 3)

    def run(self, execute):
        execute("CREATE TABLE d (k INT, day DATE)", None)
        execute("INSERT INTO d VALUES (?, ?)", (1, self.DAY))
        execute("INSERT INTO d VALUES (?, ?)", (2, datetime.date(2001, 2, 4)))
        return execute("SELECT * FROM d WHERE day = ?", (self.DAY,))

    def test_in_process(self):
        assert self.run(Database().execute) == [(1, self.DAY)]

    def test_over_the_wire(self, served):
        _db, server = served
        with connect(*server.address) as conn:
            assert self.run(conn.execute) == [(1, self.DAY)]

    def test_literals_compare_as_their_column_type(self):
        """A WHERE literal is coerced to its column's type once per
        statement, so the buffered delta answers like the compressed
        main store (which always coerced) instead of comparing a date
        with a string."""
        db = Database(policy=CompactionPolicy.never())
        db.execute("CREATE TABLE d (k INT, day DATE)")
        db.execute("INSERT INTO d VALUES (1, '2001-02-03'), (2, '2001-02-05')")
        for _ in ("delta", "main"):
            assert db.execute("SELECT k FROM d WHERE day < '2001-02-04'") == [(1,)]
            assert db.execute("SELECT k FROM d WHERE k IN ('2')") == [(2,)]
            with db.transaction(read_only=True) as tx:
                assert tx.execute("SELECT k FROM d WHERE day = ?", (self.DAY,)) == [(1,)]
            db.compact("d")
        assert db.execute("UPDATE d SET k = 3 WHERE day = '2001-02-05'") == 1
        assert db.execute("DELETE FROM d WHERE day >= '2001-02-04'") == 1
        assert db.execute("SELECT * FROM d") == [(1, self.DAY)]


@pytest.fixture()
def parses(monkeypatch):
    """Count tokenizer passes — one per statement parse, SQL or SMO."""
    calls = []
    original = TokenStream.__init__

    def counting(self, text):
        calls.append(text)
        original(self, text)

    monkeypatch.setattr(TokenStream, "__init__", counting)
    return calls


def seeded() -> Database:
    db = Database()
    db.execute_script(
        "CREATE TABLE r (k INT, s STRING); INSERT INTO r VALUES (1, 'a')"
    )
    return db


class TestOneParsePerStatement:
    def test_session(self, parses):
        db = seeded()
        parses.clear()
        db.execute("INSERT INTO r VALUES (?, ?)", (2, "b"))
        db.execute("SELECT * FROM r WHERE k = ?", (2,))
        db.execute("COPY TABLE r TO r2")
        db.execute("CREATE TABLE q (k INT)")
        assert len(parses) == 4

    def test_script_parses_each_fragment_once(self, parses):
        db = Database()
        parses.clear()
        db.execute_script(
            "CREATE TABLE r (k INT); INSERT INTO r VALUES (1); "
            "ADD COLUMN c INT TO r DEFAULT 0; SELECT * FROM r"
        )
        assert len(parses) == 4

    def test_cursor(self, parses):
        db = seeded()
        parses.clear()
        cursor = db.cursor()
        cursor.execute("SELECT * FROM r WHERE k = ?", (1,))
        assert cursor.description[0][0] == "k"
        cursor.execute("EXPLAIN SELECT * FROM r")
        cursor.execute("INSERT INTO r VALUES (5, 'e')")
        assert cursor.rowcount == 1
        assert len(parses) == 3

    def test_transaction_including_commit(self, parses):
        db = seeded()
        parses.clear()
        with db.transaction() as tx:
            tx.execute("INSERT INTO r VALUES (?, ?)", (2, "b"))
            tx.execute("UPDATE r SET s = 'z' WHERE k = 1")
            assert len(tx.execute("SELECT * FROM r")) == 2
        assert len(parses) == 3  # the commit parses nothing
        assert sorted(db.execute("SELECT * FROM r")) == [(1, "z"), (2, "b")]

    def test_server_autocommit(self, served, parses):
        _db, server = served
        with connect(*server.address) as conn:
            conn.execute("CREATE TABLE r (k INT)")
            conn.execute("INSERT INTO r VALUES (?)", (1,))
            assert conn.execute("SELECT * FROM r") == [(1,)]
            conn.execute("ADD COLUMN c INT TO r DEFAULT 0")
            assert len(parses) == 4

    def test_server_transaction(self, served, parses):
        db, server = served
        db.execute("CREATE TABLE r (k INT)")
        parses.clear()
        with connect(*server.address) as conn:
            with conn.transaction() as tx:
                tx.execute("INSERT INTO r VALUES (?)", (1,))
                assert tx.execute("SELECT * FROM r") == [(1,)]
            assert len(parses) == 2  # INSERT + SELECT; commit parses nothing
        assert db.execute("SELECT * FROM r") == [(1,)]
