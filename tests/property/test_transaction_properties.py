"""Two interleaved transactions against a serial oracle.

Two scopes pin the same table, then run INSERT / UPDATE / DELETE
statements in a random interleaving on shared keys, with an optional
``compact()`` from outside between any two of them, and another
between the two commits.  Commit runs in a random order.  Oracle: every outcome equals one of the two serial
orders of the scopes, or the second committer raised
``TransactionConflict`` and applied nothing.

The model tracks which pinned rows each scope deleted (an UPDATE
deletes the old image): the second commit must conflict exactly when
the two scopes share such a victim (first committer wins), so the
oracle cannot pass by conflicting too eagerly.

Predicates select by key and UPDATEs assign ``v`` only, and each scope
inserts keys of its own: a scope's statements then never match rows
the other one inserts, which keeps snapshot isolation serializable
here (an insert matching the other scope's predicate would be the
phantom rule of ``docs/migration.md``, not a serial order).
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Database
from repro.delta import CompactionPolicy
from repro.errors import TransactionConflict

SHARED_KEYS = (0, 1, 2, 3)
OWN_KEYS = {"A": (10, 11), "B": (20, 21)}


def predicates(scope):
    keys = SHARED_KEYS + OWN_KEYS[scope]
    return st.one_of(
        st.sampled_from(keys).map(lambda k: ("=", k)),
        st.just(("<", 2)),
    )


def statements(scope):
    return st.one_of(
        st.tuples(
            st.just("insert"), st.sampled_from(OWN_KEYS[scope]),
            st.integers(0, 9),
        ),
        st.tuples(st.just("update"), predicates(scope), st.integers(0, 9)),
        st.tuples(st.just("delete"), predicates(scope)),
    )


def matches(predicate, k) -> bool:
    op, value = predicate
    return k == value if op == "=" else k < value


def sql(statement) -> tuple[str, tuple]:
    kind = statement[0]
    if kind == "insert":
        return "INSERT INTO t VALUES (?, ?)", statement[1:]
    (op, value) = statement[1]
    where = f" WHERE k {op} ?"
    if kind == "update":
        return "UPDATE t SET v = ?" + where, (statement[2], value)
    return "DELETE FROM t" + where, (value,)


class Model:
    """The table as ``{row id: (k, v)}``; pinned rows keep the ids
    they had at the pin."""

    def __init__(self, rows: dict):
        self.rows = dict(rows)
        self._ids = itertools.count(1000)

    def apply(self, statement) -> int:
        kind = statement[0]
        if kind == "insert":
            self.rows[next(self._ids)] = statement[1:]
            return 1
        victims = [
            row_id for row_id, (k, _v) in self.rows.items()
            if matches(statement[1], k)
        ]
        for row_id in victims:
            k, _v = self.rows.pop(row_id)
            if kind == "update":
                self.rows[next(self._ids)] = (k, statement[2])
        return len(victims)

    def state(self) -> list:
        return sorted(self.rows.values())


def serial(pinned: dict, *scripts) -> list:
    model = Model(pinned)
    for script in scripts:
        for statement in script:
            model.apply(statement)
    return model.state()


def pinned_victims(pinned: dict, script) -> set:
    model = Model(pinned)
    for statement in script:
        model.apply(statement)
    return set(pinned) - set(model.rows)


@settings(max_examples=150, deadline=None)
@given(
    main_rows=st.lists(
        st.tuples(st.sampled_from(SHARED_KEYS), st.integers(0, 9)),
        max_size=6,
    ),
    delta_rows=st.lists(
        st.tuples(st.sampled_from(SHARED_KEYS), st.integers(0, 9)),
        max_size=4,
    ),
    script_a=st.lists(statements("A"), min_size=1, max_size=5),
    script_b=st.lists(statements("B"), min_size=1, max_size=5),
    schedule=st.lists(st.sampled_from("AB"), max_size=10),
    compact_at=st.one_of(st.none(), st.integers(0, 10)),
    a_commits_first=st.booleans(),
    fold_between_commits=st.booleans(),
)
def test_interleaved_scopes_match_a_serial_order(
    main_rows, delta_rows, script_a, script_b, schedule, compact_at,
    a_commits_first, fold_between_commits,
):
    db = Database(policy=CompactionPolicy.never())
    db.execute("CREATE TABLE t (k INT, v INT)")
    if main_rows:
        db.executemany("INSERT INTO t VALUES (?, ?)", main_rows)
        db.compact("t")
    if delta_rows:
        db.executemany("INSERT INTO t VALUES (?, ?)", delta_rows)
    pinned = dict(enumerate(main_rows + delta_rows))

    scripts = {"A": script_a, "B": script_b}
    scopes = {name: db.transaction().begin() for name in scripts}
    models = {name: Model(pinned) for name in scripts}
    # The schedule interleaves the scripts; whatever it leaves over
    # runs afterwards, A's then B's.
    left = {name: len(script) for name, script in scripts.items()}
    order = []
    for name in schedule:
        if left[name]:
            left[name] -= 1
            order.append(name)
    order += ["A"] * left["A"] + ["B"] * left["B"]
    cursors = {name: iter(script) for name, script in scripts.items()}
    for step, name in enumerate(order):
        if step == compact_at:
            db.compact("t")
        statement = next(cursors[name])
        text, params = sql(statement)
        # Each scope reads its own writes: the statement's count is
        # the model's.
        assert scopes[name].execute(text, params) == models[name].apply(
            statement
        )
        assert sorted(scopes[name].execute("SELECT * FROM t")) == (
            models[name].state()
        )
    if compact_at == len(order):
        db.compact("t")

    first, second = ("A", "B") if a_commits_first else ("B", "A")
    scopes[first].commit()
    if fold_between_commits:
        db.compact("t")  # drops the rows the first commit deleted
    conflict = bool(
        pinned_victims(pinned, script_a) & pinned_victims(pinned, script_b)
    )
    if conflict:
        with pytest.raises(TransactionConflict):
            scopes[second].commit()
        assert scopes[second].state == "rolled-back"
        assert sorted(db.execute("SELECT * FROM t")) == serial(
            pinned, scripts[first]
        )
    else:
        scopes[second].commit()
        assert sorted(db.execute("SELECT * FROM t")) in (
            serial(pinned, script_a, script_b),
            serial(pinned, script_b, script_a),
        )
