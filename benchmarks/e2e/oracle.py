"""The oracle: ``repro.baselines.row_sqlite`` fed the same inputs.

Results are compared as digests so a workload keeps one small value per
statement instead of the rows: a multiset digest (row count plus the
sum of the row hashes) for every SELECT, the exact key sequence for
ORDER BY ... LIMIT, and the affected-row count for DML.  Python salts
string hashes per process, which is fine — the program's rows and the
oracle's are digested in the same process.
"""

from __future__ import annotations

import datetime

from repro.baselines.row_sqlite import SqliteEvolution
from repro.smo.parser import parse_smo
from repro.storage.schema import ColumnSchema, TableSchema

_MASK = (1 << 64) - 1
_SQLITE_TYPES = {"INT": "INTEGER", "STRING": "TEXT", "DATE": "TEXT"}


def multiset_digest(rows) -> tuple[int, int]:
    return (len(rows), sum(map(hash, rows)) & _MASK)


def ordered_digest(rows, key_index: int):
    """ORDER BY with LIMIT: the key sequence must match exactly; rows
    tied with the last key may legitimately differ between engines, so
    only the rows before that tie are compared as a multiset."""
    keys = tuple(row[key_index] for row in rows)
    body = [row for row in rows if row[key_index] != keys[-1]] if keys else []
    return (keys, multiset_digest(body))


def result_digest(op, result):
    """The digest of what the program returned for ``op``."""
    if not isinstance(result, list):
        return result
    if op.cls == "order_limit":
        return ordered_digest(result, 1)
    return multiset_digest(result)


class Oracle:
    """SQLite holding the generated tables."""

    def __init__(self, *generated):
        self.system = SqliteEvolution()
        self.connection = self.system.connection
        for table in generated:
            self.load(table)

    def load(self, generated) -> None:
        columns = ", ".join(
            f'"{name}" {_SQLITE_TYPES[dtype.name]}'
            for name, dtype, _, _ in generated.columns
        )
        self.connection.execute(f'CREATE TABLE "{generated.name}" ({columns})')
        marks = ", ".join("?" for _ in generated.columns)
        self.connection.executemany(
            f'INSERT INTO "{generated.name}" VALUES ({marks})',
            (self._to_sqlite(row) for row in generated.rows()),
        )
        self.connection.execute(
            f'CREATE INDEX "ix_{generated.name}" ON '
            f'"{generated.name}" ("Employee")'
        )
        self.connection.commit()
        self.system.schemas[generated.name] = TableSchema(
            generated.name,
            tuple(ColumnSchema(n, t) for n, t, _, _ in generated.columns),
        )

    @staticmethod
    def _to_sqlite(row) -> tuple:
        return tuple(
            v.isoformat() if isinstance(v, datetime.date) else v for v in row
        )

    def insert_rows(self, name: str, rows) -> None:
        marks = ", ".join("?" for _ in rows[0])
        self.connection.executemany(
            f'INSERT INTO "{name}" VALUES ({marks})', rows
        )

    def rows(self, sql: str, params=()) -> list[tuple]:
        """A SELECT's rows with ``Hired`` back as dates, so they hash
        like the program's."""
        cursor = self.connection.execute(sql, params or ())
        rows = cursor.fetchall()
        dates = [
            i for i, column in enumerate(cursor.description)
            if column[0] == "Hired"
        ]
        for position in dates:
            parse = datetime.date.fromisoformat
            rows = [
                row[:position] + (parse(row[position]),) + row[position + 1:]
                for row in rows
            ]
        return rows

    def run(self, op):
        """Execute one stream statement; the digest the program's
        result must have."""
        if op.cls in ("insert", "update", "delete"):
            return self.connection.execute(op.sql, op.params or ()).rowcount
        return result_digest(op, self.rows(op.sql, op.params))

    def replay(self, ops) -> list:
        """Digests for a whole stream.  Identical reads between two
        writes are answered once."""
        cache: dict = {}
        expected = []
        for op in ops:
            if op.cls in ("insert", "update", "delete"):
                cache.clear()
                expected.append(self.run(op))
                continue
            key = (op.sql, op.params)
            if key not in cache:
                cache[key] = self.run(op)
            expected.append(cache[key])
        return expected

    def table_digest(self, name: str) -> tuple[int, int]:
        return multiset_digest(self.rows(f'SELECT * FROM "{name}"'))

    def apply_smo(self, text: str) -> None:
        self.system.apply(parse_smo(text))

    def declare_fd(self, fd) -> None:
        self.system.declare_fd(fd)

    def close(self) -> None:
        self.system.close()
