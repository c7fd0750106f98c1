"""Seeded inputs for cods-e2e: tables and statement streams.

Everything the program under test receives — tables, SQL text, SMO
text, bound parameters — is produced here from ``--seed`` alone, so the
same seed gives byte-identical inputs (``digest`` pins that in the
tests) and a different seed gives different ones.

Tables
    ``F(Employee, Skill, Address, Dept, Salary, Hired)`` — the fact
    table of the read and write workloads — and the paper's
    ``R(Employee, Skill, Address)``; both carry the functional
    dependency ``Employee -> Address``.

Streams
    Lists of :class:`Op`.  ``cls`` is the statement class the latency
    is filed under (``scan_full``, ``filter_*``, ``agg_*``, ``distinct``,
    ``order_limit``, ``insert``, ``update``, ``delete``), ``sql`` and
    ``params`` are what the program is handed.
"""

from __future__ import annotations

import datetime
import hashlib
import random
from dataclasses import dataclass

import numpy as np

from repro.storage.column import BitmapColumn
from repro.storage.dictionary import Dictionary
from repro.storage.schema import ColumnSchema, TableSchema
from repro.storage.table import Table
from repro.storage.types import DataType

N_SKILLS = 100
N_ADDRESSES = 50
N_DEPTS = 20
N_SALARIES = 2000
N_HIRED = 3000
_EPOCH_DAY = datetime.date(2000, 1, 1)

#: Column values the HTAP writer uses and no generated row has, so a
#: reader can tell writer rows from base rows in any result.
WRITER_SKILL = "wskill"
WRITER_ADDRESS = "waddr"
WRITER_DEPT = 99


@dataclass(frozen=True)
class Op:
    """One statement of a stream."""

    cls: str
    sql: str
    params: tuple | None = None


class GeneratedTable:
    """Dictionary-encoded columns as generated: per column a value list
    and a row-ordered index array into it."""

    def __init__(self, name: str, columns: list, address_of):
        self.name = name
        #: ``[(column name, DataType, values, index array), ...]``
        self.columns = columns
        #: Address index of every Employee index (the dependency).
        self.address_of = address_of
        self.nrows = len(columns[0][3])
        self._table = None

    def table(self) -> Table:
        """The table as the program loads it (the bulk-load path: one
        WAH bitmap per distinct value).  Built on first use — a rep's
        set-up generates afresh, so it pays for the build; the traced
        pass's probes reuse the rep's (tables are never mutated)."""
        if self._table is None:
            schema = TableSchema(
                self.name,
                tuple(ColumnSchema(n, t) for n, t, _, _ in self.columns),
            )
            built = {
                n: BitmapColumn.from_vids(n, t, Dictionary(values), index)
                for n, t, values, index in self.columns
            }
            self._table = Table(schema, built, self.nrows)
        return self._table

    def rows(self) -> list[tuple]:
        """Row tuples in row order (what the oracle is fed)."""
        decoded = [
            np.array(values, dtype=object)[index].tolist()
            for _, _, values, index in self.columns
        ]
        return list(zip(*decoded))

    def digest(self) -> str:
        sha = hashlib.sha256(self.name.encode())
        for name, dtype, values, index in self.columns:
            sha.update(f"{name}:{dtype}:{values!r}".encode())
            sha.update(np.ascontiguousarray(index, dtype=np.int64).tobytes())
        return sha.hexdigest()


def _zipf(rng, n: int, k: int, s: float = 1.1) -> np.ndarray:
    weights = 1.0 / np.power(np.arange(1, k + 1, dtype=np.float64), s)
    cumulative = np.cumsum(weights)
    cumulative /= cumulative[-1]
    return np.searchsorted(cumulative, rng.random(n), side="left")


def _pin_all(rng, draws: np.ndarray, k: int) -> np.ndarray:
    """Make every one of the ``k`` values occur at least once."""
    if len(draws) >= k:
        draws[rng.permutation(len(draws))[:k]] = np.arange(k)
    return draws.astype(np.int64)


def employee_label(index: int) -> str:
    return f"emp{index:07d}"


def skill_label(index: int) -> str:
    return f"skill{index:03d}"


def address_label(index: int) -> str:
    return f"addr{index:03d}"


def hired_value(index: int) -> datetime.date:
    return _EPOCH_DAY + datetime.timedelta(days=index)


def salary_value(index: int) -> int:
    return 30_000 + 25 * index


def generate_f(seed: int, nrows: int) -> GeneratedTable:
    """The fact table ``F`` of ``nrows`` rows."""
    rng = np.random.default_rng([seed, 1])
    n_employees = max(2, nrows // 100)
    n_skills = min(N_SKILLS, nrows)
    employee = _pin_all(rng, rng.integers(0, n_employees, nrows), n_employees)
    skill = _pin_all(rng, _zipf(rng, nrows, n_skills), n_skills)
    address_of = rng.integers(0, N_ADDRESSES, n_employees)
    address = address_of[employee]
    dept = rng.integers(0, N_DEPTS, nrows)
    salary = rng.integers(0, N_SALARIES, nrows)
    hired = rng.integers(0, N_HIRED, nrows)
    return GeneratedTable("F", [
        ("Employee", DataType.STRING,
         [employee_label(i) for i in range(n_employees)], employee),
        ("Skill", DataType.STRING,
         [skill_label(i) for i in range(n_skills)], skill),
        ("Address", DataType.STRING,
         [address_label(i) for i in range(N_ADDRESSES)], address),
        ("Dept", DataType.INT, list(range(N_DEPTS)), dept),
        ("Salary", DataType.INT,
         [salary_value(i) for i in range(N_SALARIES)], salary),
        ("Hired", DataType.DATE,
         [hired_value(i) for i in range(N_HIRED)], hired),
    ], address_of)


def generate_r(seed: int, nrows: int, n_employees: int) -> GeneratedTable:
    """The paper's ``R(Employee, Skill, Address)`` with ``n_employees``
    distinct keys (the x-axis of Figure 3)."""
    rng = np.random.default_rng([seed, 2, n_employees])
    n_skills = min(N_SKILLS, nrows)
    employee = _pin_all(rng, rng.integers(0, n_employees, nrows), n_employees)
    skill = _pin_all(rng, rng.integers(0, n_skills, nrows), n_skills)
    address_of = rng.integers(0, N_ADDRESSES, n_employees)
    return GeneratedTable("R", [
        ("Employee", DataType.STRING,
         [employee_label(i) for i in range(n_employees)], employee),
        ("Skill", DataType.STRING,
         [skill_label(i) for i in range(n_skills)], skill),
        ("Address", DataType.STRING,
         [address_label(i) for i in range(N_ADDRESSES)], address_of[employee]),
    ], address_of)


def r_delta_rows(seed: int, table: GeneratedTable, count: int) -> list[tuple]:
    """``count`` extra rows for ``R`` that keep ``Employee -> Address``."""
    rng = random.Random(f"{seed}:rdelta:{table.nrows}")
    n_employees = len(table.columns[0][2])
    n_skills = len(table.columns[1][2])
    rows = []
    for _ in range(count):
        employee = rng.randrange(n_employees)
        rows.append((
            employee_label(employee),
            skill_label(rng.randrange(n_skills)),
            address_label(int(table.address_of[employee])),
        ))
    return rows


# ----------------------------------------------------------------------
# Statement streams over F
# ----------------------------------------------------------------------

SCAN_FULL = "SELECT * FROM F"
AGG_COUNT = "SELECT Skill, COUNT(*) FROM F GROUP BY Skill"
AGG_SUM = (
    "SELECT Dept, SUM(Salary), MIN(Salary), MAX(Salary), AVG(Salary) "
    "FROM F GROUP BY Dept"
)
AGG_TWO_KEY = "SELECT Dept, Address, COUNT(*) FROM F GROUP BY Dept, Address"
AGG_GLOBAL = "SELECT COUNT(*), SUM(Salary), MIN(Salary), MAX(Salary) FROM F"
DISTINCT = "SELECT DISTINCT Address FROM F"
ORDER_LIMIT = "SELECT Employee, Salary FROM F ORDER BY Salary LIMIT 10"
FILTER_KEY = "SELECT * FROM F WHERE Employee = ?"
FILTER_PAIR = "SELECT * FROM F WHERE Skill = ? AND Dept = ?"

INSERT = "INSERT INTO F VALUES (?, ?, ?, ?, ?, ?)"
UPDATE = "UPDATE F SET Salary = ? WHERE Employee = ? AND Skill = ?"
DELETE = "DELETE FROM F WHERE Employee = ? AND Skill = ?"

#: The kinds whose per-kind medians make up ``filter_ms_p50`` and
#: ``agg_ms_p50``.
FILTER_CLASSES = ("filter_key", "filter_pair")
AGG_CLASSES = ("agg_count", "agg_sum", "agg_two_key", "agg_global")
READ_CLASSES = (
    "scan_full", *FILTER_CLASSES, *AGG_CLASSES, "distinct", "order_limit",
)


def key_filter(rng: random.Random, table: GeneratedTable) -> Op:
    """All rows of one employee: about 100 rows of any table size."""
    n_employees = len(table.columns[0][2])
    return Op("filter_key", FILTER_KEY,
              (employee_label(rng.randrange(n_employees)),))


def pair_filter(rng: random.Random, table: GeneratedTable) -> Op:
    """A conjunction over two columns.  The 20 most frequent skills are
    excluded, so a (skill, department) pair selects well under 1 %."""
    n_skills = len(table.columns[1][2])
    return Op("filter_pair", FILTER_PAIR,
              (skill_label(rng.randrange(min(20, n_skills - 1), n_skills)),
               rng.randrange(N_DEPTS)))


def analytic_cycle(rng: random.Random, table: GeneratedTable):
    """One pass over every read class; the filters' constants rotate."""
    return [
        Op("scan_full", SCAN_FULL),
        key_filter(rng, table),
        pair_filter(rng, table),
        Op("agg_count", AGG_COUNT),
        Op("agg_sum", AGG_SUM),
        Op("agg_two_key", AGG_TWO_KEY),
        Op("agg_global", AGG_GLOBAL),
        Op("distinct", DISTINCT),
        Op("order_limit", ORDER_LIMIT),
    ]


def analytic_stream(seed: int, table: GeneratedTable, cycles: int) -> list[Op]:
    rng = random.Random(f"{seed}:analytic")
    return [
        op for _ in range(cycles) for op in analytic_cycle(rng, table)
    ]


class DmlSource:
    """DML that never fails.  The seed picks the rows and values; which
    verb comes when is a fixed schedule, so every seed costs the
    program the same kind of work: inserts of new rows keeping the
    dependency, updates and deletes addressed at the (Employee, Skill)
    pair of a row of the table — every fourth one at a pair inserted
    earlier, which lives in the delta."""

    def __init__(self, rng: random.Random, table: GeneratedTable):
        self.rng = rng
        self.table = table
        self.n_employees = len(table.columns[0][2])
        self.n_skills = len(table.columns[1][2])
        self.employee_index = table.columns[0][3]
        self.skill_index = table.columns[1][3]
        self.inserted: list[tuple[str, str]] = []
        self.targets = 0

    def insert(self) -> Op:
        rng = self.rng
        employee = rng.randrange(self.n_employees)
        skill = skill_label(rng.randrange(self.n_skills))
        self.inserted.append((employee_label(employee), skill))
        return Op("insert", INSERT, (
            employee_label(employee),
            skill,
            address_label(int(self.table.address_of[employee])),
            rng.randrange(N_DEPTS),
            salary_value(rng.randrange(N_SALARIES)),
            hired_value(rng.randrange(N_HIRED)).isoformat(),
        ))

    def _target(self) -> tuple[str, str]:
        self.targets += 1
        if self.inserted and self.targets % 4 == 0:
            return self.rng.choice(self.inserted)
        row = self.rng.randrange(self.table.nrows)
        return (
            employee_label(int(self.employee_index[row])),
            skill_label(int(self.skill_index[row])),
        )

    def update(self) -> Op:
        salary = salary_value(self.rng.randrange(N_SALARIES))
        return Op("update", UPDATE, (salary, *self._target()))

    def delete(self) -> Op:
        return Op("delete", DELETE, self._target())

    def point_filter(self) -> Op:
        return key_filter(self.rng, self.table)

    def scheduled(self, schedule: str, position: int) -> Op:
        """The statement at ``position`` of a repeating schedule of
        ``I``nsert, ``U``pdate, ``D``elete and point ``F``ilter."""
        verb = schedule[position % len(schedule)]
        return {"I": self.insert, "U": self.update, "D": self.delete,
                "F": self.point_filter}[verb]()


#: insert 70 % / update 20 % / delete 10 %
RAW_SCHEDULE = "IIUIIDIUII"
#: insert 60 % / update 20 % / delete 10 % / point filter 10 %
OLTP_SCHEDULE = "IIUIFIDIUI"


def read_after_write_stream(
    seed: int, table: GeneratedTable, pairs: int
) -> list[Op]:
    """Strictly alternating: one small DML, then the next statement of
    the analytic cycle."""
    rng = random.Random(f"{seed}:raw")
    dml = DmlSource(rng, table)
    ops: list[Op] = []
    reads: list[Op] = []
    for pair in range(pairs):
        if not reads:
            reads = analytic_cycle(rng, table)
        ops.append(dml.scheduled(RAW_SCHEDULE, pair))
        ops.append(reads.pop(0))
    return ops


def oltp_stream(seed: int, table: GeneratedTable, count: int) -> list[Op]:
    """Autocommit DML with point filters."""
    dml = DmlSource(random.Random(f"{seed}:oltp"), table)
    return [dml.scheduled(OLTP_SCHEDULE, number) for number in range(count)]


WRITER_ROWS_PER_TXN = 6


def writer_transactions(seed: int, count: int) -> list[list[Op]]:
    """Read-your-writes transactions of eight statements: six inserts
    under a key of the transaction's own, a filter that must return
    exactly those six rows, and an update of them."""
    rng = random.Random(f"{seed}:writer")
    transactions = []
    for number in range(count):
        key = f"w{number:07d}"
        ops = [
            Op("insert", INSERT, (
                key, WRITER_SKILL, WRITER_ADDRESS, WRITER_DEPT,
                salary_value(rng.randrange(N_SALARIES)),
                hired_value(rng.randrange(N_HIRED)).isoformat(),
            ))
            for _ in range(WRITER_ROWS_PER_TXN)
        ]
        ops.append(Op("filter_own", FILTER_KEY, (key,)))
        ops.append(Op("update", "UPDATE F SET Salary = ? WHERE Employee = ?",
                      (salary_value(rng.randrange(N_SALARIES)), key)))
        transactions.append(ops)
    return transactions


def reader_stream(seed: int, table: GeneratedTable, count: int) -> list[Op]:
    """The HTAP reader: filters and aggregates in turn, no full scan."""
    rng = random.Random(f"{seed}:reader")
    kinds = (
        lambda: key_filter(rng, table),
        lambda: Op("agg_count", AGG_COUNT),
        lambda: pair_filter(rng, table),
        lambda: Op("agg_sum", AGG_SUM),
        lambda: key_filter(rng, table),
        lambda: Op("agg_global", AGG_GLOBAL),
    )
    return [kinds[i % len(kinds)]() for i in range(count)]


def stream_digest(ops) -> str:
    sha = hashlib.sha256()
    for op in ops:
        sha.update(repr((op.cls, op.sql, op.params)).encode())
    return sha.hexdigest()


# ----------------------------------------------------------------------
# The Table 1 sequence over R
# ----------------------------------------------------------------------

#: ``(operator name, statement)`` in execution order.  Every one of the
#: paper's eleven operators occurs; DROP TABLE occurs twice and its
#: per-operator cost is the sum.
SMO_SEQUENCE = (
    ("create_table", "CREATE TABLE Fresh (a INT, b STRING)"),
    ("copy_table", "COPY TABLE R TO Rc"),
    ("rename_table", "RENAME TABLE Rc TO Rd"),
    ("add_column", "ADD COLUMN Country STRING TO Rd DEFAULT 'US'"),
    ("rename_column", "RENAME COLUMN Country TO Nation IN Rd"),
    ("drop_column", "DROP COLUMN Nation FROM Rd"),
    ("partition", "PARTITION TABLE Rd INTO Rt, Rf WHERE Skill < 'skill050'"),
    ("union", "UNION TABLES Rt, Rf INTO Ru"),
    ("decompose",
     "DECOMPOSE TABLE R INTO S (Employee, Skill), T (Employee, Address)"),
    ("merge", "MERGE TABLES S, T INTO R2 ON (Employee)"),
    ("drop_table", "DROP TABLE Ru"),
    ("drop_table", "DROP TABLE Fresh"),
)
SMO_OPERATORS = tuple(dict.fromkeys(name for name, _ in SMO_SEQUENCE))
