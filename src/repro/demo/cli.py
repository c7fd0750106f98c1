"""Interactive demo mirroring the paper's Figure 4 workflow.

The original demonstration is a GUI with buttons for *create/drop
table*, *load data*, *display table*, adding schema modification
operators, *execution*, and a live "Data Evolution Status" pane.  This
CLI provides the same workflow (plus a scripted mode for automation):

    $ cods-demo                 # interactive session
    $ cods-demo --example       # run the built-in Figure 1 walkthrough
    $ cods-demo --script f.smo  # one SMO per line, checked as one plan
"""

from __future__ import annotations

import argparse
import sys

from repro.db import Database
from repro.delta import CompactionPolicy
from repro.errors import CodsError
from repro.smo.parser import parse_smo
from repro.smo.plan import EvolutionPlan
from repro.storage.csvio import load_csv
from repro.storage.table import Table, table_from_python
from repro.storage.types import DataType

_HELP = """\
Commands (mirroring the Figure 4 buttons):
  create <SMO>        e.g. create CREATE TABLE R (A INT, B STRING)
  load <csv> [name]   load a CSV file into a table
  display <table>     show a table's rows (first 20)
  tables              list tables (the schema pane)
  add <SMO>           queue a schema modification operator, checked
                      against the schemas the queue will leave
  queue               show queued operators
  execute             run the queued operators (with live status)
  history             show the evolution history
  sql <statement>     run one SQL or SMO statement via the repro.db facade
                      (SELECTs execute on the vectorized batch pipeline;
                      sql INSERT INTO … / sql DELETE FROM … buffer
                      writes in the table's delta)
  compact <t>         fold the delta into fresh WAH columns
  deltastat [t]       show main/delta statistics
  explain <SELECT>    show the query plan (no execution)
  stats [fmt]         dump the metrics registry (fmt: json | prometheus)
  example             load the paper's Figure 1 table R
  help                this text
  quit                exit\
"""


def figure1_table() -> Table:
    """The exact 7-row table R of the paper's Figure 1."""
    return table_from_python(
        "R",
        {
            "Employee": (
                DataType.STRING,
                ["Jones", "Jones", "Roberts", "Ellis", "Jones", "Ellis",
                 "Harrison"],
            ),
            "Skill": (
                DataType.STRING,
                ["Typing", "Shorthand", "Light Cleaning", "Alchemy",
                 "Whittling", "Juggling", "Light Cleaning"],
            ),
            "Address": (
                DataType.STRING,
                ["425 Grant Ave", "425 Grant Ave", "747 Industrial Way",
                 "747 Industrial Way", "425 Grant Ave",
                 "747 Industrial Way", "425 Grant Ave"],
            ),
        },
    )


class DemoSession:
    """One interactive session: a database, a queue, and an output
    stream.  Built on the :class:`repro.db.Database` façade: every
    statement — the ``sql`` command, the queued SMOs, ``load`` and
    ``example`` — and the ``display``, ``compact`` and ``deltastat``
    views go through ``db``; only ``tables``, ``history``, the queue's
    validation and the status pane read the engine underneath."""

    def __init__(self, out=sys.stdout):
        # Size-only trigger: ratio policies would fold the delta straight
        # back into the tiny demo tables, hiding the buffering from view.
        self.db = Database(policy=CompactionPolicy(
            max_delta_rows=1024, max_delta_ratio=None, max_deleted_ratio=None
        ))
        self.engine = self.db.engine
        self.queue: list = []
        self.out = out
        self.engine.subscribe(self._on_status)

    def _print(self, text: str = "") -> None:
        print(text, file=self.out)

    def _on_status(self, event) -> None:
        millis = event.seconds * 1e3
        self._print(f"    [status] {event.step}: {event.detail} "
                    f"({millis:.2f} ms)")

    # -- commands ----------------------------------------------------------

    def cmd_tables(self) -> None:
        self._print(self.engine.catalog.describe())

    def _delta_stats(self, name: str):
        """Table ``name``'s delta statistics, or None when no write has
        touched it; raises for an unknown table."""
        self.db.schema(name)
        for stats in self.db.delta_stats():
            if stats.table == name:
                return stats
        return None

    def cmd_display(self, name: str) -> None:
        names = self.db.schema(name).column_names
        rows = self.db.execute(f"SELECT * FROM {name}")
        stats = self._delta_stats(name)
        pending = stats is not None and bool(
            stats.delta_rows or stats.deleted_main
        )
        widths = [
            max(len(str(n)), *(len(str(row[i])) for row in rows), 1)
            if rows
            else len(str(n))
            for i, n in enumerate(names)
        ]
        header = " | ".join(n.ljust(w) for n, w in zip(names, widths))
        self._print(header)
        self._print("-+-".join("-" * w for w in widths))
        for row in rows[:20]:
            self._print(
                " | ".join(str(v).ljust(w) for v, w in zip(row, widths))
            )
        if len(rows) > 20:
            self._print(f"… ({len(rows)} rows total)")
        if pending:
            self._print(
                f"(merged view: {stats.main_rows} main rows, "
                f"+{stats.delta_live} buffered, -{stats.deleted_main} deleted)"
            )

    def cmd_load(self, path: str, name: str | None = None) -> None:
        table = load_csv(path, name)
        self.db.load_table(table)
        self._print(
            f"loaded {table.nrows} rows into {table.schema.name} "
            f"({', '.join(table.schema.column_names)})"
        )

    def cmd_add(self, smo_text: str) -> None:
        """Queue one operator, validated with the queue as one plan: it
        sees the schemas the queued operators will leave behind."""
        op = parse_smo(smo_text)
        EvolutionPlan([*self.queue, op]).validate(self.engine.catalog)
        self.queue.append(op)
        self._print(f"queued [{len(self.queue)}]: {op.describe()}")

    def cmd_queue(self) -> None:
        if not self.queue:
            self._print("(no queued operators)")
        for index, op in enumerate(self.queue):
            self._print(f"  {index + 1}. {op.describe()}")

    def cmd_execute(self) -> None:
        if not self.queue:
            self._print("(nothing to execute)")
            return
        self._print("Data Evolution Status:")
        # Cleared even when an operator fails: the operators before it
        # have run, so the queue no longer describes a plan.
        queue, self.queue = self.queue, []
        for op in queue:
            self._print(f"  executing: {op.describe()}")
            status = self.db.execute(op)
            counters = status.summary()
            interesting = {k: v for k, v in counters.items() if v}
            self._print(f"  done. counters: {interesting or '{}'}")

    def cmd_compact(self, name: str) -> None:
        stats = self._delta_stats(name)
        if stats is None or not (stats.delta_rows or stats.deleted_main):
            self._print(f"{name}: delta is empty, nothing to compact")
            return
        table = self.db.compact(name)
        self._print(
            f"compacted {name}: +{stats.delta_live} buffered, "
            f"-{stats.deleted_main} deleted -> {table.nrows} rows, all WAH"
        )

    def cmd_deltastat(self, name: str = "") -> None:
        if name:
            stats = self._delta_stats(name)
            if stats is None:
                self._print(f"(no delta state for {name})")
                return
            stats_list = [stats]
        else:
            stats_list = self.db.delta_stats()
        if not stats_list:
            self._print("(no tables with delta state)")
            return
        for stats in stats_list:
            self._print(
                f"{stats.table}: main={stats.main_rows} "
                f"delta=+{stats.delta_live} -{stats.deleted_main} "
                f"live={stats.live_rows} "
                f"ratio={stats.delta_ratio:.3f} "
                f"compactions={stats.compactions}"
            )
        if not name:
            # The registry's delta gauges aggregate the same
            # delta_stats() — one source of truth for both views.
            snapshot = self.db.metrics()
            self._print(
                f"totals: tables={snapshot['delta.tables']} "
                f"buffered={snapshot['delta.buffered_rows']} "
                f"live={snapshot['delta.live_rows']} "
                f"pins={snapshot['snapshot.pins_active']} "
                f"compaction_steps={snapshot['compaction.steps']}"
            )

    def cmd_explain(self, statement: str) -> None:
        """The static plan of a SELECT, via EXPLAIN (no execution)."""
        for row in self.db.execute(f"EXPLAIN {statement}"):
            operator, detail = row[0], row[1]
            self._print(f"    {operator}  {detail}")

    def cmd_stats(self, fmt: str = "") -> None:
        print_stats(
            fmt, self.db.metrics, lambda: self.db.slow_query_log,
            self._print,
        )

    def cmd_sql(self, statement: str) -> None:
        """One statement through the façade (see :func:`print_result`)."""
        print_result(self.db.execute(statement), self._print)

    def cmd_history(self) -> None:
        text = self.engine.history.describe()
        self._print(text if text else "(no evolution history)")

    def cmd_example(self) -> None:
        self.db.load_table(figure1_table())
        self._print("loaded Figure 1 table R (7 rows); try:")
        self._print(
            "  add DECOMPOSE TABLE R INTO S (Employee, Skill), "
            "T (Employee, Address)"
        )
        self._print("  execute")

    # -- loop ---------------------------------------------------------------

    def handle(self, line: str) -> bool:
        """Process one command line; returns False to quit."""
        line = line.strip()
        if not line:
            return True
        verb, _, rest = line.partition(" ")
        verb = verb.lower()
        try:
            if verb in ("quit", "exit"):
                return False
            if verb == "help":
                self._print(_HELP)
            elif verb == "tables":
                self.cmd_tables()
            elif verb == "display":
                self.cmd_display(rest.strip())
            elif verb == "load":
                parts = rest.split()
                self.cmd_load(parts[0], parts[1] if len(parts) > 1 else None)
            elif verb in ("add", "create"):
                self.cmd_add(rest)
            elif verb == "queue":
                self.cmd_queue()
            elif verb == "execute":
                self.cmd_execute()
            elif verb == "sql":
                self.cmd_sql(rest)
            elif verb == "compact":
                self.cmd_compact(rest.strip())
            elif verb == "deltastat":
                self.cmd_deltastat(rest.strip())
            elif verb == "explain":
                self.cmd_explain(rest.strip())
            elif verb == "stats":
                self.cmd_stats(rest)
            elif verb == "history":
                self.cmd_history()
            elif verb == "example":
                self.cmd_example()
            else:
                self._print(f"unknown command {verb!r}; try 'help'")
        except CodsError as exc:
            self._print(f"error: {exc}")
        except FileNotFoundError as exc:
            self._print(f"error: {exc}")
        except IndexError:
            self._print("error: missing argument; try 'help'")
        return True

    def run_example_walkthrough(self) -> None:
        """The scripted Figure 1 demo (for --example and tests)."""
        for line in (
            "example",
            "tables",
            "display R",
            "add DECOMPOSE TABLE R INTO S (Employee, Skill), "
            "T (Employee, Address)",
            "execute",
            "display S",
            "display T",
            "add MERGE TABLES S, T INTO R",
            "execute",
            "display R",
            "history",
        ):
            self._print(f"cods> {line}")
            self.handle(line)


def print_result(result, out_line) -> None:
    """Render one statement's result via ``out_line`` — shared by the
    local and remote ``sql`` commands: SELECT prints rows, DML the
    affected count, an SMO its non-zero counters (an
    ``EvolutionStatus`` locally, a counters dict over the wire)."""
    if result is None:
        out_line("ok")
    elif isinstance(result, int):
        out_line(f"{result} row(s) affected")
    elif isinstance(result, list):
        for row in result[:20]:
            out_line(f"    {row}")
        if len(result) > 20:
            out_line(f"… ({len(result)} rows total)")
        out_line(f"({len(result)} row(s))")
    else:
        summary = result if isinstance(result, dict) else result.summary()
        counters = {k: v for k, v in summary.items() if v}
        out_line(f"done. counters: {counters or '{}'}")


def print_stats(fmt: str, metrics, slow_queries, out_line) -> None:
    """Dump a metrics registry (plain, or the JSON lines / Prometheus
    text ``metrics(fmt)`` serves), then the slow-query log when one is
    armed — shared by the local and remote ``stats`` commands."""
    fmt = fmt.strip().lower()
    if fmt in ("json", "prometheus"):
        out_line(metrics(fmt))
        return
    for name, value in sorted(metrics().items()):
        if isinstance(value, dict):  # histogram
            if value["count"]:
                out_line(
                    f"{name}: count={value['count']} "
                    f"mean={value['mean']:.6f}s max={value['max']:.6f}s"
                )
            else:
                out_line(f"{name}: count=0")
        else:
            out_line(f"{name}: {value}")
    entries = list(slow_queries())
    if entries:
        out_line(f"slow queries ({len(entries)}):")
        for entry in entries:
            out_line(
                f"  {entry['seconds'] * 1e3:8.2f} ms  {entry['statement']}"
            )


_REMOTE_HELP = """\
Commands (remote REPL over repro.client):
  sql <statement>     run one SQL or SMO statement on the server
  tables              list the server's tables
  begin [ro]          open a transaction ('ro' = read-only)
  commit / rollback   end the open transaction
  stats [fmt]         remote metrics (fmt: json | prometheus) + slow queries
  help                this text
  quit                exit\
"""


class RemoteDemoSession:
    """The REPL in client mode: the same command surface, served by a
    remote :class:`~repro.server.CodsServer` through
    :mod:`repro.client` — ``stats`` shows the *server's* registry
    (compactor counters included) and its slow-query log, so an
    operator needs no shell access to the data directory."""

    def __init__(self, connection, out=sys.stdout):
        self.connection = connection
        self.out = out

    def _print(self, text: str = "") -> None:
        print(text, file=self.out)

    def cmd_sql(self, statement: str) -> None:
        print_result(self.connection.execute(statement), self._print)

    def cmd_stats(self, fmt: str = "") -> None:
        print_stats(
            fmt, self.connection.metrics, self.connection.slow_queries,
            self._print,
        )

    def handle(self, line: str) -> bool:
        line = line.strip()
        if not line:
            return True
        verb, _, rest = line.partition(" ")
        verb = verb.lower()
        try:
            if verb in ("quit", "exit"):
                return False
            if verb == "help":
                self._print(_REMOTE_HELP)
            elif verb == "sql":
                self.cmd_sql(rest)
            elif verb == "tables":
                for name in self.connection.tables():
                    self._print(f"  {name}")
            elif verb == "begin":
                self.connection.begin(read_only=rest.strip() == "ro")
                self._print("transaction open")
            elif verb == "commit":
                self._print(f"{self.connection.commit()} row(s) committed")
            elif verb == "rollback":
                self._print(
                    f"{self.connection.rollback()} statement(s) discarded"
                )
            elif verb == "stats":
                self.cmd_stats(rest)
            else:
                self._print(f"unknown command {verb!r}; try 'help'")
        except CodsError as exc:
            self._print(f"error: {exc}")
        return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cods-demo",
        description="CODS demonstration platform (paper Figure 4, as a CLI)",
    )
    parser.add_argument(
        "--example", action="store_true",
        help="run the built-in Figure 1 walkthrough and exit",
    )
    parser.add_argument(
        "--script", type=str, default=None,
        help="execute an SMO script file (one operator per line) and "
             "exit; nothing runs if any line fails to parse or validate",
    )
    parser.add_argument(
        "--serve", action="store_true",
        help="run the network server instead of the REPL "
             "(see python -m repro.server; --data/--host/--port apply)",
    )
    parser.add_argument("--data", default=None,
                        help="catalog directory for --serve")
    parser.add_argument("--host", default=None, help="host for --serve")
    parser.add_argument("--port", type=int, default=None,
                        help="port for --serve, or with --connect")
    parser.add_argument(
        "--connect", metavar="HOST[:PORT]", default=None,
        help="REPL against a remote cods server instead of a local "
             "in-memory database",
    )
    parser.add_argument("--auth-token", default=None,
                        help="token for --serve / --connect")
    args = parser.parse_args(argv)

    if args.serve:
        from repro.server.__main__ import main as serve_main

        serve_argv = []
        if args.data is not None:
            serve_argv += ["--data", args.data]
        if args.host is not None:
            serve_argv += ["--host", args.host]
        if args.port is not None:
            serve_argv += ["--port", str(args.port)]
        if args.auth_token is not None:
            serve_argv += ["--auth-token", args.auth_token]
        return serve_main(serve_argv)

    if args.connect is not None:
        from repro.client import connect
        from repro.server import DEFAULT_PORT

        host, _, port_text = args.connect.partition(":")
        port = int(port_text) if port_text else (
            args.port if args.port is not None else DEFAULT_PORT
        )
        try:
            connection = connect(
                host or "127.0.0.1", port, auth_token=args.auth_token
            )
        except CodsError as exc:
            print(f"error: {exc}")
            return 1
        remote = RemoteDemoSession(connection)
        print(f"CODS demo — connected to {host or '127.0.0.1'}:{port}; "
              f"type 'help' for commands.")
        try:
            while True:
                try:
                    line = input("cods> ")
                except (EOFError, KeyboardInterrupt):
                    print()
                    return 0
                if not remote.handle(line):
                    return 0
        finally:
            connection.close()

    session = DemoSession()
    if args.example:
        session.run_example_walkthrough()
        return 0
    if args.script:
        with open(args.script) as handle:
            lines = handle.read().splitlines()
        for number, line in enumerate(lines, 1):
            if line.strip() and not line.strip().startswith("--"):
                try:
                    session.cmd_add(line)
                except CodsError as exc:
                    print(f"error: {args.script}:{number}: {exc}")
                    return 1
        session.handle("execute")
        session.handle("history")
        return 0

    print("CODS demo — type 'help' for commands, 'example' to begin.")
    while True:
        try:
            line = input("cods> ")
        except (EOFError, KeyboardInterrupt):
            print()
            return 0
        if not session.handle(line):
            return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
