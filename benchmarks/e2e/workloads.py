"""The five workloads of cods-e2e.

Every workload is a closed loop: a statement is sent when the previous
one has answered.  One rep is ``setup`` (timed as ``setup_s``), the
timed section (fixed statement counts, every statement's latency filed
under its class) and ``verify`` (oracle comparison, outside any timer).
The timed section's length is the sum of its statements' latencies —
the digesting a rep does between statements is not the program's time
— except on ``htap_wire``, whose two clients overlap and which is
therefore timed by the wall clock.

A workload hands the same statements to the program whether or not a
:class:`trace.Recorder` is passed; with one it also records a span per
call into a layer.
"""

from __future__ import annotations

import gc
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import catalog
import datagen
from oracle import Oracle, multiset_digest, result_digest
from procs import RunConfig, ServerProcess, directory_bytes

from repro.client import connect
from repro.db import Database
from repro.delta import CompactionPolicy
from repro.fd import FunctionalDependency
from repro.storage.types import render_text
from repro.wal import wal_path
from repro.wal.crashpoints import CrashPoint, crash_hook

#: Latency classes that are background work done in the foreground:
#: their time is part of the timed section, they are not statements.
MAINTENANCE = ("compact", "compact_step", "checkpoint")

#: Registry counters whose change over the timed section a rep keeps.
COUNTERS = (
    "wal.appends", "wal.bytes", "wal.fsyncs", "exec.batches",
    "exec.rows_decoded", "exec.rows_returned", "exec.agg_batches_compressed",
    "exec.agg_batches_hash", "server.requests", "txn.commits",
)


@dataclass
class Rep:
    """What one rep measured."""

    setup_s: float = 0.0
    latencies: dict = field(default_factory=dict)
    timed_s: float = 0.0
    #: Wall clock around the whole timed section, the harness's own
    #: work between statements (digests, spans) included.
    section_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    extras: dict = field(default_factory=dict)

    def file(self, cls: str, seconds: float) -> None:
        self.latencies.setdefault(cls, []).append(seconds)

    @property
    def statements(self) -> int:
        """Statements sent (a transaction is its statements, not one)."""
        return sum(
            len(samples) for cls, samples in self.latencies.items()
            if cls not in MAINTENANCE and cls != "txn"
        )


def light_digest(rows) -> tuple:
    """A cheap order-dependent digest of a large result: its length and
    the hashes of 64 evenly spaced rows.  Used only between repeated
    executions of one statement on unchanged state, whose first
    execution was compared to the oracle in full."""
    stride = max(1, len(rows) // 64)
    return (len(rows), tuple(map(hash, rows[::stride])))


class Workload:
    name = ""
    #: Span name of a statement sent through the session.
    statement_span = "db.session"

    def __init__(self, config: RunConfig):
        self.config = config
        self.sizes = catalog.sizes_for(self.name, config.seconds, config.smoke)
        self._expected = None

    # -- one rep ----------------------------------------------------------

    def run_rep(self, recorder=None, after=None) -> Rep:
        """Set up, run the timed section, verify; ``after(state)`` runs
        on the verified state before it is torn down (the traced pass
        hangs its probes there)."""
        gc.collect()
        rep = Rep()
        started = time.perf_counter()
        state = self.setup()
        rep.setup_s = time.perf_counter() - started
        try:
            counters = self.counters(state)
            started = time.perf_counter()
            self.timed(state, rep, recorder)
            rep.section_s = time.perf_counter() - started
            changed = self.counters(state)
            rep.extras["counters"] = {
                key: changed.get(key, 0) - counters.get(key, 0)
                for key in COUNTERS
            }
            rep.attempted = rep.statements
            if not rep.timed_s:
                rep.timed_s = sum(
                    sum(samples) for samples in rep.latencies.values()
                )
            self.verify(state, rep)
            if after is not None:
                after(state)
        finally:
            self.teardown(state)
        return rep

    def counters(self, state) -> dict:
        """The program's own metrics registry, read from outside."""
        return state["db"].metrics()

    def setup(self):
        raise NotImplementedError

    def timed(self, state, rep: Rep, recorder) -> None:
        raise NotImplementedError

    def verify(self, state, rep: Rep) -> None:
        raise NotImplementedError

    def teardown(self, state) -> None:
        pass

    def peak_rss_mb(self) -> float:
        """Memory of processes other than the generator (the server)."""
        return 0.0

    # -- helpers ----------------------------------------------------------

    def execute(self, rep: Rep, recorder, target, op, span=None):
        """Send one statement and file its latency (and span)."""
        started = time.perf_counter()
        result = target.execute(op.sql, op.params)
        ended = time.perf_counter()
        rep.file(op.cls, ended - started)
        if recorder is not None:
            recorder.new_request()
            recorder.add(span or self.statement_span, started, ended)
        return result

    def maintain(self, rep: Rep, recorder, cls: str, span: str, call, *args):
        """Foreground maintenance (compaction, checkpoint), timed."""
        started = time.perf_counter()
        result = call(*args)
        ended = time.perf_counter()
        rep.file(cls, ended - started)
        if recorder is not None:
            recorder.new_request()
            recorder.add(span, started, ended)
        return result

    def count_mismatches(self, rep: Rep, observed, expected,
                         statements: bool = False) -> None:
        """Compare with the oracle.  ``statements``: these are the
        stream's own results, already counted as attempted; anything
        else is a check of its own."""
        if not statements:
            rep.attempted += len(expected)
        rep.failed += sum(
            1 for seen, wanted in zip(observed, expected) if seen != wanted
        ) + abs(len(expected) - len(observed))


class StreamOnF(Workload):
    """Shared by the workloads that send one stream to one session over
    the fact table ``F``."""

    def generate(self):
        return datagen.generate_f(self.config.seed, self.sizes["rows"])

    def stream(self, generated) -> list:
        raise NotImplementedError

    def expected(self, generated, ops):
        """Oracle digests per statement and of the final table, computed
        once per run (every rep sends the same stream to fresh state)."""
        if self._expected is None:
            oracle = Oracle(generated)
            digests = oracle.replay(ops)
            self._expected = (digests, oracle.table_digest("F"))
            oracle.close()
        return self._expected


class AnalyticRead(StreamOnF):
    name = catalog.ANALYTIC

    def stream(self, generated):
        return datagen.analytic_stream(
            self.config.seed, generated, self.sizes["cycles"]
        )

    def setup(self):
        generated = self.generate()
        db = Database()
        db.load_table(generated.table())
        session = db.session()
        ops = self.stream(generated)
        # Warm-up: one pass over every class fills the epoch-keyed
        # caches the workload is meant to run on.
        for op in ops[:len(datagen.READ_CLASSES)]:
            session.execute(op.sql, op.params)
        return {"generated": generated, "db": db, "session": session,
                "ops": ops, "observed": []}

    def timed(self, state, rep, recorder):
        session, observed = state["session"], state["observed"]
        first: dict = {}
        for op in state["ops"]:
            rows = self.execute(rep, recorder, session, op)
            # The table never changes, so a statement's first result is
            # digested in full and later ones only against the first.
            key = (op.sql, op.params)
            if key not in first:
                first[key] = (result_digest(op, rows), light_digest(rows))
                observed.append(first[key][0])
            elif light_digest(rows) == first[key][1]:
                observed.append(first[key][0])
            else:
                observed.append(None)

    def verify(self, state, rep):
        digests, _ = self.expected(state["generated"], state["ops"])
        self.count_mismatches(
            rep, state["observed"], digests, statements=True
        )

    def teardown(self, state):
        state["db"].close()


class ReadAfterWrite(StreamOnF):
    name = catalog.RAW

    def stream(self, generated):
        return datagen.read_after_write_stream(
            self.config.seed, generated, self.sizes["pairs"]
        )

    def setup(self):
        generated = self.generate()
        db = Database(policy=CompactionPolicy.never())
        db.load_table(generated.table())
        session = db.session()
        for op in datagen.analytic_stream(self.config.seed, generated, 1):
            session.execute(op.sql, op.params)
        return {"generated": generated, "db": db, "session": session,
                "ops": self.stream(generated), "observed": []}

    def timed(self, state, rep, recorder):
        session, observed = state["session"], state["observed"]
        for op in state["ops"]:
            result = self.execute(rep, recorder, session, op)
            observed.append(result_digest(op, result))
        rep.extras["delta.buffered_rows_max"] = max(
            (stats.delta_rows for stats in state["db"].delta_stats()),
            default=0,
        )
        self.maintain(rep, recorder, "compact", "delta.compact",
                      state["db"].compact, "F")

    def verify(self, state, rep):
        digests, final = self.expected(state["generated"], state["ops"])
        self.count_mismatches(
            rep, state["observed"], digests, statements=True
        )
        rows = state["session"].execute(datagen.SCAN_FULL)
        self.count_mismatches(rep, [multiset_digest(rows)], [final])
        stats = state["db"].delta_stats()
        rep.extras["delta.compactions"] = sum(s.compactions for s in stats)

    def teardown(self, state):
        state["db"].close()


class OltpDurable(StreamOnF):
    """``Database(dir, durability="commit")``: the log is fsynced before
    every statement is acknowledged."""

    name = catalog.OLTP

    def stream(self, generated):
        return datagen.oltp_stream(
            self.config.seed, generated, self.sizes["ops"]
        )

    def open(self, directory, durability="commit"):
        return Database(
            directory, durability=durability, policy=CompactionPolicy.never()
        )

    def setup(self):
        generated = self.generate()
        directory = self.config.scratch("oltp")
        db = self.open(directory)
        db.load_table(generated.table())  # checkpoints: the table is on disk
        ops = self.stream(generated)
        db.execute(datagen.FILTER_KEY, (datagen.employee_label(0),))
        return {"generated": generated, "db": db, "directory": directory,
                "ops": ops, "observed": [], "session": db.session()}

    def timed(self, state, rep, recorder):
        db, session, observed = state["db"], state["session"], state["observed"]
        log = wal_path(state["directory"])
        compact_every = self.sizes["compact_every"]
        checkpoint_every = self.sizes["checkpoint_every"]
        acked_size = log.stat().st_size
        rows_since_checkpoint = 0
        for number, op in enumerate(state["ops"], start=1):
            result = self.execute(rep, recorder, session, op)
            observed.append(result_digest(op, result))
            if not isinstance(result, list):
                # Acknowledged: everything in the log up to here must
                # survive the crash.
                acked_size = log.stat().st_size
                rows_since_checkpoint += result
            if number % compact_every == 0:
                self.maintain(rep, recorder, "compact_step",
                              "delta.compact_step", db.compact_step, "F")
            if number % checkpoint_every == 0:
                # File times come from a coarser clock than time_ns().
                began = time.time_ns() - 20_000_000
                self.maintain(rep, recorder, "checkpoint", "wal.checkpoint",
                              db.checkpoint)
                rep.extras.setdefault("checkpoint_bytes", []).append(sum(
                    entry.stat().st_size
                    for entry in state["directory"].iterdir()
                    if entry.stat().st_mtime_ns >= began
                ))
                acked_size = log.stat().st_size
                rows_since_checkpoint = 0
        stats = db.delta_stats()
        rep.extras["delta.compactions"] = sum(s.compactions for s in stats)
        rep.extras["delta.buffered_rows_max"] = max(
            (s.delta_rows for s in stats), default=0
        )
        state["acked_size"] = acked_size
        rep.extras["replayed_rows"] = rows_since_checkpoint

    def verify(self, state, rep):
        digests, final = self.expected(state["generated"], state["ops"])
        self.count_mismatches(
            rep, state["observed"], digests, statements=True
        )
        image = self.crash_image(state)
        # A reopen takes tens of milliseconds: fifteen, on fresh copies
        # of the image, and their median is the rep's sample.
        reopens = []
        for attempt in range(15):
            if attempt:
                reopened.close(save=False)
            copy = self.config.scratch("oltp-reopen")
            shutil.copytree(image, copy, dirs_exist_ok=True)
            started = time.perf_counter()
            reopened = self.open(copy)
            count = reopened.execute("SELECT COUNT(*) FROM F")
            reopens.append(time.perf_counter() - started)
        rep.extras["recovery_s"] = statistics.median(reopens)
        image = copy
        try:
            # Every acknowledged write readable, the unacknowledged one
            # invisible: the reopened table is exactly the oracle's.
            rows = reopened.execute(datagen.SCAN_FULL)
            self.count_mismatches(
                rep, [multiset_digest(rows), count], [final, [(final[0],)]]
            )
            rep.extras["lost_acknowledged_writes"] = int(
                multiset_digest(rows) != final
            )
            reopened.checkpoint()
            user_bytes = sum(
                len(",".join(render_text(value) for value in row)) + 1
                for row in rows
            )
            rep.extras["stored_bytes_per_user_byte"] = (
                directory_bytes(image) / user_bytes
            )
        finally:
            reopened.close(save=False)

    def crash_image(self, state) -> Path:
        """The catalog directory as a crash would leave it.

        One more INSERT is sent and the process "dies" between the
        log's write and its fsync, so the statement is in the file but
        was never acknowledged.  A killed process keeps the operating
        system's cache, so copying the directory would keep those
        bytes: the copy's log is cut back to the size it had at the
        last acknowledgement, which is what a machine crash keeps.
        """
        db = state["db"]
        unacknowledged = datagen.Op("insert", datagen.INSERT, (
            "never-acknowledged", "skill000", "addr000", 0, 0, "2000-01-01",
        ))

        def die_before_fsync(label):
            if label == "wal.flush.fsync":
                raise CrashPoint(label)

        try:
            with crash_hook(die_before_fsync):
                db.execute(unacknowledged.sql, unacknowledged.params)
        except CrashPoint:
            pass
        else:
            raise AssertionError("the crash hook did not fire")
        image = self.config.workdir / "oltp-crash"
        if image.exists():
            shutil.rmtree(image)
        shutil.copytree(state["directory"], image)
        log = wal_path(image)
        if log.stat().st_size <= state["acked_size"]:
            raise AssertionError("the unacknowledged write left no bytes")
        with open(log, "r+b") as handle:
            handle.truncate(state["acked_size"])
        return image

    def teardown(self, state):
        # The crashed database is abandoned, not closed: close() would
        # checkpoint.  Its log handle goes with the object.
        state.clear()


class HtapWire(Workload):
    """The server runs with ``--no-compact``.  Its default background
    compactor folds the delta again as soon as a row is pending, and
    with a writer always writing that never stops: the same 725
    statements take 50-85 s instead of 4 s (8.6-14.4 statements per
    second from one rep to the next), which fits neither the driver's
    run time nor any bound it accepts.  The traced pass measures that
    configuration on a sixteenth of the workload
    (``delta.compactor_slowdown_x``)."""

    name = catalog.HTAP
    statement_span = "client.execute"
    compactor = False
    _server_rss = 0.0

    def setup(self):
        generated = datagen.generate_f(self.config.seed, self.sizes["rows"])
        directory = self.config.scratch("htap")
        with Database(directory) as db:
            db.load_table(generated.table())
        server = ServerProcess(directory, self.compactor)
        try:
            writer = connect(server.host, server.port)
            reader = connect(server.host, server.port)
            reads = datagen.reader_stream(
                self.config.seed, generated, self.sizes["reads"]
            )
            for op in reads[:6]:
                reader.execute(op.sql, op.params)
        except BaseException:
            server.stop()
            raise
        return {
            "generated": generated, "server": server, "writer": writer,
            "reader": reader, "reads": reads,
            "transactions": datagen.writer_transactions(
                self.config.seed, self.sizes["txns"]
            ),
            "read_results": [], "errors": [],
        }

    def counters(self, state):
        return state["reader"].metrics()

    def peak_rss_mb(self):
        return self._server_rss

    def timed(self, state, rep, recorder):
        # Each client files into its own Rep (and Recorder): list
        # appends from two threads into one dict would interleave.
        clients = {
            "writer": (Rep(), type(recorder)() if recorder else None),
            "reader": (Rep(), type(recorder)() if recorder else None),
        }
        barrier = threading.Barrier(2)
        elapsed = {}

        def run(role, body):
            part, spans = clients[role]
            try:
                barrier.wait(30)
                started = time.perf_counter()
                body(part, spans)
                elapsed[role] = time.perf_counter() - started
            except Exception as exc:  # noqa: BLE001 - reported as failure
                state["errors"].append(f"{role}: {exc!r}")

        def write(part, spans):
            connection = state["writer"]
            for ops in state["transactions"]:
                started = time.perf_counter()
                transaction = connection.begin()
                for op in ops:
                    result = self.execute(part, spans, connection, op)
                    if op.cls == "filter_own":
                        state["read_results"].append(("own", op, result))
                transaction.commit()
                ended = time.perf_counter()
                part.file("txn", ended - started)
                if spans is not None:
                    spans.add("client.transaction", started, ended)

        def read(part, spans):
            # Both clients send fixed counts, sized so that they finish
            # together at the seed commit: the two overlap for (nearly)
            # the whole timed section and the request counts repeat.
            connection = state["reader"]
            for op in state["reads"]:
                rows = self.execute(part, spans, connection, op)
                state["read_results"].append(("reader", op, rows))

        threads = [
            threading.Thread(target=run, args=("writer", write)),
            threading.Thread(target=run, args=("reader", read)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(170)
        if any(thread.is_alive() for thread in threads):
            state["errors"].append("a client did not finish in time")
        for part, spans in clients.values():
            for cls, samples in part.latencies.items():
                rep.latencies.setdefault(cls, []).extend(samples)
            if recorder is not None:
                recorder.extend(spans)
        rep.timed_s = max(elapsed.values(), default=0.0)
        rep.extras["client_s"] = elapsed

    def verify(self, state, rep):
        rep.attempted += 1
        rep.failed += len(state["errors"])
        rep.extras["errors"] = list(state["errors"])
        generated = state["generated"]
        oracle = Oracle(generated)
        try:
            expected = {}
            checked = []
            # What the reader has seen of the writer's rows so far: the
            # writer only adds rows, so this never goes down.
            seen = {"rows": 0}
            for who, op, rows in state["read_results"]:
                if who == "own":
                    # Read-your-writes: exactly the transaction's rows.
                    checked.append(
                        len(rows) == datagen.WRITER_ROWS_PER_TXN
                        and all(row[0] == op.params[0] for row in rows)
                    )
                    continue
                key = (op.sql, op.params)
                if key not in expected:
                    expected[key] = oracle.rows(op.sql, op.params)
                checked.append(
                    self.reader_result_ok(op, rows, expected[key], seen)
                )
            rep.failed += checked.count(False)
            rep.extras["errors"] += [
                f"wrong result: {who} {op.sql} {op.params}"
                for (who, op, _), ok in zip(state["read_results"], checked)
                if not ok
            ]
            for ops in state["transactions"]:
                for op in ops:
                    if op.cls != "filter_own":
                        oracle.run(op)
            final = state["reader"].execute(datagen.SCAN_FULL)
            self.count_mismatches(
                rep, [multiset_digest(final)], [oracle.table_digest("F")]
            )
        finally:
            oracle.close()

    @staticmethod
    def reader_result_ok(op, rows, base_rows, seen) -> bool:
        """What a reader outside any transaction may see while the
        writer commits: the base rows exactly as the oracle has them
        (the writer's rows carry values no base row has, so every
        result splits cleanly), and of the writer's rows never fewer
        than an earlier statement saw.  A commit replays its statements
        one by one, so a reader may see part of a transaction."""
        if op.cls in datagen.FILTER_CLASSES:
            return multiset_digest(rows) == multiset_digest(base_rows)
        if op.cls == "agg_global":
            added = rows[0][0] - base_rows[0][0]
        else:
            markers = (datagen.WRITER_SKILL, datagen.WRITER_DEPT)
            own = [row for row in rows if row[0] in markers]
            base = [row for row in rows if row[0] not in markers]
            if multiset_digest(base) != multiset_digest(base_rows):
                return False
            if len(own) > 1:
                return False
            if op.cls != "agg_count":
                return True
            added = own[0][1] if own else 0
        ok = added >= seen["rows"]
        seen["rows"] = max(seen["rows"], added)
        return ok

    def teardown(self, state):
        for key in ("writer", "reader"):
            try:
                state[key].close()
            except Exception:  # noqa: BLE001 - the server may be gone
                pass
        self._server_rss = max(
            self._server_rss, state["server"].peak_rss_mb()
        )
        state["server"].stop()


class SchemaEvolution(Workload):
    name = catalog.EVOLVE
    statement_span = "core.smo"

    def cardinalities(self) -> tuple[int, int]:
        rows = self.sizes["rows"]
        return (max(2, rows // self.sizes["low_share"]),
                max(4, rows // self.sizes["high_share"]))

    def catalog_with_delta(self, distinct: int, directory=None) -> dict:
        """``R`` with ``distinct`` keys loaded and its live delta
        inserted — in memory, or durable in ``directory``."""
        generated = datagen.generate_r(
            self.config.seed, self.sizes["rows"], distinct
        )
        delta = datagen.r_delta_rows(
            self.config.seed, generated,
            max(1, self.sizes["rows"] // self.sizes["delta_share"]),
        )
        db = Database(
            directory, policy=CompactionPolicy.never(),
            durability="none" if directory is None else "commit",
        )
        # A DBA asking for the decomposition knows the dependency;
        # declaring it validates losslessness from metadata.
        db.engine.extra_fds = (FunctionalDependency.of("Employee", "Address"),)
        db.load_table(generated.table())
        for start in range(0, len(delta), 500):
            values = ", ".join(
                "('%s', '%s', '%s')" % row for row in delta[start:start + 500]
            )
            db.execute(f"INSERT INTO R VALUES {values}")
        return {"generated": generated, "delta": delta, "db": db,
                "distinct": distinct, "statuses": []}

    def setup(self):
        return {"catalogs": [
            self.catalog_with_delta(distinct)
            for distinct in self.cardinalities()
        ]}

    def counters(self, state):
        totals: dict = {}
        for entry in state["catalogs"]:
            for key, value in entry["db"].metrics().items():
                if isinstance(value, (int, float)):
                    totals[key] = totals.get(key, 0) + value
        return totals

    def timed(self, state, rep, recorder):
        for entry in state["catalogs"]:
            db = entry["db"]
            started = time.perf_counter()
            for operator, statement in datagen.SMO_SEQUENCE:
                op = datagen.Op(operator, statement)
                status = self.execute(
                    rep, recorder, db, op, span=f"core.smo_{operator}"
                )
                entry["statuses"].append((operator, status))
            rep.extras.setdefault("sequence_s", []).append(
                time.perf_counter() - started
            )

    def verify(self, state, rep):
        fd = FunctionalDependency.of("Employee", "Address")
        for entry in state["catalogs"]:
            db, generated = entry["db"], entry["generated"]
            total = generated.nrows + len(entry["delta"])
            evolved = db.execute("SELECT * FROM R2")
            keys = db.execute("SELECT DISTINCT Employee, Address FROM R2")
            decompose = dict(entry["statuses"])["decompose"]
            checks = [
                db.tables() == ["R2"],
                len(evolved) == total,
                # Employee -> Address survived: one address per key.
                len(keys) == entry["distinct"],
                decompose.columns_decompressed == 0,
            ]
            rep.attempted += len(checks)
            rep.failed += checks.count(False)
            if self._expected is None:
                self._expected = {}
            if entry["distinct"] not in self._expected:
                oracle = Oracle()
                oracle.declare_fd(fd)
                oracle.load(generated)
                oracle.insert_rows("R", entry["delta"])
                for _, statement in datagen.SMO_SEQUENCE:
                    oracle.apply_smo(statement)
                self._expected[entry["distinct"]] = oracle.table_digest("R2")
                oracle.close()
            self.count_mismatches(
                rep, [multiset_digest(evolved)],
                [self._expected[entry["distinct"]]],
            )

    def teardown(self, state):
        for entry in state["catalogs"]:
            entry["db"].close()


WORKLOAD_CLASSES = {
    cls.name: cls
    for cls in (AnalyticRead, ReadAfterWrite, OltpDurable, HtapWire,
                SchemaEvolution)
}
