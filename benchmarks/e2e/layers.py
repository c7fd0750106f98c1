"""The traced pass: per-layer metrics, measured from outside.

Nothing under ``src/`` is instrumented.  The harness times calls into
each layer's public functions and reads the public counters
(``db.metrics()``, ``db.delta_stats()``, ``EvolutionStatus``):

* the workload's own stream runs once more with a span around every
  statement and maintenance call (``bench.trace_overhead_frac`` is that
  rep against the untraced ones);
* the **ladder** sends a sample of read statements per class to one
  rung each, in turn — the client, the session, the executor,
  ``execute_select`` and the storage handle (the pipeline re-composed
  from ``scan_batches``/``filter``/``rows``/``accumulate_batch``) — and a
  layer's self time is its rung's median minus the next one's;
* **probes** time a layer on a twin of the workload's data (a bare
  ``MutableTable``, a standalone ``WriteAheadLog``, ``filefmt``, the
  table's own bitmaps).
"""

from __future__ import annotations

import io
import random
import time
from itertools import chain
from pathlib import Path

import catalog
import datagen
from stats import median, percentile
from trace import Recorder

from repro.baselines.systems import SERIES
from repro.bitmap.wah import WAHBitmap
from repro.client import connect
from repro.db import Database
from repro.db.session import bind_parameters
from repro.delta import CompactionPolicy, MutableTable
from repro.exec import (
    DeltaBatch,
    GroupAccumulator,
    accumulate_batch,
    choose_aggregate_strategy,
    execute_select,
    validate_aggregate_select,
)
from repro.exec.planner import plan_select
from repro.fd import FunctionalDependency
from repro.obs.trace import QueryTrace
from repro.server import protocol
from repro.smo.parser import parse_smo
from repro.sql.executor import SqlExecutor
from repro.sql.parser import parse_sql
from repro.storage import filefmt
from repro.wal import WriteAheadLog
from repro.wal import records as wal_records

#: Statements per class and rung in a ladder.
LADDER_SAMPLES = 8
#: Classes whose pipeline the storage rung re-composes.
STORAGE_CLASSES = (
    "scan_full", *datagen.FILTER_CLASSES, *datagen.AGG_CLASSES,
)
RUNGS = ("session", "executor", "select", "storage")
#: The spans (``exec.<part>``) the storage rung splits a SELECT into.
PIPELINE_PARTS = (
    "plan_inline", "pull_main", "filter_main", "filter_delta", "decode_main",
    "decode_delta", "decode_materialize", "aggregate_main", "aggregate_delta",
    "aggregate_finalize",
)


def _ms(seconds: float) -> float:
    return seconds * 1e3


def _us(seconds: float) -> float:
    return seconds * 1e6


# ----------------------------------------------------------------------
# The read ladder
# ----------------------------------------------------------------------

def storage_rung(recorder: Recorder, adapter, select) -> list:
    """``select`` through the batch pipeline re-composed from the
    storage handle's public pieces, a span per piece and batch side."""
    add = recorder.add
    clock = time.perf_counter
    with recorder.span("exec.pipeline"):
        started = clock()
        schema = adapter.schema(select.table)
        aggregate = select.is_aggregate
        if aggregate:
            group_names, aggs = validate_aggregate_select(select, schema)
            strategy, _ = choose_aggregate_strategy(
                select, adapter.table_stats(select.table),
                pushdown=adapter.capabilities.pushdown,
            )
            accumulator = GroupAccumulator(aggs)
        if select.where is not None:
            select.where.validate(schema)
        names = select.columns or schema.column_names
        positions = (
            None if aggregate or tuple(names) == schema.column_names
            else [schema.index_of(name) for name in names]
        )
        add("exec.plan_inline", started, clock())
        started = clock()
        batches = list(adapter.scan_batches(select.table))
        add("exec.pull_main", started, clock())
        parts = []
        for batch in batches:
            side = "delta" if isinstance(batch, DeltaBatch) else "main"
            if select.where is not None:
                started = clock()
                batch = batch.filter(select.where)
                selected = batch.selected_count
                add(f"exec.filter_{side}", started, clock())
                if not selected:
                    continue
            started = clock()
            if aggregate:
                accumulate_batch(batch, group_names, accumulator, strategy)
                add(f"exec.aggregate_{side}", started, clock())
            else:
                parts.append(batch.rows(positions))
                add(f"exec.decode_{side}", started, clock())
        started = clock()
        if aggregate:
            rows = accumulator.finalized_rows(select, group_names)
            add("exec.aggregate_finalize", started, clock())
        else:
            rows = list(chain.from_iterable(parts))
            add("exec.decode_materialize", started, clock())
    return rows


class Ladder:
    """Sends statements to one rung each, in turn per class."""

    def __init__(self, recorder: Recorder, db, client=None):
        self.recorder = recorder
        self.session = db.session()
        self.adapter = db.adapter
        self.executor = SqlExecutor(db.adapter)
        self.client = client
        self.rungs = (("client",) if client is not None else ()) + RUNGS
        self.turn: dict[str, int] = {}
        #: class -> rung -> request ids
        self.requests: dict[str, dict[str, list[int]]] = {}

    def send(self, op):
        rungs = [
            rung for rung in self.rungs
            if rung != "storage" or op.cls in STORAGE_CLASSES
        ]
        turn = self.turn.get(op.cls, 0)
        self.turn[op.cls] = turn + 1
        rung = rungs[turn % len(rungs)]
        recorder = self.recorder
        request = recorder.new_request()
        self.requests.setdefault(op.cls, {}).setdefault(rung, []).append(
            request
        )
        if rung == "client":
            with recorder.span("client.execute"):
                rows = self.client.execute(op.sql, op.params)
        elif rung == "session":
            with recorder.span("db.session"):
                rows = self.session.execute(op.sql, op.params)
        else:
            text = op.sql
            if op.params is not None:
                with recorder.span("db.bind"):
                    text = bind_parameters(op.sql, op.params)
            with recorder.span("sql.parse"):
                select = parse_sql(text)
            if rung == "executor":
                with recorder.span("sql.executor"):
                    rows = self.executor.execute(select)
            elif rung == "select":
                with recorder.span("exec.plan"):
                    plan_select(
                        self.adapter, select, QueryTrace(timed=False)
                    )
                with recorder.span("exec.select"):
                    rows = list(execute_select(self.adapter, select))
            else:
                rows = storage_rung(recorder, self.adapter, select)
        return rows

    # -- reading the spans --------------------------------------------------

    def summarize(self) -> dict:
        """Per class, in ms: each rung's median and the medians of the
        storage rung's parts."""
        by_request: dict[int, dict[str, float]] = {}
        for name, start, end, _, request in self.recorder.spans:
            slot = by_request.setdefault(request, {})
            slot[name] = slot.get(name, 0.0) + (end - start)

        def med(cls, rung, span):
            samples = [
                by_request.get(request, {}).get(span, 0.0)
                for request in self.requests.get(cls, {}).get(rung, ())
            ]
            return _ms(median(samples)) if samples else None

        classes = {}
        for cls in self.requests:
            entry = {
                "client_ms": med(cls, "client", "client.execute"),
                "session_ms": med(cls, "session", "db.session"),
                "parse_ms": med(cls, "executor", "sql.parse"),
                "bind_ms": med(cls, "executor", "db.bind"),
                "executor_ms": med(cls, "executor", "sql.executor"),
                "plan_ms": med(cls, "select", "exec.plan"),
                "select_ms": med(cls, "select", "exec.select"),
            }
            if cls in STORAGE_CLASSES:
                entry["pipeline_ms"] = med(cls, "storage", "exec.pipeline")
                for part in PIPELINE_PARTS:
                    entry[part + "_ms"] = med(cls, "storage", f"exec.{part}")
            classes[cls] = {
                key: value for key, value in entry.items()
                if value is not None
            }
        return classes


def ladder_metrics(classes: dict) -> dict:
    """The cross-class layer metrics: each is the mean over the
    classes that have it (classes weigh equally, as in ``agg_ms_p50``).
    The residual compares, over the classes with a storage rung,
    ``execute_select`` with the sum of the re-composed pipeline's
    parts."""

    def per_class(function, combine=lambda values: sum(values) / len(values)):
        values = [function(entry) for entry in classes.values()]
        values = [value for value in values if value is not None]
        return combine(values) if values else None

    def fixed_cost(function):
        # A layer's per-statement self time is the difference of two
        # rungs' medians; on a 50 ms class that difference is mostly
        # noise, so classes vote (median) instead of averaging.
        return per_class(function, median)

    def parts(entry, *names):
        if "pipeline_ms" not in entry:
            return None
        return sum(entry.get(name + "_ms", 0.0) for name in names)

    staged = [e for e in classes.values() if "pipeline_ms" in e]
    whole = sum(e["select_ms"] for e in staged)
    recomposed = sum(parts(e, *PIPELINE_PARTS) for e in staged)
    out = {
        "db.session_self_ms": fixed_cost(
            lambda e: e["session_ms"] - e["executor_ms"] - e["parse_ms"]
            - e.get("bind_ms", 0.0)
        ),
        "sql.executor_self_ms": fixed_cost(
            lambda e: e["executor_ms"] - e["select_ms"]
        ),
        "sql.parse_us": per_class(lambda e: e["parse_ms"] * 1e3),
        "db.bind_us": per_class(
            lambda e: e["bind_ms"] * 1e3 if "bind_ms" in e else None
        ),
        "exec.plan_us": per_class(lambda e: e["plan_ms"] * 1e3),
        "exec.scan_main_ms": per_class(lambda e: parts(
            e, "pull_main", "filter_main", "decode_main", "aggregate_main"
        )),
        "exec.scan_delta_ms": per_class(lambda e: parts(
            e, "filter_delta", "decode_delta", "aggregate_delta"
        )),
        "exec.filter_ms": per_class(
            lambda e: parts(e, "filter_main", "filter_delta")
        ),
        "exec.decode_ms": per_class(lambda e: parts(
            e, "decode_main", "decode_delta", "decode_materialize"
        )),
        "exec.aggregate_ms": per_class(lambda e: parts(
            e, "aggregate_main", "aggregate_delta", "aggregate_finalize"
        )),
        "exec.ladder_residual_frac": (
            abs(whole - recomposed) / whole if whole else None
        ),
        "client.roundtrip_ms": fixed_cost(
            lambda e: e["client_ms"] - e["session_ms"]
            if "client_ms" in e else None
        ),
    }
    return {key: value for key, value in out.items() if value is not None}


def ladder_ops(seed: int, generated, classes) -> list:
    """Enough statements for ``LADDER_SAMPLES`` per class and rung."""
    cycles = LADDER_SAMPLES * (len(RUNGS) + 1)
    return [
        op for op in datagen.analytic_stream(seed + 1, generated, cycles)
        if op.cls in classes
    ]


# ----------------------------------------------------------------------
# Probes on twins
# ----------------------------------------------------------------------

def _time(call, *args) -> float:
    started = time.perf_counter()
    call(*args)
    return time.perf_counter() - started


def storage_probe(config, generated) -> dict:
    """``filefmt`` save and load of the workload's own table, its size
    on disk against its CSV size, and cold planner statistics."""
    directory = config.scratch("storage-probe")
    table = generated.table()
    path = directory / f"{generated.name}.cods"
    save_s = _time(filefmt.save_table, table, path)
    size = path.stat().st_size
    started = time.perf_counter()
    loaded = filefmt.load_table(path)
    load_s = time.perf_counter() - started
    user_bytes = sum(
        len(",".join(map(str, row))) + 1 for row in generated.rows()
    )
    db = Database()
    db.load_table(loaded)  # a fresh Table object: nothing cached for it
    cold_s = _time(db.adapter.table_stats, generated.name)
    db.close()
    megabytes = size / 1e6
    return {
        "storage.save_mb_per_s": megabytes / save_s,
        "storage.load_mb_per_s": megabytes / load_s,
        "storage.main_bytes_per_user_byte": size / user_bytes,
        "storage.stats_cold_ms": _ms(cold_s),
    }


def bitmap_probe(generated) -> dict:
    """AND and popcount over the table's own ``Skill`` bitmaps."""
    bitmaps = generated.table().column("Skill").bitmaps
    pairs = list(zip(bitmaps, bitmaps[1:]))
    words = sum(len(a.words) + len(b.words) for a, b in pairs)
    rounds = 5
    started = time.perf_counter()
    for _ in range(rounds):
        for left, right in pairs:
            left & right
    and_s = time.perf_counter() - started
    # count() is memoized: count copies that share the words.
    fresh = [
        WAHBitmap(bitmap.words, bitmap.nbits)
        for _ in range(rounds) for bitmap in bitmaps
    ]
    started = time.perf_counter()
    for bitmap in fresh:
        bitmap.count()
    count_s = time.perf_counter() - started
    counted = rounds * sum(len(bitmap.words) for bitmap in bitmaps)
    return {
        "bitmap.and_mwords_per_s": rounds * words / and_s / 1e6,
        "bitmap.popcount_mwords_per_s": counted / count_s / 1e6,
    }


def delta_probe(generated, ops) -> dict:
    """Direct ``MutableTable`` calls on a twin: what the delta layer
    alone takes for the stream's own inserts, updates and deletes."""
    twin = MutableTable(generated.table(), CompactionPolicy.never())
    inserts, modifies, pins = [], [], []
    writes = [op for op in ops if op.cls in ("insert", "update", "delete")]
    for op in writes[:200]:
        statement = parse_sql(bind_parameters(op.sql, op.params))
        if op.cls == "insert":
            row = statement.rows[0]
            inserts.append(_time(twin.insert, row))
        elif op.cls == "update":
            modifies.append(_time(
                twin.update, dict(statement.assignments), statement.where
            ))
        else:
            modifies.append(_time(twin.delete, statement.where))
    for _ in range(200):
        started = time.perf_counter()
        twin.snapshot().close()
        pins.append(time.perf_counter() - started)
    out = {"delta.snapshot_pin_us": _us(median(pins))}
    if inserts:
        out["delta.insert_us"] = _us(median(inserts))
    if modifies:
        out["delta.modify_ms"] = _ms(median(modifies))
    return out


def transaction_probe(db, count: int = 20) -> dict:
    """``db.transaction()`` begin and commit around one insert."""
    begins, commits = [], []
    row = ("txn-probe", "skill000", "addr000", 0, 0, "2000-01-01")
    for _ in range(count):
        started = time.perf_counter()
        transaction = db.transaction().begin()
        begins.append(time.perf_counter() - started)
        transaction.execute(datagen.INSERT, row)
        commits.append(_time(transaction.commit))
    return {
        "db.txn_begin_ms": _ms(median(begins)),
        "db.txn_commit_ms": _ms(median(commits)),
    }


def write_latency_metrics(reps) -> dict:
    """Tail and stalls of acknowledged writes over all untraced reps.
    A stall is a write over ten times its own verb's median."""
    writes = [
        seconds for rep in reps for cls in ("insert", "update", "delete")
        for seconds in rep.latencies.get(cls, ())
    ]
    stalls = 0
    for cls in ("insert", "update", "delete"):
        samples = [s for rep in reps for s in rep.latencies.get(cls, ())]
        if samples:
            limit = 10 * median(samples)
            stalls += sum(1 for s in samples if s > limit)
    out = {"db.write_ms_max": _ms(max(writes)), "db.stall_ops": stalls}
    p99 = percentile(writes, 0.99)
    if p99 is not None:
        out["db.write_ms_p99"] = _ms(p99)
    return out


def statement_probe(ops, count: int = 200) -> dict:
    """Binding and parsing the stream's own DML text."""
    binds, parses = [], []
    for op in [op for op in ops if op.params is not None][:count]:
        started = time.perf_counter()
        text = bind_parameters(op.sql, op.params)
        binds.append(time.perf_counter() - started)
        parses.append(_time(parse_sql, text))
    return {
        "db.bind_us": _us(median(binds)),
        "sql.parse_us": _us(median(parses)),
    }


def wal_probe(config, generated, ops) -> dict:
    """Record encoding, and append and fsync on a standalone log."""
    rows = [
        parse_sql(bind_parameters(op.sql, op.params)).rows[0]
        for op in ops if op.cls == "insert"
    ][:300]
    twin = MutableTable(generated.table(), CompactionPolicy.never())
    coerced = []
    for row in rows:  # as the log sees them: coerced by the delta
        twin.insert(row)
        coerced.append(twin.delta.row(twin.delta.n_appended - 1))
    encodes = []
    for number, row in enumerate(coerced):
        started = time.perf_counter()
        frame = wal_records.encode_insert_frame("F", [row], number, number, True)
        if frame is None:  # dates need the value codec: the generic path
            wal_records.encode_frame(
                wal_records.insert_record("F", [row], number, number)
            )
        encodes.append(time.perf_counter() - started)
    directory = config.scratch("wal-probe")
    log = WriteAheadLog(
        directory / "wal.log", flush_policy="group", group_size=1 << 30
    )
    appends, fsyncs = [], []
    try:
        for number in range(1000):
            row = coerced[number % len(coerced)]
            appends.append(_time(log.append_insert, "F", [row], number))
            fsyncs.append(_time(log.flush))
    finally:
        log.close()
    out = {
        "wal.encode_us_per_row": _us(median(encodes)),
        "wal.append_us": _us(median(appends)),
        "wal.fsync_ms_p50": _ms(median(fsyncs)),
    }
    p99 = percentile(fsyncs, 0.99)
    if p99 is not None:
        out["wal.fsync_ms_p99"] = _ms(p99)
    return out


def durability_overheads(workload, generated, ops) -> dict:
    """The stream's INSERTs replayed on fresh state under ``none``,
    ``group`` and ``commit``; interleaved three times, medians."""
    inserts = [op for op in ops if op.cls == "insert"]
    table = generated.table()
    seconds = {"none": [], "group": [], "commit": []}
    for _ in range(3):
        for mode in seconds:
            directory = workload.config.scratch(f"durability-{mode}")
            db = workload.open(directory, durability=mode)
            db.load_table(table)
            started = time.perf_counter()
            for op in inserts:
                db.execute(op.sql, op.params)
            seconds[mode].append(time.perf_counter() - started)
            db.close(save=False)
    base = median(seconds["none"])
    return {
        "wal.commit_overhead_frac": median(seconds["commit"]) / base - 1.0,
        "wal.group_overhead_frac": median(seconds["group"]) / base - 1.0,
    }


# ----------------------------------------------------------------------
# Per-workload traced passes
# ----------------------------------------------------------------------

def _paired_overhead(base, other, pairs: int = 5) -> float:
    """Median of ``other / base - 1`` over adjacent pairs that
    alternate which side runs first, so drift hits both alike."""
    ratios = []
    for number in range(pairs):
        if number % 2 == 0:
            base_s, other_s = _time(base), _time(other)
        else:
            other_s, base_s = _time(other), _time(base)
        ratios.append(other_s / base_s - 1.0)
    return median(ratios)


def analytic_probes(workload, state, recorder, untraced) -> tuple[dict, dict]:
    generated, db = state["generated"], state["db"]
    ladder = Ladder(recorder, db)
    for op in ladder_ops(workload.config.seed, generated, datagen.READ_CLASSES):
        ladder.send(op)
    classes = ladder.summarize()
    out = ladder_metrics(classes)
    cycle = datagen.analytic_stream(workload.config.seed, generated, 1)
    plain, traced = db.session(), db.session()
    traced.trace_queries = True
    parsed = [
        parse_sql(bind_parameters(op.sql, op.params or ())) for op in cycle
    ]
    bare = SqlExecutor(db.adapter, instrument=False)
    counted = SqlExecutor(db.adapter)

    def through(target):
        def run():
            for op in cycle:
                target.execute(op.sql, op.params)
        return run

    def executing(executor):
        def run():
            for select in parsed:
                executor.execute(select)
        return run

    out["obs.traced_overhead_frac"] = _paired_overhead(
        through(plain), through(traced)
    )
    out["obs.metrics_overhead_frac"] = _paired_overhead(
        executing(bare), executing(counted)
    )
    out.update(bitmap_probe(generated))
    return out, classes


def raw_probes(workload, state, recorder, untraced) -> tuple[dict, dict]:
    generated, db = state["generated"], state["db"]
    # The final compact emptied the delta; rebuild one by sending the
    # stream's writes again, then keep writing between ladder reads so
    # that every rung sees a new epoch, as the workload's reads do.
    session = db.session()
    writes = [op for op in state["ops"] if op.cls in ("insert", "update",
                                                      "delete")]
    for op in writes:
        session.execute(op.sql, op.params)
    ladder = Ladder(recorder, db)
    source = datagen.DmlSource(
        random.Random(f"{workload.config.seed}:ladder"), generated
    )
    for op in ladder_ops(workload.config.seed, generated, datagen.READ_CLASSES):
        insert = source.insert()
        session.execute(insert.sql, insert.params)
        ladder.send(op)
    classes = ladder.summarize()
    out = ladder_metrics(classes)
    out.update(delta_probe(generated, state["ops"]))
    out.update(transaction_probe(db))
    out.update(write_latency_metrics(untraced["reps"]))
    compact = [rep.latencies["compact"][0] for rep in untraced["reps"]]
    out["delta.compact_total_s"] = median(compact)
    out["delta.compact_rows_per_s"] = generated.nrows / median(compact)
    return out, classes


def oltp_probes(workload, state, recorder, untraced) -> tuple[dict, dict]:
    reps = untraced["reps"]
    generated, ops = state["generated"], state["ops"]
    out = {}
    out.update(statement_probe(ops))
    out.update(delta_probe(generated, ops))
    out.update(wal_probe(workload.config, generated, ops))
    out.update(durability_overheads(workload, generated, ops))
    out.update(write_latency_metrics(reps))
    twin = Database(policy=CompactionPolicy.never())
    twin.load_table(generated.table())
    out.update(transaction_probe(twin))
    twin.close()
    # Single client, no timers: the registry's counts repeat exactly,
    # so the first rep's stand for all.
    counters = {
        key: reps[0].extras["counters"][key]
        for key in ("wal.appends", "wal.bytes", "wal.fsyncs")
    }
    out.update(counters)
    commits = sum(
        len(reps[0].latencies.get(cls, ()))
        for cls in ("insert", "update", "delete")
    )
    user_bytes = sum(
        len(",".join(map(str, op.params))) + 1
        for op in ops if op.cls in ("insert", "update", "delete")
    )
    steps = [s for rep in reps for s in rep.latencies.get("compact_step", ())]
    checkpoints = [
        s for rep in reps for s in rep.latencies.get("checkpoint", ())
    ]
    compact_total = median(
        [sum(rep.latencies.get("compact_step", ())) for rep in reps]
    )
    recovery = median([rep.extras["recovery_s"] for rep in reps])
    out.update({
        "wal.fsyncs_per_commit": counters["wal.fsyncs"] / commits,
        "wal.bytes_per_user_byte": counters["wal.bytes"] / user_bytes,
        "wal.checkpoint_ms_p50": _ms(median(checkpoints)),
        "wal.checkpoint_bytes": median(
            [b for rep in reps for b in rep.extras["checkpoint_bytes"]]
        ),
        "wal.recovery_rows_per_s": reps[0].extras["replayed_rows"] / recovery,
        "delta.compact_step_ms_p50": _ms(median(steps)),
        "delta.compact_step_ms_max": _ms(max(steps)),
        "delta.compact_total_s": compact_total,
        "delta.compact_rows_per_s": (
            generated.nrows * reps[0].extras["delta.compactions"]
            / compact_total if compact_total else 0.0
        ),
    })
    return out, {}


def htap_probes(workload, state, recorder, untraced) -> tuple[dict, dict]:
    """A quiet ladder: the reader's statements at the client rung
    against the live server (no writer running) and at the in-process
    rungs against a twin catalog holding the same table."""
    generated, server = state["generated"], state["server"]
    twin = Database()
    twin.load_table(generated.table())
    connects = []
    for _ in range(20):
        started = time.perf_counter()
        connection = connect(server.host, server.port)
        connects.append(time.perf_counter() - started)
        connection.close()
    reader = state["reader"]
    classes_wanted = (
        *datagen.FILTER_CLASSES, "agg_count", "agg_sum", "agg_global",
    )
    before = reader.metrics()["server.requests"]
    ladder = Ladder(recorder, twin, client=reader)
    ops = ladder_ops(workload.config.seed, generated, classes_wanted)
    for op in ops:
        ladder.send(op)
    sent = sum(
        len(requests.get("client", ()))
        for requests in ladder.requests.values()
    )
    frames = (reader.metrics()["server.requests"] - before - 1) / sent
    classes = ladder.summarize()
    out = ladder_metrics(classes)
    # The codec on the statements' own results.
    encodes, decodes, sizes = [], [], []
    for op in ops[:24]:
        rows = twin.execute(op.sql, op.params)
        sizes.append(len(rows))
        if not rows:
            continue
        started = time.perf_counter()
        frame = protocol.encode_frame(
            {"ok": True, "rows": protocol.encode_rows(rows)}
        )
        encodes.append((time.perf_counter() - started) / len(rows))
        started = time.perf_counter()
        payload, _ = protocol.read_frame(io.BytesIO(frame))
        protocol.decode_rows(payload["rows"])
        decodes.append((time.perf_counter() - started) / len(rows))
    codec_ms = (median(encodes) + median(decodes)) * 1e3
    out.update({
        "client.connect_ms": _ms(median(connects)),
        "client.roundtrip_self_ms": (
            out.pop("client.roundtrip_ms") - codec_ms * median(sizes)
        ),
        "client.fetch_frames_per_stmt": frames,
        "server.codec_encode_us_per_row": _us(median(encodes)),
        "server.codec_decode_us_per_row": _us(median(decodes)),
    })
    out.update(transaction_probe(twin))
    out.update(statement_probe(
        [op for ops in state["transactions"] for op in ops]
    ))
    twin.close()
    reps = untraced["reps"]
    requests = [
        seconds for rep in reps for cls, samples in rep.latencies.items()
        if cls != "txn" for seconds in samples
    ]
    p99 = percentile(requests, 0.99)
    if p99 is not None:
        out["server.request_ms_p99"] = _ms(p99)
    counters = reps[0].extras["counters"]
    out.update({
        "server.requests": median(
            [rep.extras["counters"]["server.requests"] for rep in reps]
        ),
        "wal.appends": median(
            [rep.extras["counters"]["wal.appends"] for rep in reps]
        ),
        "wal.bytes": median(
            [rep.extras["counters"]["wal.bytes"] for rep in reps]
        ),
        "wal.fsyncs": median(
            [rep.extras["counters"]["wal.fsyncs"] for rep in reps]
        ),
        "wal.fsyncs_per_commit": (
            counters["wal.fsyncs"] / max(1, counters["txn.commits"])
        ),
    })
    return out, classes


def compactor_probe(workload, untraced) -> dict:
    """The same workload, a sixteenth of it, against a server started
    with its default background compactor; how many times slower."""
    served = type(workload)(workload.config)
    served.compactor = True
    served.sizes = dict(
        workload.sizes,
        txns=max(2, workload.sizes["txns"] // 16),
        reads=max(6, workload.sizes["reads"] // 16),
    )
    rep = served.run_rep()
    quiet = median(
        [r.statements / r.timed_s for r in untraced["reps"]]
    )
    return {
        "delta.compactor_slowdown_x": quiet / (rep.statements / rep.timed_s),
    }


def evolve_probes(workload, state, recorder, untraced) -> tuple[dict, dict]:
    reps = untraced["reps"]
    out = {}
    for operator in datagen.SMO_OPERATORS:
        out[f"core.smo_{operator}_ms"] = _ms(median(
            [sum(rep.latencies[operator]) for rep in reps]
        ))
    totals = {key: 0 for key in (
        "bitmaps_reused", "bitmaps_created", "bitmaps_filtered",
        "columns_decompressed", "rows_materialized", "delta_rows_flushed",
    )}
    flush_s = 0.0
    for entry in state["catalogs"]:
        for _, status in entry["statuses"]:
            if status is None:
                continue  # CREATE/DROP TABLE: the SQL DDL door
            for key, value in status.summary().items():
                if key in totals:
                    totals[key] += value
            flush_s += sum(
                event.seconds for event in status.events
                if event.step == "delta flush"
            )
    out.update({f"core.{key}": value for key, value in totals.items()})
    out["core.flush_before_evolve_ms"] = _ms(flush_s)
    out.update({
        "delta.compact_total_s": flush_s,
        "delta.compact_rows_per_s": (
            sum(entry["generated"].nrows for entry in state["catalogs"])
            / flush_s if flush_s else 0.0
        ),
        "delta.compactions": len(state["catalogs"]),
        "delta.buffered_rows_max": max(
            len(entry["delta"]) for entry in state["catalogs"]
        ),
    })
    # The paper's headline ratio: the same operator at the query level
    # (same column store, decompress -> tuples -> query -> re-compress).
    fd = FunctionalDependency.of("Employee", "Address")
    statements = dict(datagen.SMO_SEQUENCE)
    baseline = {"decompose": 0.0, "merge": 0.0}
    for entry in state["catalogs"]:
        system = SERIES["M"]()
        system.declare_fd(fd)
        system.load(entry["generated"].table())
        for operator in baseline:
            baseline[operator] += system.timed_apply(
                parse_smo(statements[operator])
            )
    for operator, seconds in baseline.items():
        ours = out[f"core.smo_{operator}_ms"] / 1e3
        out[f"core.{operator}_speedup_vs_query_level"] = seconds / ours
        out[f"core.{operator}_query_level_s"] = seconds
    # The same sequence in a durable directory: every schema change
    # checkpoints synchronously.  Low cardinality only.
    entry = state["catalogs"][0]
    durable = workload.catalog_with_delta(
        entry["distinct"], workload.config.scratch("evolve-durable")
    )["db"]
    started = time.perf_counter()
    for _, statement in datagen.SMO_SEQUENCE:
        durable.execute(statement)
    durable_s = time.perf_counter() - started
    durable.close(save=False)
    memory_s = median([rep.extras["sequence_s"][0] for rep in reps])
    out["wal.smo_checkpoint_ms"] = _ms(durable_s - memory_s)
    out.update(bitmap_probe(entry["generated"]))
    return out, {}


PROBES = {
    catalog.ANALYTIC: analytic_probes,
    catalog.RAW: raw_probes,
    catalog.OLTP: oltp_probes,
    catalog.HTAP: htap_probes,
    catalog.EVOLVE: evolve_probes,
}


def traced_pass(workload, untraced: dict, trace_dir) -> dict:
    """One more rep with spans, then the workload's probes on its
    set-up state; returns per-layer metrics, ladder detail and the
    bypass facts read off the trace."""
    recorder = Recorder()
    collected = {}

    def probes(state):
        collected["stream_names"] = recorder.names()
        metrics, classes = PROBES[workload.name](
            workload, state, recorder, untraced
        )
        generated = state.get("generated") or state["catalogs"][0]["generated"]
        metrics.update(storage_probe(workload.config, generated))
        collected.update(metrics=metrics, classes=classes)

    rep = workload.run_rep(recorder, after=probes)
    metrics = collected["metrics"]
    if workload.name == catalog.HTAP:
        # After the rep: its server is down, so there is still only one.
        metrics.update(compactor_probe(workload, untraced))
    # Wall clock around the whole section on both sides, so that the
    # recorder's own calls are inside what is compared.
    untraced_section = median([r.section_s for r in untraced["reps"]])
    metrics["bench.trace_overhead_frac"] = (
        rep.section_s / untraced_section - 1.0
    )
    for key in ("delta.compactions", "delta.buffered_rows_max"):
        if key in rep.extras and key not in metrics:
            metrics[key] = rep.extras[key]
    counters = untraced["reps"][0].extras.get("counters", {})
    for key in ("exec.batches", "exec.rows_decoded", "exec.rows_returned",
                "exec.agg_batches_compressed", "exec.agg_batches_hash"):
        if key in counters:
            metrics[key] = counters[key]
    if counters.get("exec.rows_returned"):
        metrics["sql.rows_examined_per_returned"] = (
            counters["exec.rows_decoded"] / counters["exec.rows_returned"]
        )
    trace_path = None
    if trace_dir is not None:
        trace_path = Path(trace_dir) / f"trace-{workload.name}.json"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        recorder.write(trace_path)
    return {
        "metrics": metrics,
        "ladder": collected["classes"],
        "stream_span_names": sorted(collected["stream_names"]),
        "spans": len(recorder.spans),
        "trace_file": str(trace_path) if trace_path else None,
        "attempted": rep.attempted,
        "failed": rep.failed,
    }
