"""Recovery-on-open: replay committed redo past the last checkpoint.

Two passes over the intact records of the log (the
:class:`~repro.wal.log.WriteAheadLog` constructor has already repaired
a torn tail and refused damage before it):

1. **Scan** — collect the set of transaction ids with a ``commit``
   record, and cross-check every sidecar's checkpointed ``wal_lsn``
   against the log's actual extent (a checkpoint pointing outside the
   log means the directory was tampered with or mis-assembled:
   :class:`~repro.errors.WalCorruptionError`).
2. **Replay** — apply records of committed transactions, in log order,
   through the delta stores' ``replay_*`` entry points (which emit
   nothing).  A record whose epoch is at or below the table's restored
   epoch is already inside the checkpointed sidecar and is skipped —
   this is what makes recovery idempotent and a crash *during* a
   checkpoint harmless.  ``compact`` records re-run the fold at the
   logged cutoff epoch (a deterministic no-op when the checkpoint
   already captured it).  Records naming a table the manifest does not
   know are skipped: the only way they arise is a table-set change
   (SMO/DDL) whose forced checkpoint already made their effects
   durable before the crash (see ``docs/wal-format.md``).
"""

from __future__ import annotations

from pathlib import Path

from repro.errors import WalCorruptionError
from repro.storage.filefmt import _read_delta_payload, delta_sidecar_path
from repro.wal import records as rec


def validate_checkpoints(engine, directory, wal) -> None:
    """Every sidecar's ``wal_lsn`` must land inside the log."""
    directory = Path(directory)
    for name in engine.catalog.table_names():
        sidecar = delta_sidecar_path(directory / f"{name}.cods")
        if not sidecar.exists():
            continue
        _, payload = _read_delta_payload(sidecar)
        wal_lsn = payload.get("wal_lsn")
        if wal_lsn is None:
            continue  # pre-WAL sidecar: nothing to cross-check
        if not (wal.base_lsn <= wal_lsn <= wal.durable_lsn):
            raise WalCorruptionError(
                f"{sidecar}: checkpoint at lsn {wal_lsn} points outside "
                f"the log [{wal.base_lsn}, {wal.durable_lsn}]"
            )


def recover(engine, directory, wal, policy=None) -> int:
    """Replay the log into ``engine``; returns records applied."""
    validate_checkpoints(engine, directory, wal)
    records = wal.scan()
    if not records:
        return 0
    committed = {
        payload["txn"]
        for _, payload in records
        # A "commit" record closes a multi-record transaction; a
        # "c": 1 flag marks a single-frame auto-committed statement.
        if payload["t"] == "commit" or payload.get("c")
    }
    known = set(engine.catalog.table_names())
    applied = 0
    for lsn, payload in records:
        kind = payload["t"]
        if kind == "commit":
            continue
        if payload.get("txn") not in committed:
            continue  # uncommitted debris: the transaction never acked
        table = payload.get("table")
        if table not in known:
            continue  # superseded by a checkpointed table-set change
        mutable = engine.mutable(table, policy)
        if kind == "compact":
            mutable.replay_compact(payload["cutoff"])
            applied += 1
            continue
        store = mutable.delta
        epoch = payload["epoch"]
        if epoch <= store.epoch:
            continue  # already inside the checkpointed sidecar
        if kind == "insert":
            store.replay_insert(rec.decode_rows(payload["rows"]), epoch)
        elif kind == "update":
            # One UPDATE or DELETE statement; its "epoch" is the first
            # sub-operation's, so the <= check above is right — the
            # statement is atomic w.r.t. checkpoints (emitted under the
            # table's writer lock, which the checkpoint also holds).
            store.replay_update(
                payload["mpos"],
                payload["didx"],
                rec.decode_rows(payload["rows"]),
                epoch,
            )
        elif kind == "delmain":
            # Older logs: one record per deleted main row.
            store.replay_update([payload["pos"]], [], [], epoch)
        elif kind == "deldelta":
            store.replay_update([], [payload["idx"]], [], epoch)
        else:
            raise WalCorruptionError(
                f"{wal.path}: unknown record type {kind!r} at lsn {lsn}"
            )
        applied += 1
    if applied:
        wal.metrics.counter("wal.recoveries").inc()
    return applied
