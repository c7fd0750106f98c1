"""The append-only redo log: group commit, torn-tail repair, truncation.

A :class:`WriteAheadLog` owns one ``wal.log`` file inside a catalog
directory.  Records are framed by :mod:`repro.wal.records` and staged
in an in-memory buffer; :meth:`flush` writes the buffer and ``fsync``\\ s
the file — that call is the durability boundary, and *when* it runs is
the flush policy:

``"commit"``
    every transaction commit flushes — an acked commit is durable;
``"group"``
    flushes every ``group_size`` commits (and on checkpoint/close), so
    an acked commit may ride in the buffer for a bounded window — the
    classic group-commit trade documented in ``docs/wal-format.md``.

A transaction is one :meth:`begin`/:meth:`commit` pair per thread; a
second :meth:`begin` while one is open raises
:class:`~repro.errors.WalError`.  :meth:`commit` emits the ``commit``
record; :meth:`abort` ends the transaction *without* one — its staged
records become dead weight that recovery ignores.

Opening an existing log repairs a torn tail (truncates trailing crash
debris) and raises :class:`~repro.errors.WalCorruptionError` on damage
before the tail.  :meth:`truncate_all` starts a fresh file whose header
carries the old end LSN as its base — the checkpoint's last step
(see :func:`repro.storage.filefmt.save_engine`).

The log is thread-safe: transaction state (id, record count) is
*per thread*, so concurrent sessions each hold their own open
transaction, while the shared tail — buffer, file handle, LSNs, the
transaction-id counter, the group-commit tally — sits behind one
internal reentrant lock.  That lock is the *leaf* of the system's lock
order (``Database._commit_lock`` → table writer locks → here); nothing
inside it ever calls back out into table or catalog code.  Records from
concurrently open transactions interleave in the file; recovery already
sorts that out by filtering on committed transaction ids.
"""

from __future__ import annotations

import os
import threading
from pathlib import Path

from repro.errors import WalError
from repro.wal import records as rec
from repro.wal.crashpoints import crash_point, hook_installed

#: File name of the redo log inside a catalog directory.
WAL_FILENAME = "wal.log"

#: Default commits per group-commit flush.
DEFAULT_GROUP_SIZE = 8

_POLICIES = ("commit", "group")


def wal_path(directory) -> Path:
    return Path(directory) / WAL_FILENAME


def log_has_records(path) -> bool:
    """True when the log file at ``path`` holds at least one intact
    record (raises :class:`~repro.errors.WalCorruptionError` on a
    mangled header or mid-log damage, like any scan)."""
    data = Path(path).read_bytes()
    base = rec.decode_header(data, str(path))
    frames, _, _ = rec.scan_frames(data[rec.HEADER_SIZE:], base, str(path))
    return bool(frames)


class WriteAheadLog:
    """One catalog's redo log (see module docstring)."""

    def __init__(
        self,
        path,
        flush_policy: str = "commit",
        group_size: int = DEFAULT_GROUP_SIZE,
        metrics=None,
    ):
        if flush_policy not in _POLICIES:
            raise WalError(
                f"unknown flush policy {flush_policy!r}; use 'commit' or "
                f"'group'"
            )
        if group_size < 1:
            raise WalError(f"group_size must be >= 1, got {group_size}")
        if metrics is None:
            from repro.obs import NullRegistry

            metrics = NullRegistry()
        self.path = Path(path)
        self.flush_policy = flush_policy
        self.group_size = group_size
        self.metrics = metrics
        self._appends = metrics.counter("wal.appends")
        self._bytes = metrics.counter("wal.bytes")
        self._fsyncs = metrics.counter("wal.fsyncs")
        self._log_bytes = metrics.gauge("wal.log_bytes")
        self._buffer = bytearray()
        # Shared tail state (buffer, handle, LSNs, txn-id counter,
        # group-commit tally) lives behind this reentrant lock — the
        # leaf of the system lock order.  Transaction state is
        # per-thread so concurrent sessions each hold their own.
        self._lock = threading.RLock()
        self._local = threading.local()
        self._open_txns = 0  # across all threads, guarded by _lock
        self._unflushed_commits = 0
        self._closed = False
        self._open_file()

    # -- file lifecycle -------------------------------------------------

    def _open_file(self) -> None:
        if not self.path.exists():
            self.base_lsn = 0
            self._next_txn = 1
            with self.path.open("wb") as handle:
                handle.write(rec.encode_header(0))
                handle.flush()
                os.fsync(handle.fileno())
            self._durable_end = rec.HEADER_SIZE
        else:
            data = self.path.read_bytes()
            self.base_lsn = rec.decode_header(data, str(self.path))
            frames, end_lsn, torn = rec.scan_frames(
                data[rec.HEADER_SIZE:], self.base_lsn, str(self.path)
            )
            self._next_txn = 1 + max(
                (payload.get("txn", 0) for _, payload in frames), default=0
            )
            self._durable_end = end_lsn
            if torn:
                # Trailing crash debris: cut it off so appends restart
                # at the last intact frame boundary.
                crash_point("wal.open.repair")
                with self.path.open("r+b") as handle:
                    handle.truncate(end_lsn - self.base_lsn)
                    handle.flush()
                    os.fsync(handle.fileno())
        self._tail_lsn = self._durable_end
        self._handle = self.path.open("r+b")
        self._handle.seek(0, os.SEEK_END)
        self._log_bytes.set(self._durable_end - self.base_lsn)

    def close(self) -> None:
        """Flush any staged bytes (making buffered group commits
        durable) and release the file handle.  Idempotent."""
        if self._closed:
            return
        with self._lock:
            if self._open_txns:
                raise WalError(
                    f"cannot close the log inside an open transaction "
                    f"({self._open_txns} open)"
                )
            self.flush()
            self._handle.close()
            self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise WalError("write-ahead log is closed")

    # -- positions ------------------------------------------------------

    @property
    def durable_lsn(self) -> int:
        """One past the last byte flushed to disk."""
        return self._durable_end

    @property
    def end_lsn(self) -> int:
        """One past the last staged byte (buffer included)."""
        return self._tail_lsn

    # -- transactions ---------------------------------------------------

    def _state(self):
        """This thread's transaction state (txn id or None, record
        count), created on first touch."""
        local = self._local
        if not hasattr(local, "txn"):
            local.txn = None
            local.records = 0
        return local

    def begin(self) -> int:
        """Open a transaction on the calling thread; returns its id."""
        self._check_open()
        state = self._state()
        if state.txn is not None:
            raise WalError(
                f"transaction {state.txn} is already open on this thread"
            )
        with self._lock:
            state.txn = self._next_txn
            self._next_txn += 1
            self._open_txns += 1
        state.records = 0
        return state.txn

    def commit(self) -> None:
        """End the calling thread's transaction: emit the ``commit``
        record (when it staged any) and apply the flush policy."""
        self._check_open()
        state = self._state()
        if state.txn is None:
            raise WalError("commit without a matching begin")
        txn, state.txn = state.txn, None
        records, state.records = state.records, 0
        with self._lock:
            self._open_txns -= 1
            if records:
                crash_point("wal.commit.record")
                self._stage(rec.commit_record(txn))
                self._unflushed_commits += 1
                if self.flush_policy == "commit" or (
                    self._unflushed_commits >= self.group_size
                ):
                    self.flush()

    def abort(self) -> None:
        """End the calling thread's transaction without committing:
        staged records of this transaction stay in the log but, lacking
        a ``commit`` record, recovery never replays them."""
        self._check_open()
        state = self._state()
        if state.txn is None:
            raise WalError("abort without a matching begin")
        state.txn = None
        state.records = 0
        with self._lock:
            self._open_txns -= 1

    # -- appends --------------------------------------------------------

    def append(self, payload: dict) -> int:
        """Stage one redo record; returns its LSN.  ``payload`` must be
        a fresh dict (the constructors in :mod:`repro.wal.records`
        build one per call) — it is stamped in place.

        Outside a transaction the record auto-commits as a *single*
        frame: a ``"c": 1`` flag marks it as its own committed
        transaction, so the common statement-level commit pays one
        frame instead of a record + ``commit`` pair (see
        ``docs/wal-format.md``)."""
        self._check_open()
        state = self._state()
        if state.txn is None:
            with self._lock:
                payload["txn"] = self._next_txn
                self._next_txn += 1
                payload["c"] = 1
                return self._append_autocommit_frame(
                    rec.encode_frame(payload)
                )
        payload["txn"] = state.txn
        with self._lock:
            lsn = self._append_txn_frame(rec.encode_frame(payload))
        state.records += 1
        return lsn

    def append_insert(self, table: str, rows, epoch: int) -> int:
        """Stage an ``insert`` record through the pre-framed fast path
        (same bytes, no intermediate dict — see
        :func:`repro.wal.records.encode_insert_frame`); values the fast
        framer cannot take fall back to :meth:`append`."""
        self._check_open()
        state = self._state()
        if state.txn is None:
            with self._lock:
                frame = rec.encode_insert_frame(
                    table, rows, epoch, self._next_txn, True
                )
                if frame is None:
                    return self.append(
                        rec.insert_record(table, rows, epoch, 0)
                    )
                self._next_txn += 1
                return self._append_autocommit_frame(frame)
        frame = rec.encode_insert_frame(table, rows, epoch, state.txn, False)
        if frame is None:
            return self.append(rec.insert_record(table, rows, epoch, 0))
        with self._lock:
            lsn = self._append_txn_frame(frame)
        state.records += 1
        return lsn

    def _append_autocommit_frame(self, frame: bytes) -> int:
        """Buffer one self-committed frame and apply the flush policy.
        Caller holds ``_lock``."""
        crash_point("wal.append.frame")
        lsn = self._tail_lsn
        self._buffer.extend(frame)
        self._tail_lsn += len(frame)
        self._appends.inc()
        self._unflushed_commits += 1
        if self.flush_policy == "commit" or (
            self._unflushed_commits >= self.group_size
        ):
            self.flush()
        return lsn

    def _append_txn_frame(self, frame: bytes) -> int:
        """Buffer one frame belonging to the calling thread's open
        transaction (the caller counts it and holds ``_lock``)."""
        crash_point("wal.append.frame")
        lsn = self._tail_lsn
        self._buffer.extend(frame)
        self._tail_lsn += len(frame)
        self._appends.inc()
        return lsn

    def _stage(self, payload: dict) -> int:
        frame = rec.encode_frame(payload)
        lsn = self._tail_lsn
        self._buffer.extend(frame)
        self._tail_lsn += len(frame)
        return lsn

    def flush(self) -> None:
        """Write the staged bytes and ``fsync`` — the durability
        boundary.  The write is deliberately split in two so the crash
        harness can land between the halves and leave a genuinely torn
        tail on disk."""
        self._check_open()
        with self._lock:
            self._flush_locked()

    def _flush_locked(self) -> None:
        if not self._buffer:
            return
        data = bytes(self._buffer)
        crash_point("wal.flush.write")
        # The split write exists solely so the harness can land between
        # the halves; without a hook nothing can, so keep the single
        # write (torn-tail repair covers real mid-write crashes either
        # way).
        half = len(data) // 2 if hook_installed() else 0
        if half:
            self._handle.write(data[:half])
            self._handle.flush()
            crash_point("wal.flush.torn")
            self._handle.write(data[half:])
        else:
            self._handle.write(data)
        self._handle.flush()
        crash_point("wal.flush.fsync")
        os.fsync(self._handle.fileno())
        self._durable_end += len(data)
        self._buffer.clear()
        self._unflushed_commits = 0
        self._bytes.inc(len(data))
        self._fsyncs.inc()
        self._log_bytes.set(self._durable_end - self.base_lsn)

    # -- reading / truncation ------------------------------------------

    def scan(self) -> list[tuple[int, dict]]:
        """Every intact record currently on disk as ``(lsn, payload)``
        (recovery's input; the staged buffer is *not* included — it is
        exactly what a crash would lose)."""
        self._check_open()
        with self._lock:
            data = self.path.read_bytes()
            base = rec.decode_header(data, str(self.path))
            frames, _, _ = rec.scan_frames(
                data[rec.HEADER_SIZE:], base, str(self.path)
            )
            return frames

    def truncate_all(self) -> int:
        """Drop every record: start a fresh log file whose base LSN is
        the current durable end, via temp file + ``os.replace`` so a
        crash leaves either the old or the new log, never neither.
        Returns the new base LSN.  The checkpoint protocol calls this
        last, after every sidecar has been published (and quiesced —
        see :func:`repro.storage.filefmt.save_engine` — so nothing can
        land in the buffer between the flush and this truncation)."""
        self._check_open()
        with self._lock:
            if self._buffer:
                raise WalError("flush before truncating the log")
            new_base = self._durable_end
            temp = self.path.with_name(self.path.name + ".tmp")
            crash_point("wal.truncate.temp")
            with temp.open("wb") as handle:
                handle.write(rec.encode_header(new_base))
                handle.flush()
                os.fsync(handle.fileno())
            crash_point("wal.truncate.replace")
            os.replace(temp, self.path)
            self._handle.close()
            self.base_lsn = new_base
            self._durable_end = new_base + rec.HEADER_SIZE
            self._tail_lsn = self._durable_end
            self._handle = self.path.open("r+b")
            self._handle.seek(0, os.SEEK_END)
            self._log_bytes.set(self._durable_end - self.base_lsn)
            return new_base


class TableWal:
    """One table's view of the shared log: stamps every record with the
    table name and follows renames (the engine rewires the name on
    ``RENAME TABLE``)."""

    __slots__ = ("wal", "table")

    def __init__(self, wal: WriteAheadLog, table: str):
        self.wal = wal
        self.table = table

    def rename(self, new_name: str) -> None:
        self.table = new_name

    def log_insert(self, rows, epoch: int) -> None:
        self.wal.append_insert(self.table, rows, epoch)

    def log_update(self, positions, indices, rows, epoch: int) -> None:
        self.wal.append(
            rec.update_record(self.table, positions, indices, rows, epoch, 0)
        )

    def log_compact(self, cutoff: int) -> None:
        self.wal.append(rec.compact_record(self.table, cutoff, 0))
