"""repro.wal: crash-safe durability for the delta write path.

An append-only checksummed redo log (:class:`WriteAheadLog`) receives
every delta DML as epoch-tagged records inside transactions, commit is
the fsync boundary (``"commit"`` policy) or a bounded group-commit
window (``"group"``), a save of the catalog directory
(:func:`repro.storage.filefmt.save_engine` given the log) becomes a
checkpoint that records the log position in every sidecar and
truncates the log, and opening a catalog replays committed
transactions past the last checkpoint (:func:`recover`).  Every
crash-atomic step announces a labeled :func:`crash_point` for the
fault-injection harness.  Format and protocol: ``docs/wal-format.md``.
"""

from repro.wal.crashpoints import (
    CrashPoint,
    crash_hook,
    crash_point,
    install_crash_hook,
    known_labels,
)
from repro.wal.log import (
    DEFAULT_GROUP_SIZE,
    TableWal,
    WAL_FILENAME,
    WriteAheadLog,
    log_has_records,
    wal_path,
)
from repro.wal.recovery import recover, validate_checkpoints

__all__ = [
    "CrashPoint",
    "DEFAULT_GROUP_SIZE",
    "TableWal",
    "WAL_FILENAME",
    "WriteAheadLog",
    "crash_hook",
    "crash_point",
    "install_crash_hook",
    "known_labels",
    "log_has_records",
    "recover",
    "validate_checkpoints",
    "wal_path",
]
