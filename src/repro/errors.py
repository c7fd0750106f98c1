"""Exception hierarchy for the CODS reproduction.

Every error raised by the library derives from :class:`CodsError`, so a
caller can guard an entire evolution plan with a single ``except`` clause.
The subclasses mirror the layers of the system: storage, schema/SMO
validation, SQL parsing/execution and the evolution engine itself.
"""

from __future__ import annotations


class CodsError(Exception):
    """Base class for all errors raised by this library."""


class StorageError(CodsError):
    """A problem in the physical storage layer (bitmaps, columns, files)."""


class BitmapError(StorageError):
    """Invalid bitmap operation, e.g. length mismatch in a logical op."""


class SerializationError(StorageError):
    """A table or column file is malformed or version-incompatible."""


class WalError(StorageError):
    """A problem in the write-ahead log subsystem (``repro.wal``):
    misuse of the log API, a durability mode mismatch on open, or a
    recovery precondition that does not hold."""


class WalCorruptionError(WalError):
    """The write-ahead log is damaged in a way recovery cannot repair
    silently: a checksum mismatch *before* the final record, a mangled
    header, or a checkpoint pointing outside the log.  A torn final
    record is *not* corruption — it is the expected shape of a crash
    mid-append and recovery discards it."""


class SchemaError(CodsError):
    """Schema-level violation: unknown table/column, duplicate names, etc."""


class SmoValidationError(SchemaError):
    """A schema modification operator is not applicable to the catalog."""


class LosslessJoinError(SmoValidationError):
    """A requested decomposition is not lossless-join."""


class SqlError(CodsError):
    """Base class for errors in the SQL subset engine."""


class SqlSyntaxError(SqlError):
    """The SQL text could not be tokenized or parsed."""


class SqlExecutionError(SqlError):
    """The statement parsed but could not be executed."""


class CapabilityError(CodsError):
    """An operation on a handle that cannot serve it: a closed session
    or cursor, or a fetch with no result set."""


class TransactionError(CodsError):
    """Misuse of a :meth:`repro.db.Database.transaction` scope: writes
    in a read-only scope, schema changes inside any scope, or use of a
    scope that already committed or rolled back."""


class TransactionConflict(TransactionError):
    """A commit lost to another writer (first committer wins) and
    applied nothing: a row it deleted or updated was deleted since its
    pin, or a table it wrote was dropped or consumed by a schema
    change.  The message names the table and the reason."""

    @classmethod
    def on(cls, table: str, reason: str) -> "TransactionConflict":
        return cls(f"transaction conflict on table {table!r}: {reason}")


class NetworkError(CodsError):
    """A transport-level problem in the client/server layer
    (:mod:`repro.server` / :mod:`repro.client`): the peer hung up, the
    connection was reaped, or a send/recv failed."""


class ProtocolError(NetworkError):
    """The byte stream is not a valid CODS wire conversation: bad
    magic, unsupported version, a checksum mismatch, an oversized
    frame, or a command the server does not understand."""


class AuthenticationError(NetworkError):
    """The server requires an auth token and the ``hello`` frame's
    token was missing or wrong."""


class EvolutionError(CodsError):
    """The evolution engine failed while applying an operator."""


class ObservabilityError(CodsError):
    """Misuse of the metrics registry (e.g. setting a callback-backed
    gauge) or of the query-tracing machinery."""


class WorkloadError(CodsError):
    """Invalid workload-generator parameters."""
