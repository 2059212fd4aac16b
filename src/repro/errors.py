"""Exception hierarchy for the repro engine.

Every error raised by the public API derives from :class:`ReproError`, so
callers can catch a single base class. Subsystems raise the most specific
subclass that applies; messages always name the offending object (column,
table, token, ...) because these errors surface directly to users.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro engine.

    ``retryable`` partitions the taxonomy for clients: transient
    conditions (admission rejection, lock-acquire timeout, cancellation,
    resource exhaustion) are safe to retry after a backoff, while
    semantic failures (syntax, binding, constraint violations) will fail
    the same way every time.
    """

    retryable = False


class RetryableError(ReproError):
    """A transient failure: the same statement may succeed if retried.

    The server surfaces ``retryable`` in error payloads and
    :class:`~repro.server.ServerClient` retries these classes with
    jittered exponential backoff.
    """

    retryable = True


class SchemaError(ReproError):
    """Invalid schema definition: duplicate columns, bad types, arity mismatch."""


class TypeMismatchError(ReproError):
    """A value or expression does not match the expected column/operand type."""


class StorageError(ReproError):
    """Corruption or misuse detected inside the storage layer."""


class EncodingError(StorageError):
    """A column segment could not be encoded or decoded."""


class CorruptBlobError(EncodingError):
    """A persisted blob is truncated, bit-flipped, or otherwise corrupt.

    Raised by bounds-checked decode paths (segment blobs, row blobs) and
    by checksum verification at load time. ``path`` names the offending
    file when the corruption was found on disk.
    """

    def __init__(self, message: str, path: str | None = None) -> None:
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)
        self.path = path


class RecoveryError(StorageError):
    """A saved database directory cannot be opened.

    Covers missing/unparseable manifests, files listed in the manifest
    but absent on disk, and metadata that fails structural validation.
    Distinct from :class:`CorruptBlobError`, which means a present file
    has bad bytes.
    """


class WalCorruptError(StorageError):
    """A write-ahead-log segment is damaged beyond the tolerated torn tail.

    Raised when a bad record is followed by well-formed records (mid-log
    corruption), when segments are non-contiguous (an LSN gap), or when
    the log no longer connects to the snapshot's checkpoint LSN. The
    message names the offending segment file and byte offset. A torn
    *final* record is not an error — recovery truncates it.
    """

    def __init__(
        self, message: str, segment: str | None = None, offset: int | None = None
    ) -> None:
        if segment is not None:
            where = segment if offset is None else f"{segment} @ byte {offset}"
            message = f"{where}: {message}"
        super().__init__(message)
        self.segment = segment
        self.offset = offset


class ReplayError(StorageError):
    """Re-applying a structurally valid WAL record to the database failed.

    Means the log and the snapshot diverged (a record references a table,
    locator, or row the reconstructed state does not have) — distinct
    from :class:`WalCorruptError`, which means bad bytes in the log
    itself. The message names the record's LSN and type.
    """


class BackupError(StorageError):
    """A backup image is unusable or could not be taken.

    Raised when a backup manifest is missing/corrupt, a file listed in it
    fails size/CRC verification, or the read-back verification of a
    freshly written backup fails. A backup that raises this is *never*
    restorable-as-valid — restore refuses before touching the destination.
    """


class RestoreError(StorageError):
    """A restore could not run or could not complete.

    Covers a non-empty destination, a missing/gapped WAL archive, and
    interrupted-restore markers. Distinct from :class:`BackupError`,
    which means the *source* image is bad.
    """


class RestoreTargetError(RestoreError):
    """The requested point-in-time target is not a commit boundary.

    Raised for ``--to-lsn`` values that land inside an explicit
    transaction (or on no record at all) and for ``--to-txn`` ids that
    never committed in the available log. The message names the
    enclosing transaction and the nearest valid boundaries.
    """

    def __init__(
        self,
        message: str,
        target: int | None = None,
        previous_boundary: int | None = None,
        next_boundary: int | None = None,
    ) -> None:
        super().__init__(message)
        self.target = target
        self.previous_boundary = previous_boundary
        self.next_boundary = next_boundary


class TxnError(ReproError):
    """Misuse of the transaction API.

    Raised for BEGIN inside an open transaction, COMMIT/ROLLBACK with no
    transaction open, and for operations that refuse to run while a
    transaction is open (checkpointing ``save``, the tuple mover and
    other maintenance — they would persist or reorganize uncommitted
    rows). Statement *failures* inside a transaction are not TxnErrors:
    the statement's own error propagates after its effects are undone.
    """


class ConcurrencyError(ReproError):
    """Misuse of the multi-session concurrency layer.

    Raised for statements against a closed session or server, for a
    reader/writer lock acquisition that exceeds its timeout (a likely
    sign of a session idling inside BEGIN..COMMIT while holding the
    write side), and for session-ownership violations (one session
    trying to COMMIT another session's transaction).
    """


class LockTimeoutError(RetryableError, ConcurrencyError):
    """A reader/writer lock acquisition exceeded its timeout budget.

    Retryable: the holder usually finishes (or is itself killed) soon
    after; catching plain :class:`ConcurrencyError` still works for
    callers that predate the split.
    """


class QueryCancelledError(RetryableError):
    """The statement was cancelled at a cooperative checkpoint.

    Raised when a client requested cancel on its own statement. The
    statement's effects are rolled back through the undo machinery, so
    retrying is safe — hence retryable.
    """

    def __init__(self, message: str, query_id: int | None = None) -> None:
        super().__init__(message)
        self.query_id = query_id


class QueryKilledError(QueryCancelledError):
    """The statement was killed by another session via ``KILL <id>``."""


class QueryTimeoutError(ReproError):
    """The statement exceeded its ``statement_timeout`` deadline.

    Deliberately *not* retryable: re-running the same statement with the
    same timeout will usually time out again — the client should raise
    the timeout or change the query, not hammer the server.
    """

    def __init__(self, message: str, query_id: int | None = None) -> None:
        super().__init__(message)
        self.query_id = query_id


class AdmissionError(RetryableError):
    """The server shed this request: too many connections or statements.

    Pure load shedding — nothing executed, so a retry after backoff is
    always safe.
    """


class CatalogError(ReproError):
    """Unknown or duplicate table / column / index name."""


class PlanningError(ReproError):
    """The planner could not produce a physical plan for a logical query."""


class BindingError(PlanningError):
    """Name resolution or type checking of a query failed."""


class SqlSyntaxError(ReproError):
    """The SQL text could not be tokenized or parsed.

    ``position`` is the character offset into the statement text;
    ``line`` / ``column`` (both 1-based) are filled in when the parser
    has the source text at hand, and take over the message suffix so
    errors point at the offending token in multi-line statements.
    """

    def __init__(
        self,
        message: str,
        position: int | None = None,
        line: int | None = None,
        column: int | None = None,
    ) -> None:
        if line is not None and column is not None:
            message = f"{message} (line {line}, column {column})"
        elif position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)
        self.position = position
        self.line = line
        self.column = column


class ExecutionError(ReproError):
    """A runtime failure while executing a physical plan."""


class ResourceExhaustedError(RetryableError, ExecutionError):
    """A hard memory cap (per-query or process-wide) was exceeded.

    Raised instead of letting an oversized operator OOM the process.
    Retryable: concurrent queries release their reservations as they
    finish, so the same statement may fit on a later attempt.
    """


class ConstraintError(ReproError):
    """A DML statement violated a declared constraint (e.g. NOT NULL)."""
