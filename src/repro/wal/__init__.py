"""Write-ahead logging: durable DML between snapshots.

The snapshot layer (:mod:`repro.storage.snapshot`) makes whole saves
crash-safe; this package extends the guarantee to *every committed
statement*. The facade applies a statement's change, then appends its
redo record; :meth:`Database.load` replays the log tail past the newest
snapshot's checkpoint LSN through the same apply, and
:meth:`Database.save` doubles as the checkpoint that lets covered
segments be truncated.

See :mod:`repro.wal.record` for the on-disk framing,
:mod:`repro.wal.log` for the segmented log and group commit, and
:mod:`repro.wal.replay` for payload codecs and recovery application.
"""

from .log import (
    DEFAULT_GROUP_COMMIT_SIZE,
    DEFAULT_SEGMENT_BYTES,
    DURABILITY_MODES,
    WAL_DIR_NAME,
    WalRecovery,
    WalVerdict,
    WriteAheadLog,
    check_wal,
    normalize_durability,
)
from .record import (
    AUTO_COMMIT_TXN,
    TXN_MARKER_TYPES,
    WalRecord,
    WalRecordType,
    encode_record,
    scan_segment,
)

__all__ = [
    "AUTO_COMMIT_TXN",
    "TXN_MARKER_TYPES",
    "DEFAULT_GROUP_COMMIT_SIZE",
    "DEFAULT_SEGMENT_BYTES",
    "DURABILITY_MODES",
    "WAL_DIR_NAME",
    "WalRecord",
    "WalRecordType",
    "WalRecovery",
    "WalVerdict",
    "WriteAheadLog",
    "check_wal",
    "encode_record",
    "normalize_durability",
    "scan_segment",
]
