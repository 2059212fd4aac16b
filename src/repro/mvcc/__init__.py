"""MVCC snapshot isolation: epoch-versioned storage (DESIGN.md
"Multi-versioning").

The subsystem is two small pieces — an :class:`EpochManager` (the
commit-epoch clock plus maintenance/replay advancement) and its
embedded :class:`ReaderRegistry` (active snapshot leases, feeding the
GC horizon). Everything else is stamps on the existing storage
structures: see :mod:`repro.storage.delete_bitmap`,
:mod:`repro.storage.deltastore`, :mod:`repro.storage.directory` and
:meth:`repro.storage.columnstore.ColumnStoreIndex.pin_scan_units`, which
every columnstore read goes through: a capture at a reader lease's
epoch, or at :data:`PENDING_EPOCH` — the current state, pending work
included — for a caller that is alone or inside the transaction that
wrote the data.
"""

from .epoch import (
    GENESIS_EPOCH,
    PENDING_EPOCH,
    EpochManager,
    ReaderLease,
    ReaderRegistry,
)

__all__ = [
    "GENESIS_EPOCH",
    "PENDING_EPOCH",
    "EpochManager",
    "ReaderLease",
    "ReaderRegistry",
]
