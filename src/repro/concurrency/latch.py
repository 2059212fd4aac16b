"""Per-table write latches: disjoint-table writers proceed in parallel.

Before MVCC, every writer took the exclusive side of the database-wide
:class:`~repro.concurrency.rwlock.ReadWriteLock` — one writer at a time,
whatever table it touched. With epoch-versioned storage readers no
longer need writers excluded at all, and two writers on *different*
columnstore tables touch disjoint structures (their own delta stores,
delete bitmaps and directories; the shared epoch manager and WAL have
their own internal mutexes). So an auto-commit columnstore DML statement
now takes:

* the **shared** side of the database lock — it still must not overlap
  DDL, explicit transactions, maintenance, or save (all of which take
  the exclusive side and reorganize or snapshot shared state), and
* this table's **write latch** — serializing writers per table.

The latch *is* the RW lock's write side minus the readers — one
:class:`~repro.concurrency.rwlock.OwnedLock`: owned by the acquirer's
token (never a thread), and a governed statement waiting on a busy latch
slices its wait so ``KILL`` and ``statement_timeout`` interrupt the
*wait* with the same typed, retryable
:class:`~repro.errors.LockTimeoutError` semantics as the lock path. A
latch acquire that raises never leaves the latch held.
"""

from __future__ import annotations

import threading

from .rwlock import DEFAULT_ACQUIRE_TIMEOUT_SECONDS, OwnedLock


class TableWriteLatch(OwnedLock):
    """One table's writer mutex (token-owned, governed waits)."""

    def __init__(
        self, name: str, timeout: float | None = DEFAULT_ACQUIRE_TIMEOUT_SECONDS
    ) -> None:
        super().__init__(
            f"the write latch of table {name!r}", "concurrency.latch_waits", timeout
        )
        self.name = name


class TableLatches:
    """The database's latch registry, one latch per table name.

    Latches are created on first use and never dropped — a handful of
    small objects per table, and keeping them alive sidesteps every
    drop/re-create race. Names are case-normalized the way the catalog
    normalizes table names.
    """

    def __init__(self, timeout: float | None = DEFAULT_ACQUIRE_TIMEOUT_SECONDS) -> None:
        self._latches: dict[str, TableWriteLatch] = {}
        self._mutex = threading.Lock()
        self._timeout = timeout

    def latch(self, table: str) -> TableWriteLatch:
        key = table.lower()
        with self._mutex:
            latch = self._latches.get(key)
            if latch is None:
                latch = TableWriteLatch(key, timeout=self._timeout)
                self._latches[key] = latch
            return latch
