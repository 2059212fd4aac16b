"""One client's view of a shared Database.

A :class:`Session` is the statement pipeline's
:class:`~repro.sql.runner.Isolation` object with the shared-database
fields set — the database-wide
:class:`~repro.concurrency.rwlock.ReadWriteLock` and the per-table
:class:`~repro.concurrency.latch.TableWriteLatch` registry — plus a
lifecycle (open / close, a snapshot held across statements, cancel).
What that isolation means, stage by stage, is the pipeline's business
(:mod:`repro.sql.runner`, DESIGN.md "Statement pipeline"):

* **Reads** take no lock: a reader lease at the latest committed epoch,
  every columnstore leaf pinned to it. Plans with row-store leaves run
  under the shared side.
* **Columnstore auto-commit DML** takes the shared side plus its table's
  write latch; row-store / BOTH-storage DML and all DDL take the
  exclusive side.
* **BEGIN** takes the exclusive side until COMMIT/ROLLBACK.

The session object is the ownership token for all three (write lock,
latch, transaction), so a transaction may be driven from any thread —
one statement at a time, which the session's own lock ensures.
"""

from __future__ import annotations

import threading
from typing import Any

from ..errors import ConcurrencyError
from ..governance import get_query_registry
from ..observability import registry as metrics
from ..sql.runner import Isolation, end_transaction, run_statement
from .latch import TableLatches
from .rwlock import ReadWriteLock


class Session(Isolation):
    """A named client of one shared Database (see module docstring).

    Obtained from :meth:`ConcurrentDatabase.session`; usable as a
    context manager. One session serializes its own statements with an
    internal lock, so sharing a Session object between threads is safe.
    """

    def __init__(
        self,
        name: str,
        db,
        lock: ReadWriteLock,
        on_close=None,
        latches: TableLatches | None = None,
    ) -> None:
        super().__init__(name=name, lock=lock, latches=latches)
        self._db = db
        self._on_close = on_close
        self._closed = False
        # Serializes statements *within* this session; the RW lock
        # coordinates *across* sessions.
        self._statement_lock = threading.RLock()
        self.statements = 0
        metrics.increment("concurrency.sessions")

    def sql(self, text: str, **options: Any):
        """Execute one SQL statement through the statement pipeline."""
        with self._statement_lock:
            self._require_open()
            self.statements += 1
            return run_statement(self._db, text, self, **options)

    @property
    def in_transaction(self) -> bool:
        return self.in_txn

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Roll back any open transaction and release everything held."""
        with self._statement_lock:
            if self._closed:
                return
            self._closed = True
            # A leaked lease would hold the GC horizon back forever.
            self.release_snapshot()
            try:
                if self.in_txn:
                    end_transaction(self._db, self, commit=False)
            finally:
                if self._on_close is not None:
                    self._on_close(self)

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else ("in-txn" if self.in_txn else "idle")
        return f"<Session {self.name} {state} statements={self.statements}>"

    def cancel_running(self) -> bool:
        """Cancel this session's in-flight statement (from another thread).

        Returns True when a governed statement was running and its
        context was flagged; the statement raises QueryCancelledError at
        its next cooperative checkpoint.
        """
        query_id = self.running_query_id
        if query_id is None:
            return False
        return get_query_registry().cancel(query_id)

    # ------------------------------------------------------------------ #
    # Snapshot holds (repeatable-read across statements)
    # ------------------------------------------------------------------ #
    def hold_snapshot(self) -> int:
        """Pin a reader lease and keep it across statements.

        Every subsequent read of this session runs at the returned
        epoch until :meth:`release_snapshot` — a writer may commit any
        number of times in between and the session's results stay
        exactly what the epoch saw (repeatable read). The lease also
        holds the GC horizon back, so the versions it needs survive
        vacuum. Idempotent: calling again returns the held epoch.
        """
        with self._statement_lock:
            self._require_open()
            if self.lease is None:
                self.lease = self._db.mvcc.readers.pin(tag=self.name)
            return self.lease.epoch

    def release_snapshot(self) -> None:
        """Release the held lease (no-op when none is held)."""
        with self._statement_lock:
            if self.lease is not None:
                self.lease.release()
                self.lease = None

    @property
    def snapshot_epoch(self) -> int | None:
        """The held snapshot's epoch, or None when not holding one."""
        lease = self.lease
        return None if lease is None else lease.epoch

    def _require_open(self) -> None:
        if self._closed:
            raise ConcurrencyError(f"session {self.name!r} is closed")
