"""ConcurrentDatabase: a multi-session facade over one shared Database.

The core :class:`~repro.db.database.Database` is single-caller by
design — one thread parses, mutates and reads. This facade adds the
coordination layer from DESIGN.md "Statement pipeline": N sessions
share the engine through one
:class:`~repro.concurrency.rwlock.ReadWriteLock`, readers pin
snapshots, writers serialize, and maintenance operations (tuple mover,
REBUILD, archival, save/checkpoint) take the exclusive side like any
other writer. The embedded server
(:mod:`repro.server`) opens one session per connection against an
instance of this class.
"""

from __future__ import annotations

import itertools
import threading
from typing import Any

from ..db.database import Database
from ..errors import ConcurrencyError
from .latch import TableLatches
from .rwlock import ReadWriteLock
from .session import Session


class ConcurrentDatabase:
    """Shared-database coordinator: sessions, RW lock, maintenance.

    Wraps an existing :class:`Database` (``ConcurrentDatabase(db)``) or
    opens a durable one (:meth:`open`). The wrapped engine stays fully
    functional for direct single-threaded use, but once sessions are
    live all access should flow through them or through this facade's
    maintenance wrappers — direct ``db`` calls bypass the lock.
    """

    def __init__(self, db: Database | None = None) -> None:
        self.db = db if db is not None else Database()
        self.lock = ReadWriteLock()
        # Per-table write latches: columnstore auto-commit DML holds the
        # shared lock side + its table's latch, so writers on disjoint
        # tables proceed concurrently (DESIGN.md "Multi-versioning").
        self.latches = TableLatches()
        self._sessions: dict[str, Session] = {}
        self._registry_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._closed = False
        # Implicit sessions of the .sql() convenience, keyed by the
        # calling Thread *object* (an ident is recycled; an object the
        # dict keeps alive is not).
        self._implicit: dict[threading.Thread, Session] = {}

    @classmethod
    def open(cls, path: str, **kwargs: Any) -> "ConcurrentDatabase":
        """Open a durable database (see :meth:`Database.open`) wrapped
        for concurrent use."""
        return cls(Database.open(path, **kwargs))

    # ------------------------------------------------------------------ #
    # Sessions
    # ------------------------------------------------------------------ #
    def session(self, name: str | None = None) -> Session:
        """Open a new named session. Close it (or use ``with``) when done."""
        with self._registry_lock:
            if self._closed:
                raise ConcurrencyError("database is closed")
            if name is None:
                name = f"session-{next(self._ids)}"
            if name in self._sessions:
                raise ConcurrencyError(f"session name {name!r} is already in use")
            session = Session(
                name, self.db, self.lock, on_close=self._forget, latches=self.latches
            )
            self._sessions[name] = session
            return session

    def _forget(self, session: Session) -> None:
        with self._registry_lock:
            self._sessions.pop(session.name, None)

    @property
    def session_names(self) -> list[str]:
        with self._registry_lock:
            return sorted(self._sessions)

    def sql(self, text: str, **options: Any):
        """Run one statement on this thread's implicit session.

        Each calling thread gets its own lazily-created session, so
        plain ``cdb.sql(...)`` from worker threads composes correctly
        with explicit transactions (which are per-session). A session
        lives as long as its thread: every call first closes the
        implicit sessions of threads that have exited (rolling back
        whatever they left open).
        """
        me = threading.current_thread()
        with self._registry_lock:
            dead = [thread for thread in self._implicit if not thread.is_alive()]
            orphaned = [self._implicit.pop(thread) for thread in dead]
            session = self._implicit.get(me)
        for orphan in orphaned:
            orphan.close()
        if session is None or session.closed:
            session = self.session(f"implicit-{next(self._ids)}")
            with self._registry_lock:
                self._implicit[me] = session
        return session.sql(text, **options)

    # ------------------------------------------------------------------ #
    # Maintenance — exclusive, like any writer
    # ------------------------------------------------------------------ #
    # These reorganize shared structures (and log themselves), so they
    # take the write side: no reader is mid-pin and no writer is
    # mid-statement while they run. Readers that already pinned are
    # unaffected — reorganization swaps in new objects.
    def run_tuple_mover(self, table: str, include_open: bool = False):
        with self.lock.write_locked():
            return self.db.run_tuple_mover(table, include_open)

    def rebuild(self, table: str) -> None:
        with self.lock.write_locked():
            self.db.rebuild(table)

    def set_archival(self, table: str, enabled: bool) -> None:
        with self.lock.write_locked():
            self.db.set_archival(table, enabled)

    def save(self, path: str, disk=None, force: bool = False) -> None:
        with self.lock.write_locked():
            self.db.save(path, disk=disk, force=force)

    def backup(self, dest: str, disk=None, barrier_hook=None):
        """Hot-backup the shared database into ``dest``.

        Only the *barrier* (flush the WAL, capture the backup LSN, pin
        the MVCC epoch, capture the snapshot manifest) runs under the
        write lock — an instant, no I/O proportional to data size. The
        long copy phase runs with the lock released: sessions keep
        reading and committing, and everything they commit lands after
        the backup's cut line. Returns a
        :class:`~repro.backup.backup.BackupResult`.
        """
        from ..backup.backup import prepare_backup

        with self.lock.write_locked():
            job = prepare_backup(self.db, dest, disk=disk, barrier_hook=barrier_hook)
        return job.run()

    def vacuum(self, table: str | None = None) -> dict[str, int]:
        """Free MVCC versions no registered reader can see.

        Takes the exclusive side like other maintenance — not because
        vacuum needs it for correctness (retire/capture atomicity is
        the index's own mutex), but so the freed counts it reports are
        not racing in-flight latch writers.
        """
        with self.lock.write_locked():
            return self.db.vacuum(table)

    # ------------------------------------------------------------------ #
    # Shutdown
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Close every session (rolling back open transactions), then
        the engine. Safe to call twice."""
        with self._registry_lock:
            if self._closed:
                return
            self._closed = True
            sessions = list(self._sessions.values())
        for session in sessions:
            session.close()
        with self.lock.write_locked():
            self.db.close()

    def __enter__(self) -> "ConcurrentDatabase":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
