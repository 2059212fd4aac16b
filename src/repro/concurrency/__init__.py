"""Multi-session concurrency layer: lock-free MVCC reads, latched writes.

See DESIGN.md "Statement pipeline" and "Multi-versioning" for the model.
Public surface:

* :class:`ConcurrentDatabase` — shared-database coordinator.
* :class:`Session` — one client's view (snapshot reads, owned txns).
* :class:`ReadWriteLock` — the writer-preference lock for exclusive
  operations (DDL, explicit transactions, maintenance, save).
* :class:`TableWriteLatch` / :class:`TableLatches` — per-table writer
  mutexes letting disjoint-table writers proceed concurrently.
"""

from .database import ConcurrentDatabase
from .latch import TableLatches, TableWriteLatch
from .rwlock import ReadWriteLock
from .session import Session

__all__ = [
    "ConcurrentDatabase",
    "ReadWriteLock",
    "Session",
    "TableLatches",
    "TableWriteLatch",
]
