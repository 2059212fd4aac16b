"""Commit epochs: the version clock of the MVCC layer.

Multi-versioning here is *epoch-stamped*, not copy-on-commit: the
storage structures (row-group directory entries, delta rows, delete-
bitmap marks) each carry the commit epoch at which they became visible
(and, for retired/deleted entries, the epoch at which they stopped
being visible). A snapshot read therefore never copies anything — it
captures the current committed epoch ``E`` once and filters every
structure with plain comparisons::

    delta row visible at E      iff  insert_epoch <= E < tombstone_epoch
    row group visible at E      iff  created_epoch <= E < retired_epoch
    delete mark applies at E    iff  mark_epoch <= E

Uncommitted work is stamped :data:`PENDING_EPOCH` — a sentinel larger
than any real epoch, so it is invisible to every snapshot through the
same ``<=`` comparisons with no extra branch. Read *at* PENDING_EPOCH,
the same comparisons give the current state, pending work included:
what a caller alone, or inside the transaction that wrote it, reads
(a live row's delete epoch lies above it). Commit replaces PENDING
with the freshly allocated epoch *before* the epoch is published
(publish-last ordering), so a reader that captures ``current`` can
never observe a half-stamped commit:

* captured before publish: every structure it filters is either stamped
  with an epoch ``> captured`` or still PENDING — invisible either way;
* captured after publish: all stamps were installed first — visible.

Both cases are correct without the reader taking any lock, which is the
whole point (DESIGN.md "Multi-versioning").
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable

from ..observability import registry as metrics

# Epoch 0: state that predates (or is independent of) any transaction —
# freshly loaded snapshots and direct single-caller Table/index calls
# (WAL replay runs each record as a statement, at an epoch of its own).
# Visible to every reader.
GENESIS_EPOCH = 0

# Uncommitted state. Greater than any epoch the manager will ever
# allocate, so `stamp <= reader_epoch` is False for every lease reader;
# a reader at PENDING_EPOCH itself reads the current state.
PENDING_EPOCH = 1 << 62


class ReaderLease:
    """One registered reader's pinned epoch (release exactly once)."""

    __slots__ = ("epoch", "tag", "_registry", "_key", "released")

    def __init__(self, epoch: int, tag: str, registry: "ReaderRegistry", key: int) -> None:
        self.epoch = epoch
        self.tag = tag
        self._registry = registry
        self._key = key
        self.released = False

    def release(self) -> None:
        """Deregister; idempotent so teardown paths can call it safely."""
        if not self.released:
            self.released = True
            self._registry._release(self._key)

    def __enter__(self) -> "ReaderLease":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


class ReaderRegistry:
    """Active snapshot readers, keyed by lease; feeds the GC horizon."""

    def __init__(self, manager: "EpochManager") -> None:
        self._manager = manager
        self._mutex = threading.Lock()
        self._leases: dict[int, int] = {}  # lease key -> pinned epoch
        self._next_key = 0

    def pin(self, tag: str = "") -> ReaderLease:
        """Register a reader at the latest committed epoch.

        Reading ``current`` and registering happen under one mutex, so
        there is no window in which a vacuum could compute a horizon
        that misses a reader mid-pin. (Strictly the horizon rule already
        tolerates that window — a new reader always pins at an epoch
        >= any horizon — but the atomicity makes the invariant local.)
        """
        with self._mutex:
            epoch = self._manager.current
            key = self._next_key
            self._next_key += 1
            self._leases[key] = epoch
        metrics.increment("mvcc.reader_pins")
        self._publish_gauges()
        return ReaderLease(epoch, tag, self, key)

    def _release(self, key: int) -> None:
        with self._mutex:
            self._leases.pop(key, None)
        self._publish_gauges()

    def oldest_active(self) -> int | None:
        """The oldest pinned epoch, or None when no reader is registered."""
        with self._mutex:
            return min(self._leases.values()) if self._leases else None

    def release_all(self) -> int:
        """Forcibly release every registered lease; returns the count.

        The shutdown path: a lease leaked past :meth:`Database.close`
        would hold the GC horizon back forever. Outstanding
        :class:`ReaderLease` objects stay safe to release again — their
        keys are simply gone from the registry.
        """
        with self._mutex:
            count = len(self._leases)
            self._leases.clear()
        if count:
            self._publish_gauges()
        return count

    def __len__(self) -> int:
        with self._mutex:
            return len(self._leases)

    def _publish_gauges(self) -> None:
        oldest = self.oldest_active()
        metrics.get_registry().set_gauge(
            "mvcc.oldest_active_epoch",
            oldest if oldest is not None else self._manager.current,
        )


class EpochManager:
    """Allocates and publishes commit epochs for one database.

    ``current`` is the latest *published* (committed) epoch. Readers
    load it without a lock — a single int attribute read is atomic
    under the GIL, and publish-last ordering (see module docstring)
    makes the value safe to act on.

    One manager is shared by every table of a Database; each
    :class:`~repro.storage.columnstore.ColumnStoreIndex` starts with a
    private manager so bare single-index use works unchanged, and
    ``Database.create_table`` swaps in the shared one.
    """

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        self.current = GENESIS_EPOCH
        self.readers = ReaderRegistry(self)

    # ------------------------------------------------------------------ #
    # Commit protocol
    # ------------------------------------------------------------------ #
    def commit(self, finalizers: Iterable[Callable[[int], None]]) -> int:
        """Install one transaction's work at a fresh epoch.

        ``finalizers`` are the stamp hooks the transaction accumulated
        (:meth:`TxnContext.on_commit`): each replaces PENDING stamps
        with the allocated epoch. They run *before* ``current`` is
        published, which is what makes lock-free reads sound.
        """
        with self._mutex:
            epoch = self.current + 1
            for finalize in finalizers:
                finalize(epoch)
            self.current = epoch
        metrics.increment("mvcc.versions_installed")
        self.readers._publish_gauges()
        return epoch

    def advance_to(self, epoch: int) -> None:
        """Fast-forward the clock (WAL replay of logged commit epochs)."""
        with self._mutex:
            if epoch > self.current:
                self.current = epoch
        self.readers._publish_gauges()

    # ------------------------------------------------------------------ #
    # GC horizon
    # ------------------------------------------------------------------ #
    def horizon(self) -> int:
        """The newest epoch no reader can still see past.

        A structure retired at (or a tombstone stamped at) an epoch
        ``<= horizon()`` is invisible to every registered reader and to
        any reader that pins from now on, so vacuum may free it.
        """
        oldest = self.readers.oldest_active()
        return self.current if oldest is None else min(oldest, self.current)
