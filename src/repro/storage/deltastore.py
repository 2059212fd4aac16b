"""Delta stores: B-tree row stores absorbing trickle inserts.

New rows that arrive one at a time (or in small batches) land in the open
delta store — an uncompressed B-tree keyed by row id, exactly as in the
paper. When a delta store reaches the close threshold it stops accepting
inserts and waits for the tuple mover to compress it into a row group.

MVCC: each row carries an insert epoch, and deletes against delta rows
*tombstone* them (stamp a delete epoch) instead of removing them from
the B-tree — a snapshot reader pinned before the delete committed still
needs the row. Physical removal is deferred to :meth:`gc`, driven by the
vacuum pass once no registered reader can see the tombstoned row. All
current-state accessors (``row_count``, ``get``, ``scan`` …) present
only live (un-tombstoned) rows, so single-caller behavior is unchanged;
:meth:`capture` materializes the rows visible at a specific epoch.

Redo determinism: delta ids, row ids and the open/closed transitions are
pure functions of the insert/close sequence, so WAL replay
(:mod:`repro.wal.replay`) driving the same statements through the same
thresholds reconstructs structurally identical delta stores — which is
what lets later log records address rows by (delta id, position).
Tombstoned-but-not-yet-collected rows never change that: row ids are
never reused, and replayed deletes are txn-less so their tombstones are
collected by the same deterministic vacuum rule.
"""

from __future__ import annotations

import enum
import threading
from typing import Any, Iterator

import numpy as np

from ..errors import StorageError
from ..mvcc import GENESIS_EPOCH, PENDING_EPOCH
from ..observability import registry as metrics
from ..schema import TableSchema
from .btree import BPlusTree


class DeltaState(enum.Enum):
    OPEN = "open"
    CLOSED = "closed"


class DeltaStore:
    """One delta store of a columnstore index."""

    def __init__(self, delta_id: int, schema: TableSchema, btree_order: int = 64) -> None:
        self.delta_id = delta_id
        self.schema = schema
        self.state = DeltaState.OPEN
        self._rows = BPlusTree(order=btree_order)
        # MVCC stamps. A row id present in _rows but absent from
        # _insert_epochs was inserted at GENESIS (loaded snapshots and
        # replayed state take this path); _tombstones maps row id ->
        # delete epoch for rows deleted-but-not-yet-collected.
        self._insert_epochs: dict[int, int] = {}
        self._tombstones: dict[int, int] = {}
        # Guards the B-tree + stamp dicts against lock-free capture():
        # snapshot readers materialize columnar copies while writers
        # keep inserting/tombstoning.
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return self.row_count

    @property
    def row_count(self) -> int:
        """Live (un-tombstoned) rows — the current-state view."""
        return len(self._rows) - len(self._tombstones)

    @property
    def physical_row_count(self) -> int:
        """All rows still in the B-tree, tombstoned ones included."""
        return len(self._rows)

    @property
    def is_open(self) -> bool:
        return self.state is DeltaState.OPEN

    def close(self) -> None:
        """Stop accepting inserts; the tuple mover may now compress it."""
        if self.state is DeltaState.OPEN:
            metrics.increment("storage.delta.stores_closed")
        self.state = DeltaState.CLOSED

    def reopen(self) -> None:
        """Undo a close transition (rollback of the insert that tripped
        the close threshold). Only the transaction layer calls this."""
        self.state = DeltaState.OPEN

    # ------------------------------------------------------------------ #
    # DML
    # ------------------------------------------------------------------ #
    def insert(
        self, row_id: int, values: tuple[Any, ...], epoch: int = GENESIS_EPOCH
    ) -> None:
        if self.state is not DeltaState.OPEN:
            raise StorageError(f"delta store {self.delta_id} is closed")
        with self._lock:
            if row_id in self._rows:
                raise StorageError(f"duplicate row id {row_id} in delta store")
            self._rows.insert(row_id, values)
            if epoch != GENESIS_EPOCH:
                self._insert_epochs[row_id] = epoch
        metrics.increment("storage.delta.rows_inserted")

    def stamp_insert(self, row_id: int, epoch: int) -> None:
        """Commit hook: replace a PENDING insert epoch with the real one.

        No-op if the row is gone (rolled back) or already stamped.
        """
        with self._lock:
            if self._insert_epochs.get(row_id) == PENDING_EPOCH:
                if epoch == GENESIS_EPOCH:
                    del self._insert_epochs[row_id]
                else:
                    self._insert_epochs[row_id] = epoch

    def delete(self, row_id: int) -> bool:
        """Physically remove a row; returns ``False`` if absent.

        This is the *non-versioned* removal used by insert undo (the row
        was never visible to anyone) and by direct single-caller code.
        Versioned deletes go through :meth:`tombstone`.
        """
        with self._lock:
            if not self._rows.delete(row_id):
                return False
            self._insert_epochs.pop(row_id, None)
            self._tombstones.pop(row_id, None)
            return True

    def tombstone(self, row_id: int, epoch: int) -> bool:
        """Mark a row deleted as of ``epoch``; ``False`` if already gone.

        The row stays in the B-tree for snapshot readers at older epochs;
        :meth:`gc` removes it once the GC horizon passes ``epoch``.
        """
        with self._lock:
            if row_id not in self._rows or row_id in self._tombstones:
                return False
            self._tombstones[row_id] = epoch
            return True

    def stamp_tombstone(self, row_id: int, epoch: int) -> None:
        """Commit hook: replace a PENDING tombstone with its commit epoch."""
        with self._lock:
            if self._tombstones.get(row_id) == PENDING_EPOCH:
                self._tombstones[row_id] = epoch

    def clear_tombstone(self, row_id: int) -> bool:
        """Delete undo: make a tombstoned row live again."""
        with self._lock:
            return self._tombstones.pop(row_id, None) is not None

    def restore(self, row_id: int, values: tuple[Any, ...]) -> None:
        """Re-insert a deleted row (delete undo), even when closed.

        Bypasses the OPEN check and the insert metrics: the row is not
        new, it is the original row coming back under its original id.
        Handles both removal flavors — a tombstoned row comes back by
        clearing the tombstone, a physically removed one by re-insertion.
        """
        with self._lock:
            if row_id in self._rows:
                if self._tombstones.pop(row_id, None) is not None:
                    return
                raise StorageError(
                    f"cannot restore row {row_id}: it is still present in "
                    f"delta store {self.delta_id}"
                )
            self._rows.insert(row_id, values)

    def get(self, row_id: int) -> tuple[Any, ...] | None:
        with self._lock:
            if row_id in self._tombstones:
                return None
            return self._rows.get(row_id)

    # ------------------------------------------------------------------ #
    # Garbage collection
    # ------------------------------------------------------------------ #
    def gc(self, horizon: int) -> int:
        """Physically remove tombstoned rows no reader can see.

        A tombstone at epoch ``e <= horizon`` is invisible to every
        registered reader and to all future ones, so the row is removed
        from the B-tree. Returns the number of rows collected.
        """
        with self._lock:
            dead = [rid for rid, e in self._tombstones.items() if e <= horizon]
            for rid in dead:
                self._rows.delete(rid)
                self._insert_epochs.pop(rid, None)
                del self._tombstones[rid]
        return len(dead)

    # ------------------------------------------------------------------ #
    # Scans
    # ------------------------------------------------------------------ #
    def _live_items(self) -> list[tuple[int, tuple[Any, ...]]]:
        with self._lock:
            return [
                (rid, row)
                for rid, row in self._rows.items()
                if rid not in self._tombstones
            ]

    def scan(self) -> Iterator[tuple[int, tuple[Any, ...]]]:
        """(row_id, row) pairs of live rows, in row-id order."""
        return iter(self._live_items())

    def _items_at(self, epoch: int) -> list[tuple[int, tuple[Any, ...]]]:
        """Rows committed and not yet deleted as of ``epoch``."""
        with self._lock:
            inserts = self._insert_epochs
            tombs = self._tombstones
            return [
                (rid, row)
                for rid, row in self._rows.items()
                if inserts.get(rid, GENESIS_EPOCH) <= epoch
                and tombs.get(rid, PENDING_EPOCH + 1) > epoch
            ]

    def _columnize(
        self, rows: list[tuple[int, tuple[Any, ...]]]
    ) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray | None], list[int]]:
        row_ids = [row_id for row_id, _ in rows]
        columns: dict[str, np.ndarray] = {}
        null_masks: dict[str, np.ndarray | None] = {}
        n = len(rows)
        for position, col in enumerate(self.schema):
            raw = [row[position] for _, row in rows]
            mask = np.fromiter((v is None for v in raw), dtype=bool, count=n)
            has_nulls = bool(mask.any())
            dtype = col.dtype.numpy_dtype
            if dtype == object:
                arr = np.empty(n, dtype=object)
                arr[:] = ["" if v is None else v for v in raw]
            else:
                fill = 0 if dtype != np.bool_ else False
                arr = np.array([fill if v is None else v for v in raw], dtype=dtype)
            columns[col.name] = arr
            null_masks[col.name] = mask if has_nulls else None
        return columns, null_masks, row_ids

    def to_columns(self) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray | None], list[int]]:
        """Materialize live rows as column arrays for vectorized scans /
        compression.

        Returns (columns, null_masks, row_ids). VARCHAR columns come back
        as object arrays, everything else in the physical NumPy dtype.
        """
        return self._columnize(self._live_items())

    def capture(self, epoch: int) -> "FrozenDeltaView":
        """An immutable columnar capture of the rows visible at ``epoch``.

        Snapshot reads pin one of these at statement start: the B-tree
        keeps mutating under concurrent DML, but a frozen view's arrays
        are fresh copies, so a scan against it can run without holding
        any lock (see :meth:`ColumnStoreIndex.pin_scan_units`).
        """
        columns, null_masks, row_ids = self._columnize(self._items_at(epoch))
        return FrozenDeltaView(self.delta_id, columns, null_masks, row_ids)

    @property
    def size_bytes(self) -> int:
        """Uncompressed accounting size (rows are stored as Python tuples)."""
        total = 0
        for _, row in self.scan():
            for col, value in zip(self.schema, row):
                if value is None:
                    total += 2
                elif isinstance(value, str):
                    total += len(value.encode("utf-8")) + 2
                else:
                    total += col.dtype.fixed_width_bytes
            total += 16  # per-row B-tree overhead
        return total


class FrozenDeltaView:
    """A point-in-time columnar copy of one delta store.

    Duck-compatible with the slice of :class:`DeltaStore` the scan path
    uses (``delta_id`` / ``row_count`` / ``to_columns`` / ``scan``), but
    backed by arrays materialized at :meth:`DeltaStore.capture` time —
    concurrent inserts and deletes against the live store never show
    through. Read-only by construction: it has no mutating methods.
    """

    __slots__ = ("delta_id", "_columns", "_null_masks", "_row_ids")

    def __init__(
        self,
        delta_id: int,
        columns: dict[str, np.ndarray],
        null_masks: dict[str, np.ndarray | None],
        row_ids: list[int],
    ) -> None:
        self.delta_id = delta_id
        self._columns = columns
        self._null_masks = null_masks
        self._row_ids = row_ids

    @property
    def row_count(self) -> int:
        return len(self._row_ids)

    def to_columns(self) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray | None], list[int]]:
        return self._columns, self._null_masks, self._row_ids

    def scan(self) -> Iterator[tuple[int, tuple[Any, ...]]]:
        """(row_id, row) pairs reconstructed from the frozen columns."""
        names = list(self._columns)
        for position, row_id in enumerate(self._row_ids):
            row = []
            for name in names:
                mask = self._null_masks[name]
                if mask is not None and mask[position]:
                    row.append(None)
                else:
                    value = self._columns[name][position]
                    row.append(value.item() if hasattr(value, "item") else value)
            yield row_id, tuple(row)
