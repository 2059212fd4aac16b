"""Delta stores: append-only column buffers absorbing trickle inserts.

Rows that arrive one at a time land in the open delta store; at the
close threshold it stops accepting inserts and waits for the tuple mover.

The paper keeps a delta store as a B-tree of rows keyed by row id. Every
reader here wants columns (a scan, a DELETE locating its row, a snapshot
pin, the tuple mover), so this store lays the leaf level out by column:
a value and a null-mask buffer per column beside a row-id, an
insert-epoch and a delete-epoch buffer, all in row-id order (a row id's
slot is a binary search). A row is written into the buffers at insert,
capacity doubles when full, and a read is a vector select over the epoch
buffers plus a gather of the columns it names.

MVCC: an insert epoch of GENESIS means loaded from a snapshot, a delete
epoch of ``_LIVE`` not deleted. A delete *tombstones* its row for the
readers pinned before it; :meth:`gc` compacts tombstones no reader can
see. A slot below the published length is never written again, its
epoch stamps aside: compaction, insert undo, an out-of-order insert and
growth move to new buffers. So :meth:`capture` keeps the buffers of its
moment and the index of its visible slots, and gathers without the lock.
Every read is a capture: a snapshot at its reader's epoch, the current
state (pending rows included) at ``PENDING_EPOCH``.

Redo determinism: delta ids, row ids (never reused) and open/closed
transitions follow from the insert/close sequence alone, so WAL replay
rebuilds identical delta stores and log records can address rows by
(delta id, row id).
"""

from __future__ import annotations

import enum
import threading
from typing import Any

import numpy as np

from ..errors import StorageError
from ..mvcc import GENESIS_EPOCH, PENDING_EPOCH
from ..observability import registry as metrics
from ..schema import TableSchema
from ..types import python_values

# The delete epoch of a row not deleted: later than every reader's epoch.
_LIVE = PENDING_EPOCH + 1

# (columns, null_masks, row_ids), as FrozenDeltaView.to_columns hands them out.
Columns = tuple[dict[str, np.ndarray], dict[str, "np.ndarray | None"], np.ndarray]


class DeltaState(enum.Enum):
    OPEN = "open"
    CLOSED = "closed"


class _Buffers:
    """One generation of a delta store's buffers, ``capacity`` slots each."""

    __slots__ = ("row_ids", "inserted", "deleted", "values", "nulls")

    def __init__(self, schema: TableSchema, capacity: int) -> None:
        self.row_ids = np.empty(capacity, dtype=np.int64)
        self.inserted = np.empty(capacity, dtype=np.int64)
        self.deleted = np.empty(capacity, dtype=np.int64)
        self.values = {c.name: np.empty(capacity, dtype=c.dtype.numpy_dtype) for c in schema}
        self.nulls = {c.name: np.empty(capacity, dtype=bool) for c in schema}

    def arrays(self) -> list[np.ndarray]:
        return [self.row_ids, self.inserted, self.deleted, *self.values.values(), *self.nulls.values()]

    def moved(self, schema: TableSchema, slots: np.ndarray, capacity: int) -> "_Buffers":
        """New buffers holding these old ``slots`` first, in order (a
        slot of -1 is a placeholder the caller writes)."""
        new = _Buffers(schema, capacity)
        for old, fresh in zip(self.arrays(), new.arrays()):
            fresh[: slots.size] = old[slots]
        return new


class DeltaStore:
    """One delta store of a columnstore index."""

    def __init__(self, delta_id: int, schema: TableSchema) -> None:
        self.delta_id = delta_id
        self.schema = schema
        self.state = DeltaState.OPEN
        self._buffers = _Buffers(schema, 16)  # capacity doubles when full
        self._length = 0  # published slots
        self._live = 0  # published slots not tombstoned
        # What a NULL cell's value slot holds (scans never look at it).
        self._fills = ["" if c.dtype.numpy_dtype == object else 0 for c in schema]
        # Writers append and stamp while snapshot readers select slots.
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return self.row_count

    @property
    def row_count(self) -> int:
        """Live (un-tombstoned) rows — the current-state view."""
        return self._live

    @property
    def physical_row_count(self) -> int:
        """All rows still in the buffers, tombstoned ones included."""
        return self._length

    @property
    def is_open(self) -> bool:
        return self.state is DeltaState.OPEN

    def close(self) -> None:
        """Stop accepting inserts; the tuple mover may now compress it."""
        if self.state is DeltaState.OPEN:
            metrics.increment("storage.delta.stores_closed")
        self.state = DeltaState.CLOSED

    def reopen(self) -> None:
        """Undo a close: rollback of the insert that tripped it (txn layer)."""
        self.state = DeltaState.OPEN

    def insert(self, row_id: int, values: tuple[Any, ...], epoch: int = GENESIS_EPOCH) -> None:
        if self.state is not DeltaState.OPEN:
            raise StorageError(f"delta store {self.delta_id} is closed")
        with self._lock:
            self._place(row_id, values, epoch)
        metrics.increment("storage.delta.rows_inserted")

    def _place(self, row_id: int, values: tuple[Any, ...], epoch: int) -> None:
        """Write a row into its row-id slot, then publish it (lock held):
        a value the buffers cannot hold leaves the store as it was. A row
        id below the last one opens its slot in new buffers."""
        buffers, n = self._buffers, self._length
        slot = n
        if n and row_id <= buffers.row_ids.item(n - 1):
            slot = int(np.searchsorted(buffers.row_ids[:n], row_id))
            if buffers.row_ids[slot] == row_id:
                raise StorageError(f"duplicate row id {row_id} in delta store")
            gapped = np.insert(np.arange(n), slot, -1)
            buffers = buffers.moved(self.schema, gapped, 2 * (n + 1))
        elif n == buffers.row_ids.size:
            buffers = buffers.moved(self.schema, np.arange(n), 2 * n)
        buffers.row_ids[slot] = row_id
        buffers.inserted[slot] = epoch
        buffers.deleted[slot] = _LIVE
        for column, nulls, fill, value in zip(
            buffers.values.values(), buffers.nulls.values(), self._fills, values
        ):
            nulls[slot] = value is None
            column[slot] = fill if value is None else value
        self._buffers, self._length = buffers, n + 1
        self._live += 1

    def _slot(self, row_id: int) -> int | None:
        """The published slot holding ``row_id`` (lock held), or None."""
        n, row_ids = self._length, self._buffers.row_ids
        # Ids appended in order are consecutive: try the slot that implies.
        guess = n - 1 - (row_ids.item(n - 1) - row_id) if n else -1
        if 0 <= guess < n and row_ids.item(guess) == row_id:
            return guess
        slot = int(np.searchsorted(row_ids[:n], row_id))
        return slot if slot < n and row_ids[slot] == row_id else None

    def stamp_inserts(self, first: int, last: int, epoch: int) -> None:
        """Commit hook: stamp one transaction's PENDING rows among row ids
        ``first..last`` in one assignment (rolled-back rows left the buffers)."""
        with self._lock:
            stamps = self._buffers.inserted
            if first == last:
                slot = self._slot(first)
                if slot is not None and stamps.item(slot) == PENDING_EPOCH:
                    stamps[slot] = epoch
                return
            row_ids = self._buffers.row_ids[: self._length]
            low, high = np.searchsorted(row_ids, (first, last + 1)).tolist()
            span = stamps[low:high]
            span[span == PENDING_EPOCH] = epoch

    def stamp_tombstone(self, row_id: int, epoch: int) -> None:
        """Commit hook: replace a PENDING tombstone with its commit epoch."""
        with self._lock:
            slot = self._slot(row_id)
            stamps = self._buffers.deleted
            if slot is not None and stamps.item(slot) == PENDING_EPOCH:
                stamps[slot] = epoch

    def delete(self, row_id: int) -> bool:
        """Physically remove a row; returns ``False`` if absent. The
        *non-versioned* removal of insert undo (the row was never visible
        to anyone) and direct single-caller code; see :meth:`tombstone`."""
        with self._lock:
            slot = self._slot(row_id)
            if slot is None:
                return False
            n = self._length
            self._live -= int(self._buffers.deleted[slot] == _LIVE)
            if slot == n - 1 and self._buffers.inserted[slot] == PENDING_EPOCH:
                # Undo of the latest insert: no capture holds the slot.
                self._length = slot
            else:
                self._keep(np.delete(np.arange(n), slot))
            return True

    def _keep(self, slots: np.ndarray) -> None:
        """Compact the buffers down to these published slots (lock held)."""
        self._buffers = self._buffers.moved(self.schema, slots, self._buffers.row_ids.size)
        self._length = int(slots.size)

    def tombstone(self, row_id: int, epoch: int) -> bool:
        """Mark a row deleted as of ``epoch``; ``False`` if already gone.
        It stays for snapshot readers at older epochs until :meth:`gc`."""
        with self._lock:
            slot = self._slot(row_id)
            if slot is None or self._buffers.deleted[slot] != _LIVE:
                return False
            self._buffers.deleted[slot] = epoch
            self._live -= 1
            return True

    def clear_tombstone(self, row_id: int) -> bool:
        """Delete undo: make a tombstoned row live again."""
        with self._lock:
            return self._revive(self._slot(row_id))

    def _revive(self, slot: int | None) -> bool:
        if slot is None or self._buffers.deleted[slot] == _LIVE:
            return False
        self._buffers.deleted[slot] = _LIVE
        self._live += 1
        return True

    def restore(self, row_id: int, values: tuple[Any, ...]) -> None:
        """Re-insert a deleted row (delete undo), even when closed, and
        without insert metrics: the original row comes back under its
        original id — by clearing its tombstone, or re-inserted."""
        with self._lock:
            slot = self._slot(row_id)
            if slot is None:
                self._place(row_id, values, GENESIS_EPOCH)
            elif not self._revive(slot):
                raise StorageError(
                    f"cannot restore row {row_id}: still present in delta store {self.delta_id}"
                )

    def gc(self, horizon: int) -> int:
        """Compact away tombstones at epochs ``<= horizon``, which no
        registered or future reader can see; returns the rows collected."""
        with self._lock:
            dead = self._buffers.deleted[: self._length] <= horizon
            collected = int(dead.sum())
            if collected:
                self._keep(np.flatnonzero(~dead))
        return collected

    def capture(self, epoch: int) -> "FrozenDeltaView":
        """The rows committed at or before ``epoch`` and not deleted as of
        it — every read of the store: at ``PENDING_EPOCH`` that is each row
        not tombstoned, pending ones included. Only the slot index is
        computed under the lock, the view gathers later."""
        with self._lock:
            buffers, n = self._buffers, self._length
            visible = (buffers.inserted[:n] <= epoch) & (buffers.deleted[:n] > epoch)
            return FrozenDeltaView(self.delta_id, buffers, np.flatnonzero(visible))

    @property
    def size_bytes(self) -> int:
        """Uncompressed accounting size of the live rows: type width per
        value, UTF-8 length + 2 per string, 2 per NULL, 16 per row."""
        columns, null_masks, row_ids = self.capture(PENDING_EPOCH).to_columns()
        total = 16 * row_ids.size
        for col in self.schema:
            values, mask = columns[col.name], null_masks[col.name]
            if mask is not None:
                total += 2 * int(mask.sum())
                values = values[~mask]
            if values.dtype == object:
                total += sum(len(v.encode("utf-8")) + 2 for v in values.tolist())
            else:
                total += values.size * col.dtype.fixed_width_bytes
        return total


class FrozenDeltaView:
    """Some rows of one delta store: the buffers of a moment and the
    slots selected from them, which are never rewritten — concurrent DML
    never shows through. What every reader of a delta store reads
    (:meth:`DeltaStore.capture`); read-only."""

    __slots__ = ("delta_id", "_buffers", "_slots")

    def __init__(self, delta_id: int, buffers: _Buffers, slots: np.ndarray) -> None:
        self.delta_id = delta_id
        self._buffers = buffers
        self._slots = slots

    @property
    def row_count(self) -> int:
        return int(self._slots.size)

    def to_columns(self, names: list[str] | None = None) -> Columns:
        """(columns, null_masks, row_ids) of the selected rows, gathered
        into fresh arrays for ``names`` only (default: every column).
        VARCHAR comes back as object arrays, everything else in its
        physical NumPy dtype; a column without NULLs has mask None."""
        buffers, slots = self._buffers, self._slots
        columns: dict[str, np.ndarray] = {}
        null_masks: dict[str, np.ndarray | None] = {}
        for name in buffers.values if names is None else names:
            columns[name] = buffers.values[name][slots]
            mask = buffers.nulls[name][slots]
            null_masks[name] = mask if mask.any() else None
        return columns, null_masks, buffers.row_ids[slots]

    def scan(self) -> list[tuple[int, tuple[Any, ...]]]:
        """(row_id, row) pairs with Python-native values, in row-id order."""
        columns, null_masks, row_ids = self.to_columns()
        cells = [python_values(columns[name], null_masks[name]) for name in columns]
        return list(zip(row_ids.tolist(), zip(*cells)))
