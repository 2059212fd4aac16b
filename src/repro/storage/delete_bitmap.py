"""The delete bitmap (delete buffer) of a columnstore index.

Compressed row groups are immutable, so DELETE marks rows in a side
structure keyed by (row-group id, position) — the paper's delete bitmap.
Scans subtract marked rows; the tuple mover / REBUILD physically removes
them. SQL Server keeps an in-memory bitmap backed by a B-tree on disk; we
keep per-row-group Python dicts with a vectorized mask materialization
for batch scans.

MVCC: every mark carries the commit epoch at which the delete became
visible (:mod:`repro.mvcc`). A transactional delete marks at
:data:`~repro.mvcc.PENDING_EPOCH` and stamps the real epoch at commit;
:meth:`mask_for` filters by a reader's epoch so a snapshot pinned before
the delete committed keeps seeing the row. A reader at ``PENDING_EPOCH``
— a single caller, or a transaction reading its own writes — has every
mark applied, pending ones included.

Redo determinism: marks are keyed by (group id, position), and group ids
are assigned by deterministic maintenance operations that the WAL logs
(:mod:`repro.wal.replay`), so replaying a DELETE record's locators on a
replayed index marks exactly the rows the original statement marked.
"""

from __future__ import annotations

import threading
from typing import Iterator

import numpy as np

from ..mvcc import GENESIS_EPOCH


class DeleteBitmap:
    """Deleted-row marks for the compressed row groups of one index."""

    def __init__(self) -> None:
        # group id -> {position -> mark epoch}
        self._deleted: dict[int, dict[int, int]] = {}
        # Guards structural mutation vs. lock-free mask materialization:
        # snapshot readers call mask_for with no outer lock held, and a
        # dict being resized mid-iteration would tear the capture.
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Marking
    # ------------------------------------------------------------------ #
    def mark(self, group_id: int, position: int, epoch: int = GENESIS_EPOCH) -> bool:
        """Mark one row deleted; returns ``False`` if it already was.

        ``epoch`` is the visibility epoch of the mark: PENDING for a
        delete awaiting :meth:`stamp` at commit.
        """
        with self._lock:
            positions = self._deleted.setdefault(group_id, {})
            if position in positions:
                return False
            positions[position] = epoch
            return True

    def stamp(self, group_id: int, position: int, epoch: int) -> None:
        """Commit hook: replace a PENDING mark with its commit epoch.

        A no-op if the mark is gone (rolled back) or already stamped —
        stamp-if-still-pending is what makes stale hooks after a
        statement-level rollback harmless.
        """
        from ..mvcc import PENDING_EPOCH

        with self._lock:
            positions = self._deleted.get(group_id)
            if positions is not None and positions.get(position) == PENDING_EPOCH:
                positions[position] = epoch

    def unmark(self, group_id: int, position: int) -> bool:
        """Clear one mark (delete undo); returns ``False`` if not marked.

        An entry left empty is removed entirely so the bitmap's group
        set (and accounting size) returns to its exact pre-mark state.
        """
        with self._lock:
            positions = self._deleted.get(group_id)
            if positions is None or position not in positions:
                return False
            del positions[position]
            if not positions:
                del self._deleted[group_id]
            return True

    def mark_many(
        self,
        group_id: int,
        positions: Iterator[int] | list[int],
        epoch: int = GENESIS_EPOCH,
    ) -> int:
        """Mark many rows of one row group; returns newly marked count."""
        with self._lock:
            existing = self._deleted.setdefault(group_id, {})
            added = 0
            for p in positions:
                p = int(p)
                if p not in existing:
                    existing[p] = epoch
                    added += 1
            if not existing:
                del self._deleted[group_id]
            return added

    # ------------------------------------------------------------------ #
    # Scan support
    # ------------------------------------------------------------------ #
    def deleted_count(self, group_id: int) -> int:
        positions = self._deleted.get(group_id)
        return len(positions) if positions else 0

    @property
    def total_deleted(self) -> int:
        return sum(len(p) for p in self._deleted.values())

    def mask_for(self, group_id: int, row_count: int, epoch: int) -> np.ndarray | None:
        """A row group's deleted-mask as of ``epoch`` (:func:`deleted_mask`)."""
        with self._lock:
            return deleted_mask(self._deleted.get(group_id), row_count, epoch)

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #
    def take_group(self, group_id: int) -> dict[int, int]:
        """Detach and return a row group's marks (group retirement).

        The retiring maintenance operation snapshots the marks alongside
        the retired group object, so readers at older epochs keep
        filtering the retired group with the marks it had — while the
        live bitmap sheds the entry (the replacement groups contain no
        deleted rows).
        """
        with self._lock:
            marks = self._deleted.pop(group_id, None)
            if marks is None:
                return {}
            return dict(marks)

    def restore_group(self, group_id: int, marks: dict[int, int]) -> None:
        """Put back the marks :meth:`take_group` detached (an undo)."""
        with self._lock:
            self._deleted[group_id] = dict(marks)

    def groups_with_deletes(self) -> list[int]:
        return sorted(gid for gid, positions in self._deleted.items() if positions)

    def marks_for(self, group_id: int) -> list[int]:
        """Sorted marked positions of one row group (persistence/WAL use)."""
        return sorted(self._deleted.get(group_id, ()))

    @property
    def size_bytes(self) -> int:
        """Accounting size: a compressed bitmap would be ~4 bytes/entry."""
        return self.total_deleted * 4 + 16 * len(self._deleted)


def deleted_mask(
    marks: dict[int, int] | None, row_count: int, epoch: int
) -> np.ndarray | None:
    """The boolean mask of the rows ``marks`` (position -> mark epoch)
    delete for a reader at ``epoch``: the marks stamped at or before it,
    so every mark at PENDING_EPOCH. ``None`` when no mark applies."""
    marked = [p for p, e in marks.items() if e <= epoch] if marks else None
    if not marked:
        return None
    mask = np.zeros(row_count, dtype=bool)
    mask[np.fromiter(marked, dtype=np.int64, count=len(marked))] = True
    return mask
