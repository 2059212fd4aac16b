"""Slotted pages for the row-store heap.

Each page holds row tuples up to a byte budget (8 KiB by default, like SQL
Server pages). Slots are stable: deleting a row leaves a tombstone so row
ids (page, slot) held elsewhere stay valid.
"""

from __future__ import annotations

from typing import Any, Iterator

from ..errors import StorageError
from ..schema import TableSchema

PAGE_SIZE_BYTES = 8192
_ROW_OVERHEAD_BYTES = 7  # slot pointer + status bits, as in SQL Server


def row_size_bytes(schema: TableSchema, row: tuple[Any, ...]) -> int:
    """Uncompressed on-page size of one row."""
    total = _ROW_OVERHEAD_BYTES
    for col, value in zip(schema, row):
        if value is None:
            total += 2
        elif isinstance(value, str):
            total += len(value.encode("utf-8")) + 2
        else:
            total += col.dtype.fixed_width_bytes
    return total


class Page:
    """One slotted heap page."""

    __slots__ = ("page_id", "rows", "deleted", "used_bytes")

    def __init__(self, page_id: int) -> None:
        self.page_id = page_id
        self.rows: list[tuple[Any, ...]] = []
        self.deleted: set[int] = set()
        self.used_bytes = 96  # page header

    @property
    def slot_count(self) -> int:
        return len(self.rows)

    @property
    def live_count(self) -> int:
        return len(self.rows) - len(self.deleted)

    def has_room(self, n_bytes: int) -> bool:
        return self.used_bytes + n_bytes <= PAGE_SIZE_BYTES

    def insert(self, row: tuple[Any, ...], n_bytes: int) -> int:
        """Append a row; returns the slot number."""
        if not self.has_room(n_bytes):
            raise StorageError(f"page {self.page_id} is full")
        self.rows.append(row)
        self.used_bytes += n_bytes
        return len(self.rows) - 1

    def get(self, slot: int) -> tuple[Any, ...] | None:
        if not 0 <= slot < len(self.rows) or slot in self.deleted:
            return None
        return self.rows[slot]

    def delete(self, slot: int) -> bool:
        if not 0 <= slot < len(self.rows) or slot in self.deleted:
            return False
        self.deleted.add(slot)
        return True

    def pop_last(self, n_bytes: int) -> tuple[Any, ...]:
        """Remove the most recently appended slot (insert undo).

        Only the tail slot may be removed — interior slots must stay
        stable (row ids held elsewhere address them) — so undo runs in
        strict reverse insertion order.
        """
        if not self.rows:
            raise StorageError(f"page {self.page_id} has no slots to pop")
        tail = len(self.rows) - 1
        if tail in self.deleted:
            raise StorageError(
                f"page {self.page_id} slot {tail} is deleted, not a fresh insert"
            )
        row = self.rows.pop()
        self.used_bytes -= n_bytes
        return row

    def undelete(self, slot: int) -> bool:
        """Clear a tombstone, making the slot's row live again."""
        if slot not in self.deleted:
            return False
        self.deleted.discard(slot)
        return True

    def live_rows(self) -> Iterator[tuple[int, tuple[Any, ...]]]:
        for slot, row in enumerate(self.rows):
            if slot not in self.deleted:
                yield slot, row
