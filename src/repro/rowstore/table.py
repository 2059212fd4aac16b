"""The row-store heap table."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

from ..errors import StorageError
from ..schema import TableSchema
from .page import PAGE_SIZE_BYTES, Page, row_size_bytes


@dataclass(frozen=True)
class RowId:
    """Stable address of a row-store row: (page, slot)."""

    page: int
    slot: int


class RowStoreTable:
    """A heap of slotted pages holding physical row tuples."""

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self._pages: list[Page] = []
        self._live = 0

    # ------------------------------------------------------------------ #
    # DML
    # ------------------------------------------------------------------ #
    def insert(self, row: tuple[Any, ...], txn) -> RowId:
        """Insert a physical row; returns its row id.

        Records an undo action in ``txn`` that removes the slot again (and the page, if this insert allocated it), so a
        rolled-back insert leaves the heap layout — and therefore every
        future row id — exactly as if it never ran.
        """
        n_bytes = row_size_bytes(self.schema, row)
        if n_bytes > PAGE_SIZE_BYTES - 96:
            raise StorageError(f"row of {n_bytes} bytes exceeds the page size")
        created_page = not self._pages or not self._pages[-1].has_room(n_bytes)
        if created_page:
            self._pages.append(Page(len(self._pages)))
        page = self._pages[-1]
        slot = page.insert(row, n_bytes)
        self._live += 1
        rid = RowId(page.page_id, slot)
        txn.record(
            f"un-insert rowstore row {rid}",
            lambda: self._undo_insert(rid, n_bytes, created_page),
        )
        return rid

    def _undo_insert(self, rid: RowId, n_bytes: int, created_page: bool) -> None:
        page = self._pages[rid.page]
        if rid.page != len(self._pages) - 1 or rid.slot != page.slot_count - 1:
            raise StorageError(
                f"insert undo of {rid} out of order (not the tail slot)"
            )
        page.pop_last(n_bytes)
        self._live -= 1
        if created_page:
            if page.slot_count:
                raise StorageError(
                    f"page {page.page_id} was created by this insert but is not empty"
                )
            self._pages.pop()

    def get(self, rid: RowId) -> tuple[Any, ...] | None:
        if not 0 <= rid.page < len(self._pages):
            return None
        return self._pages[rid.page].get(rid.slot)

    def delete(self, rid: RowId) -> bool:
        if not 0 <= rid.page < len(self._pages):
            return False
        if self._pages[rid.page].delete(rid.slot):
            self._live -= 1
            return True
        return False

    def undelete(self, rid: RowId) -> bool:
        """Clear a delete tombstone (delete undo); the row data is still
        in the slot, so this restores the exact pre-delete state."""
        if not 0 <= rid.page < len(self._pages):
            return False
        if self._pages[rid.page].undelete(rid.slot):
            self._live += 1
            return True
        return False

    # ------------------------------------------------------------------ #
    # Scans and accounting
    # ------------------------------------------------------------------ #
    def scan(self) -> Iterator[tuple[RowId, tuple[Any, ...]]]:
        """All live rows in (page, slot) order."""
        for page in self._pages:
            for slot, row in page.live_rows():
                yield RowId(page.page_id, slot), row

    def slots(self) -> Iterator[tuple[tuple[Any, ...], bool]]:
        """Every slot's row in row-id order, each with whether it is
        tombstoned: the heap's layout (re-inserting the rows in this
        order rebuilds the same pages and row ids)."""
        for page in self._pages:
            for slot, row in enumerate(page.rows):
                yield row, slot in page.deleted

    @property
    def row_count(self) -> int:
        return self._live

    @property
    def page_count(self) -> int:
        return len(self._pages)

    @property
    def size_bytes(self) -> int:
        """Uncompressed heap size (full pages, as allocated on disk)."""
        return len(self._pages) * PAGE_SIZE_BYTES

    @property
    def used_bytes(self) -> int:
        return sum(page.used_bytes for page in self._pages)
