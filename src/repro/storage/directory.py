"""The segment directory: catalog of row groups, segments and dictionaries.

The paper's directory keeps, for every segment, the metadata the engine
needs without opening the segment blob: row count, encoded size, min/max.
Ours additionally owns the per-column global (primary) dictionaries and
hands out row-group ids.

MVCC: each live row group carries a *creation epoch* — the commit epoch
at which it became visible (GENESIS for state loaded from a snapshot,
PENDING while the creating transaction is uncommitted). Snapshot reads
filter by it (:meth:`SegmentDirectory.visible_groups`); the retirement
side of versioning (groups a change replaced but still visible to
older readers) lives in
:class:`~repro.storage.columnstore.ColumnStoreIndex`, which keeps the
retired objects alive until vacuum. Mutations happen under a small
mutex and iteration works over an immutably-swapped dict snapshot, so
readers never observe a dict mid-resize.
"""

from __future__ import annotations

from dataclasses import dataclass
from threading import Lock
from typing import Any, Iterator

from ..errors import StorageError
from ..mvcc import GENESIS_EPOCH, PENDING_EPOCH
from ..schema import TableSchema
from .dictionary import GlobalDictionary
from .rowgroup import RowGroup


@dataclass(frozen=True)
class SegmentInfo:
    """Directory row describing one column segment (for EXPLAIN / tests)."""

    group_id: int
    column: str
    row_count: int
    null_count: int
    min_value: Any
    max_value: Any
    scheme: str
    encoded_size_bytes: int
    raw_size_bytes: int
    archived: bool


class SegmentDirectory:
    """Catalog of the compressed row groups of one columnstore index."""

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self._row_groups: dict[int, RowGroup] = {}
        self._next_group_id = 0
        self._global_dicts: dict[str, GlobalDictionary] = {
            col.name: GlobalDictionary() for col in schema
        }
        # MVCC: group id -> creation epoch. Mutations to both dicts are
        # serialized by _mutex; _row_groups is additionally swapped as a
        # whole dict (copy-on-write) so lock-free iterators see a
        # consistent snapshot.
        self._created_epoch: dict[int, int] = {}
        self._mutex = Lock()

    # ------------------------------------------------------------------ #
    # Row-group lifecycle
    # ------------------------------------------------------------------ #
    @property
    def next_group_id(self) -> int:
        return self._next_group_id

    def mark(self) -> tuple:
        """What :meth:`rewind` puts back: the groups, their creation
        epochs, the id allocator and the global dictionaries' lengths."""
        with self._mutex:
            return (
                self._row_groups,
                dict(self._created_epoch),
                self._next_group_id,
                {column: len(d) for column, d in self._global_dicts.items()},
            )

    def rewind(self, mark: tuple) -> None:
        """Undo every change since :meth:`mark` was taken (a failed
        install's undo). Ids and dictionary ids come back too, so a retry
        allocates the same ones, which WAL replay's locators depend on."""
        groups, created, next_group_id, lengths = mark
        with self._mutex:
            self._row_groups = groups
            self._created_epoch = created
            self._next_group_id = next_group_id
        for column, length in lengths.items():
            self._global_dicts[column].truncate(length)

    def add_row_group(self, group: RowGroup, epoch: int = GENESIS_EPOCH) -> None:
        with self._mutex:
            if group.group_id in self._row_groups:
                raise StorageError(f"duplicate row group id {group.group_id}")
            updated = dict(self._row_groups)
            updated[group.group_id] = group
            self._created_epoch[group.group_id] = epoch
            self._row_groups = updated

    def install(self, groups: list[RowGroup], epoch: int = GENESIS_EPOCH) -> None:
        """Add freshly compressed row groups created at ``epoch``, intern
        their dictionaries into the global ones, and move the id
        allocator past them."""
        for group in groups:
            self.add_row_group(group, epoch)
            for column, segment in group.segments.items():
                if segment.dictionary is not None:
                    self._global_dicts[column].intern_all(segment.dictionary.values)
            self._next_group_id = max(self._next_group_id, group.group_id + 1)

    def remove_row_group(self, group_id: int) -> RowGroup:
        with self._mutex:
            if group_id not in self._row_groups:
                raise StorageError(f"unknown row group id {group_id}")
            updated = dict(self._row_groups)
            group = updated.pop(group_id)
            self._created_epoch.pop(group_id, None)
            self._row_groups = updated
            return group

    def created_epoch(self, group_id: int) -> int:
        return self._created_epoch.get(group_id, GENESIS_EPOCH)

    def stamp(self, group_ids: list[int], epoch: int) -> None:
        """Commit hook: stamp the groups ``group_ids`` still PENDING with
        ``epoch``. A stale hook (its statement rolled back) is a no-op,
        and a group a retry re-created stamps the same epoch."""
        with self._mutex:
            for group_id in group_ids:
                if self._created_epoch.get(group_id) == PENDING_EPOCH:
                    self._created_epoch[group_id] = epoch

    def row_group(self, group_id: int) -> RowGroup:
        try:
            return self._row_groups[group_id]
        except KeyError:
            raise StorageError(f"unknown row group id {group_id}") from None

    def row_groups(self) -> Iterator[RowGroup]:
        """Row groups in id order (deterministic scans)."""
        groups = self._row_groups  # one consistent dict snapshot
        for group_id in sorted(groups):
            yield groups[group_id]

    def visible_groups(self, epoch: int) -> list[tuple[RowGroup, int]]:
        """(group, created_epoch) pairs visible at ``epoch``, id order.

        Taken under the mutex so the creation-epoch reads are consistent
        with the group dict — a commit stamping PENDING -> e concurrent
        with this capture is benign either way (e > epoch, so the group
        is invisible whichever value is read), but the mutex keeps the
        dict itself from resizing mid-iteration.
        """
        with self._mutex:
            groups = self._row_groups
            return [
                (groups[gid], created)
                for gid in sorted(groups)
                if (created := self._created_epoch.get(gid, GENESIS_EPOCH)) <= epoch
            ]

    def __len__(self) -> int:
        return len(self._row_groups)

    # ------------------------------------------------------------------ #
    # Dictionaries
    # ------------------------------------------------------------------ #
    def global_dictionary(self, column: str) -> GlobalDictionary:
        try:
            return self._global_dicts[column]
        except KeyError:
            raise StorageError(f"unknown column {column!r}") from None

    # ------------------------------------------------------------------ #
    # Metadata views
    # ------------------------------------------------------------------ #
    def segment_infos(self) -> list[SegmentInfo]:
        infos = []
        for group in self.row_groups():
            for column, seg in sorted(group.segments.items()):
                infos.append(
                    SegmentInfo(
                        group_id=group.group_id,
                        column=column,
                        row_count=seg.row_count,
                        null_count=seg.null_count,
                        min_value=seg.min_value,
                        max_value=seg.max_value,
                        scheme=seg.scheme.value,
                        encoded_size_bytes=seg.encoded_size_bytes,
                        raw_size_bytes=seg.raw_size_bytes,
                        archived=seg.archived,
                    )
                )
        return infos

    @property
    def total_rows(self) -> int:
        return sum(group.row_count for group in self._row_groups.values())

    @property
    def encoded_size_bytes(self) -> int:
        dict_size = sum(d.size_bytes for d in self._global_dicts.values())
        return sum(g.encoded_size_bytes for g in self._row_groups.values()) + dict_size

    @property
    def raw_size_bytes(self) -> int:
        return sum(g.raw_size_bytes for g in self._row_groups.values())
