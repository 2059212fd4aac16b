"""The updatable columnstore index.

Combines every storage structure of the paper into one object:

* compressed **row groups** catalogued by a :class:`SegmentDirectory`,
* **delta stores** (B-tree row stores) absorbing trickle inserts,
* a **delete bitmap** marking deleted rows of compressed row groups,
* the **bulk loader** that turns large inserts straight into row groups.

Rows are addressed by :class:`RowLocator`: compressed rows by (row-group
id, position), delta rows by (delta-store id, row id). UPDATE is modelled
the way the paper does: delete + insert (see :meth:`ColumnStoreIndex.update`).

MVCC (DESIGN.md "Multi-versioning"): the index owns an
:class:`~repro.mvcc.EpochManager` (private by default; the Database
attaches its shared one). Transactional mutations stamp
:data:`~repro.mvcc.PENDING_EPOCH` and register commit hooks that stamp
the real epoch; maintenance operations *retire* superseded structures
(row groups folded by REBUILD/archival, delta stores compressed by the
tuple mover) into side lists instead of dropping them, so a snapshot
reader pinned at an older epoch keeps scanning exactly the structures
that were visible then. :meth:`vacuum` frees retired structures and
tombstoned delta rows once the reader-registry horizon passes them.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from ..errors import StorageError
from ..mvcc import GENESIS_EPOCH, PENDING_EPOCH, EpochManager
from ..observability import registry as metrics
from ..schema import TableSchema
from ..types import python_values
from .config import StoreConfig
from .delete_bitmap import DeleteBitmap
from .deltastore import DeltaStore, FrozenDeltaView
from .directory import SegmentDirectory
from .loader import BulkLoader, rows_to_columns
from .rowgroup import RowGroup

GROUP = "group"
DELTA = "delta"


@dataclass(frozen=True)
class RetiredGroup:
    """A row group superseded by maintenance, kept for older readers.

    ``marks`` is the delete-bitmap state snapshotted at retirement
    (positions -> mark epoch), or ``None`` when the live bitmap still
    holds the group's marks (archival keeps the same group id live, so
    its marks never moved).
    """

    group: RowGroup
    created_epoch: int
    retired_epoch: int
    marks: dict[int, int] | None


@dataclass(frozen=True)
class RetiredDelta:
    """A delta store compressed away, kept for older readers."""

    delta: DeltaStore
    retired_epoch: int


@dataclass(frozen=True)
class RowLocator:
    """A stable address of one live row inside the index."""

    kind: str  # GROUP or DELTA
    container_id: int  # row-group id or delta-store id
    position: int  # position within the row group, or delta row id


@dataclass
class ScanUnit:
    """One scannable unit handed to the execution engine.

    Either a compressed row group (with its current deleted-row mask) or a
    delta store. The executor turns each into column batches.
    """

    kind: str
    group: RowGroup | None = None
    deleted_mask: np.ndarray | None = None
    delta: DeltaStore | FrozenDeltaView | None = None


class ColumnStoreIndex:
    """An updatable columnstore index over one table's rows."""

    def __init__(self, schema: TableSchema, config: StoreConfig | None = None) -> None:
        self.schema = schema
        self.config = config or StoreConfig()
        self.directory = SegmentDirectory(schema)
        self.loader = BulkLoader(schema, self.directory, self.config)
        self.delete_bitmap = DeleteBitmap()
        self.segment_cache = None
        if self.config.segment_cache_bytes > 0:
            from .cache import SegmentCache

            self.segment_cache = SegmentCache(self.config.segment_cache_bytes)
        self._delta_stores: dict[int, DeltaStore] = {}
        self._open_delta_id: int | None = None
        self._next_delta_id = 0
        self._next_row_id = 0
        # MVCC. Every index works standalone with a private epoch
        # manager; Database swaps in its shared one (attach_mvcc) so all
        # tables advance one clock. The retired lists hold structures
        # superseded by maintenance but still visible to older readers;
        # they are immutable tuples swapped whole, and _pin_mutex makes
        # retire/vacuum atomic against a lock-free reader's capture.
        self.mvcc = EpochManager()
        self._retired_groups: tuple[RetiredGroup, ...] = ()
        self._retired_deltas: tuple[RetiredDelta, ...] = ()
        self._pin_mutex = threading.Lock()

    def attach_mvcc(self, manager: EpochManager) -> None:
        """Share the database-wide epoch manager (called at table
        creation and after persistence load)."""
        self.mvcc = manager

    # ------------------------------------------------------------------ #
    # Inserts
    # ------------------------------------------------------------------ #
    def _open_delta(self) -> DeltaStore:
        if self._open_delta_id is not None:
            return self._delta_stores[self._open_delta_id]
        delta = DeltaStore(self._next_delta_id, self.schema, self.config.btree_order)
        self._delta_stores[delta.delta_id] = delta
        self._open_delta_id = delta.delta_id
        self._next_delta_id += 1
        return delta

    def insert(self, row: tuple[Any, ...], txn=None) -> RowLocator:
        """Trickle-insert one physical row into the open delta store.

        With a transaction context, records an undo that removes the row
        and restores the allocator counters and delta open/close/creation
        transitions — rollback leaves the index structurally identical to
        its pre-insert state, so replayed locators stay valid.
        """
        created = self._open_delta_id is None
        delta = self._open_delta()
        row_id = self._next_row_id
        self._next_row_id += 1
        if txn is not None:
            txn.record(
                f"un-insert delta row {row_id} (delta {delta.delta_id})",
                lambda: self._undo_insert(delta.delta_id, row_id, created),
            )
            delta.insert(row_id, tuple(row), epoch=PENDING_EPOCH)
            txn.on_commit(
                lambda epoch, d=delta, r=row_id: d.stamp_insert(r, epoch)
            )
        else:
            delta.insert(row_id, tuple(row))
        if delta.row_count >= self.config.effective_delta_close_rows:
            delta.close()
            self._open_delta_id = None
        return RowLocator(DELTA, delta.delta_id, row_id)

    def _undo_insert(self, delta_id: int, row_id: int, created: bool) -> None:
        delta = self._delta_stores.get(delta_id)
        if delta is None:
            raise StorageError(f"insert undo: delta store {delta_id} vanished")
        delta.delete(row_id)
        self._next_row_id = row_id
        if not delta.is_open:
            # This insert tripped the close threshold (later inserts of
            # the statement are already undone — they went elsewhere).
            delta.reopen()
            self._open_delta_id = delta_id
        if created:
            del self._delta_stores[delta_id]
            self._next_delta_id = delta_id
            self._open_delta_id = None

    def insert_many(self, rows: Iterable[tuple[Any, ...]], txn=None) -> list[RowLocator]:
        return [self.insert(row, txn) for row in rows]

    def bulk_load(self, rows: Sequence[tuple[Any, ...]], txn=None) -> None:
        """Insert many rows at once.

        At or above the bulk-load threshold the rows are compressed directly
        into row groups (the paper's bulk-insert path); below it they fall
        back to trickle inserts into the delta store.
        """
        if len(rows) >= self.config.bulk_load_threshold:
            if txn is not None:
                # Record before loading: a failure mid-load must also
                # withdraw any row groups the loader already registered.
                mark = (
                    self.directory.next_group_id,
                    {col.name: len(self.directory.global_dictionary(col.name))
                     for col in self.schema},
                )
                txn.record(
                    f"withdraw bulk-loaded row groups (ids >= {mark[0]})",
                    lambda: self._undo_bulk_load(mark),
                )
                # Groups are born PENDING and stamped at commit: a
                # snapshot reader never sees half a bulk load.
                with self.directory.creating_at(PENDING_EPOCH):
                    self.loader.load_rows(rows)
                txn.on_commit(
                    lambda epoch, first=mark[0]: self.directory.stamp_pending_from(
                        first, epoch
                    )
                )
            else:
                self.loader.load_rows(rows)
        else:
            self.insert_many(rows, txn)

    def _undo_bulk_load(self, mark: tuple[int, dict[str, int]]) -> None:
        next_group_id, dict_lengths = mark
        for group in list(self.directory.row_groups()):
            if group.group_id >= next_group_id:
                self.directory.remove_row_group(group.group_id)
                self.delete_bitmap.forget_group(group.group_id)
        self.directory.rewind_group_ids(next_group_id)
        for column, length in dict_lengths.items():
            self.directory.global_dictionary(column).truncate(length)

    def bulk_load_columns(
        self,
        columns: dict[str, np.ndarray],
        null_masks: dict[str, np.ndarray | None] | None = None,
    ) -> None:
        """Columnar bulk load (always takes the direct-compress path)."""
        self.loader.load_columns(columns, null_masks)

    # ------------------------------------------------------------------ #
    # Deletes and updates
    # ------------------------------------------------------------------ #
    def delete(self, locator: RowLocator, txn=None) -> bool:
        """Delete one row; returns ``False`` if it was already gone.

        MVCC: deletes are *versioned* — a bitmap mark carries its commit
        epoch and a delta delete tombstones the row in place — so a
        snapshot reader pinned before the delete committed keeps seeing
        the row. Txn-less deletes stamp GENESIS (immediately visible);
        transactional ones stamp PENDING and register a commit hook.
        """
        if locator.kind == GROUP:
            group = self.directory.row_group(locator.container_id)
            if not 0 <= locator.position < group.row_count:
                raise StorageError(
                    f"position {locator.position} out of range for row group "
                    f"{locator.container_id}"
                )
            epoch = GENESIS_EPOCH if txn is None else PENDING_EPOCH
            marked = self.delete_bitmap.mark(
                locator.container_id, locator.position, epoch=epoch
            )
            if marked and txn is not None:
                txn.record(
                    f"unmark deleted row {locator}",
                    lambda: self.delete_bitmap.unmark(
                        locator.container_id, locator.position
                    ),
                )
                txn.on_commit(
                    lambda e, g=locator.container_id, p=locator.position:
                        self.delete_bitmap.stamp(g, p, e)
                )
            return marked
        delta = self._delta_stores.get(locator.container_id)
        if delta is None:
            raise StorageError(f"unknown delta store {locator.container_id}")
        if txn is not None:
            if not delta.tombstone(locator.position, PENDING_EPOCH):
                return False
            txn.record(
                f"restore delta row {locator}",
                lambda: delta.clear_tombstone(locator.position),
            )
            txn.on_commit(
                lambda e, d=delta, r=locator.position: d.stamp_tombstone(r, e)
            )
            return True
        return delta.tombstone(locator.position, GENESIS_EPOCH)

    def update(self, locator: RowLocator, new_row: tuple[Any, ...]) -> RowLocator:
        """UPDATE = DELETE + INSERT, as in the paper."""
        if not self.delete(locator):
            raise StorageError(f"row {locator} is already deleted")
        return self.insert(new_row)

    def get_row(self, locator: RowLocator) -> tuple[Any, ...] | None:
        """Fetch one live row by locator (None if deleted/absent)."""
        if locator.kind == DELTA:
            delta = self._delta_stores.get(locator.container_id)
            return delta.get(locator.position) if delta is not None else None
        if self.delete_bitmap.is_deleted(locator.container_id, locator.position):
            return None
        group = self.directory.row_group(locator.container_id)
        position = np.array([locator.position])
        return tuple(
            python_values(*group.segment(col.name).take(position))[0]
            for col in self.schema
        )

    # ------------------------------------------------------------------ #
    # Scan interface
    # ------------------------------------------------------------------ #
    def decode_segment(
        self, group: RowGroup, column: str, positions: np.ndarray | None = None
    ):
        """Decode one segment — all of it, or the rows at ``positions`` —
        through the decode cache when enabled."""
        metrics.increment("storage.segments.decode_requests")
        segment = group.segment(column)
        if self.segment_cache is not None:
            return self.segment_cache.decode(segment, positions)
        return segment.decode() if positions is None else segment.take(positions)

    def scan_units(self) -> Iterator[ScanUnit]:
        """All scannable units: compressed groups first, then delta stores."""
        for group in self.directory.row_groups():
            yield ScanUnit(
                kind=GROUP,
                group=group,
                deleted_mask=self.delete_bitmap.mask_for(group.group_id, group.row_count),
            )
        for delta_id in sorted(self._delta_stores):
            delta = self._delta_stores[delta_id]
            if delta.row_count:
                yield ScanUnit(kind=DELTA, delta=delta)

    def pin_scan_units(self, epoch: int) -> list[ScanUnit]:
        """A snapshot-stable capture of :meth:`scan_units` as of ``epoch``.

        The statement pipeline calls this after compile and then scans
        the returned units with **no lock held**. Everything
        reachable from the result is stable under concurrent DML and
        maintenance:

        * compressed row groups are immutable objects — the tuple mover,
          REBUILD and archival all swap *new* group objects into the
          directory, and the pinned references keep the old ones alive;
        * deleted-row masks are materialized here, so later delete-bitmap
          marks never show through mid-scan (the bitmap's ``version`` at
          pin time is recorded for assertions);
        * delta stores are frozen into columnar copies
          (:meth:`DeltaStore.capture`) — the live B-trees keep absorbing
          trickle inserts without tearing the pinned view.

        The result is exactly the structures and rows committed at or
        before ``epoch``, including *retired* row groups / delta stores
        maintenance has since superseded (a session inside its own
        transaction reads the live structures instead and never comes
        here). The capture runs under ``_pin_mutex`` so it can never interleave
        with a retirement half-way (structure in neither the live
        directory nor the retired list); the expensive delta
        materialization happens after the mutex is dropped, on
        references the retired lists keep alive.
        """
        with self._pin_mutex:
            group_units: dict[int, ScanUnit] = {}
            # Retired groups first: a group mid-retirement may appear
            # both here and in the directory, and the retired record
            # carries the marks it had when superseded.
            for record in self._retired_groups:
                if not record.created_epoch <= epoch < record.retired_epoch:
                    continue
                group = record.group
                if record.marks is None:
                    mask = self.delete_bitmap.mask_for(
                        group.group_id, group.row_count, epoch
                    )
                else:
                    marked = [p for p, e in record.marks.items() if e <= epoch]
                    if marked:
                        mask = np.zeros(group.row_count, dtype=bool)
                        mask[np.fromiter(marked, dtype=np.int64,
                                         count=len(marked))] = True
                    else:
                        mask = None
                group_units[group.group_id] = ScanUnit(
                    kind=GROUP, group=group, deleted_mask=mask
                )
            for group, _created in self.directory.visible_groups(epoch):
                if group.group_id in group_units:
                    continue
                group_units[group.group_id] = ScanUnit(
                    kind=GROUP,
                    group=group,
                    deleted_mask=self.delete_bitmap.mask_for(
                        group.group_id, group.row_count, epoch
                    ),
                )
            delta_refs: list[DeltaStore] = []
            seen: set[int] = set()
            for delta_record in self._retired_deltas:
                if epoch < delta_record.retired_epoch:
                    seen.add(delta_record.delta.delta_id)
                    delta_refs.append(delta_record.delta)
            for delta_id in sorted(self._delta_stores):
                if delta_id not in seen:
                    delta_refs.append(self._delta_stores[delta_id])
        units: list[ScanUnit] = [group_units[gid] for gid in sorted(group_units)]
        for delta in sorted(delta_refs, key=lambda d: d.delta_id):
            view = delta.capture(epoch)
            if view.row_count:
                units.append(ScanUnit(kind=DELTA, delta=view))
        metrics.increment("concurrency.snapshot_pins")
        return units

    def delta_stores(self) -> list[DeltaStore]:
        return [self._delta_stores[k] for k in sorted(self._delta_stores)]

    def closed_delta_stores(self) -> list[DeltaStore]:
        return [d for d in self.delta_stores() if not d.is_open and d.row_count]

    def remove_delta_store(self, delta_id: int) -> None:
        if delta_id == self._open_delta_id:
            self._open_delta_id = None
        self._delta_stores.pop(delta_id, None)

    # ------------------------------------------------------------------ #
    # Accounting
    # ------------------------------------------------------------------ #
    @property
    def compressed_rows(self) -> int:
        return self.directory.total_rows

    @property
    def delta_rows(self) -> int:
        return sum(d.row_count for d in self._delta_stores.values())

    @property
    def live_rows(self) -> int:
        return self.compressed_rows - self.delete_bitmap.total_deleted + self.delta_rows

    @property
    def size_bytes(self) -> int:
        return (
            self.directory.encoded_size_bytes
            + sum(d.size_bytes for d in self._delta_stores.values())
            + self.delete_bitmap.size_bytes
        )

    @property
    def fraction_in_delta(self) -> float:
        live = self.live_rows
        return self.delta_rows / live if live else 0.0

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #
    def close_open_delta(self) -> None:
        """Force-close the open delta store (e.g. before a tuple-mover run)."""
        if self._open_delta_id is not None:
            self._delta_stores[self._open_delta_id].close()
            self._open_delta_id = None

    def _retire_group(self, group: RowGroup, epoch: int, keep_marks: bool = False) -> None:
        """Move a superseded row group to the retired list.

        Appended *before* the caller removes it from the directory, and
        under ``_pin_mutex``, so a concurrent snapshot capture sees the
        group in at least one of the two places (the capture dedupes by
        id, retired record winning). ``keep_marks`` is the archival case:
        the same group id stays live, so its delete marks stay in the
        live bitmap and older readers consult it through the record's
        ``marks=None`` sentinel.
        """
        with self._pin_mutex:
            marks = None if keep_marks else self.delete_bitmap.take_group(group.group_id)
            self._retired_groups = self._retired_groups + (
                RetiredGroup(
                    group=group,
                    created_epoch=self.directory.created_epoch(group.group_id),
                    retired_epoch=epoch,
                    marks=marks,
                ),
            )

    def _retire_delta(self, delta: DeltaStore, epoch: int) -> None:
        """Move a compressed-away delta store to the retired list."""
        with self._pin_mutex:
            self._retired_deltas = self._retired_deltas + (
                RetiredDelta(delta=delta, retired_epoch=epoch),
            )
            if delta.delta_id == self._open_delta_id:
                self._open_delta_id = None
            self._delta_stores.pop(delta.delta_id, None)

    def vacuum(self) -> dict[str, int]:
        """Free versions no registered reader can see.

        Drops retired row groups / delta stores whose retirement epoch is
        at or below the GC horizon (the oldest active reader epoch, or
        the current epoch when no reader is registered) and physically
        removes tombstoned delta rows past it. Purely a garbage pass:
        the current-state view is untouched, so no data version bump.
        """
        horizon = self.mvcc.horizon()
        with self._pin_mutex:
            keep_groups = tuple(
                r for r in self._retired_groups if r.retired_epoch > horizon
            )
            keep_deltas = tuple(
                r for r in self._retired_deltas if r.retired_epoch > horizon
            )
            freed_groups = len(self._retired_groups) - len(keep_groups)
            freed_deltas = len(self._retired_deltas) - len(keep_deltas)
            self._retired_groups = keep_groups
            self._retired_deltas = keep_deltas
        tombstones = sum(d.gc(horizon) for d in self.delta_stores())
        if freed_groups or freed_deltas:
            metrics.increment("mvcc.versions_gced", freed_groups + freed_deltas)
        return {
            "groups": freed_groups,
            "deltas": freed_deltas,
            "tombstones": tombstones,
        }

    @property
    def retired_counts(self) -> tuple[int, int]:
        """(retired row groups, retired delta stores) awaiting vacuum."""
        return len(self._retired_groups), len(self._retired_deltas)

    def rebuild(self) -> None:
        """REBUILD: recompress all live rows, dropping deleted ones.

        Models ``ALTER INDEX ... REBUILD``: delete-bitmap entries and delta
        stores are folded into fresh compressed row groups. The swap
        installs a new epoch — old groups and deltas are retired, not
        dropped, so snapshot readers pinned before the rebuild keep
        scanning the exact structures that were visible to them.
        """
        live_rows: list[tuple[Any, ...]] = list(self._iter_live_rows())
        with self.mvcc.installing() as epoch:
            for group in list(self.directory.row_groups()):
                self._retire_group(group, epoch)
                self.directory.remove_row_group(group.group_id)
            for delta in self.delta_stores():
                if delta.physical_row_count:
                    self._retire_delta(delta, epoch)
                else:
                    self.remove_delta_store(delta.delta_id)
            self._open_delta_id = None
            if live_rows:
                with self.directory.creating_at(epoch):
                    self.loader.load_rows(live_rows)
        self.vacuum()

    def archive(self) -> None:
        """Switch compressed row groups to archival compression.

        Each group is re-created at the installing epoch; the original
        object is retired with the ``marks=None`` sentinel (the group id
        — and hence its delete marks — stays live in the bitmap).
        """
        with self.mvcc.installing() as epoch:
            for group in list(self.directory.row_groups()):
                self._retire_group(group, epoch, keep_marks=True)
                self.directory.replace_row_group(group.to_archived(), epoch=epoch)
        self.vacuum()

    def unarchive(self) -> None:
        with self.mvcc.installing() as epoch:
            for group in list(self.directory.row_groups()):
                self._retire_group(group, epoch, keep_marks=True)
                self.directory.replace_row_group(group.to_unarchived(), epoch=epoch)
        self.vacuum()

    def iter_unit_rows(self, units: Iterable[ScanUnit]) -> Iterator[tuple[Any, ...]]:
        """Decode scan units back into Python row tuples (row-mode path)."""
        names = self.schema.names
        for unit in units:
            if unit.kind == GROUP:
                group = unit.group
                assert group is not None
                decoded = {name: group.decode_column(name) for name in names}
                for position in range(group.row_count):
                    if unit.deleted_mask is not None and unit.deleted_mask[position]:
                        continue
                    row = []
                    for name in names:
                        values, mask = decoded[name]
                        if mask is not None and mask[position]:
                            row.append(None)
                        else:
                            value = values[position]
                            row.append(value.item() if hasattr(value, "item") else value)
                    yield tuple(row)
            else:
                assert unit.delta is not None
                for _row_id, row in unit.delta.scan():
                    yield row

    def _iter_live_rows(self) -> Iterator[tuple[Any, ...]]:
        return self.iter_unit_rows(self.scan_units())
