"""The updatable columnstore index.

Combines every storage structure of the paper into one object:

* compressed **row groups** catalogued by a :class:`SegmentDirectory`,
* **delta stores** (append-only column buffers) absorbing trickle inserts,
* a **delete bitmap** marking deleted rows of compressed row groups,
* the **bulk loader** that turns large inserts straight into row groups.

Rows are addressed by :class:`RowLocator`: compressed rows by (row-group
id, position), delta rows by (delta-store id, row id). UPDATE is modelled
the way the paper does: delete + insert.

MVCC (DESIGN.md "Multi-versioning"): the index owns an
:class:`~repro.mvcc.EpochManager` (private by default; the Database
attaches its shared one). Every mutation runs inside a transaction
context (:func:`repro.txn.autocommit` is the one-statement kind); it stamps
:data:`~repro.mvcc.PENDING_EPOCH` and registers commit hooks that stamp
the real epoch. A change of row groups (:meth:`install_row_groups`)
*retires* the structures it replaces (row groups folded by REBUILD or
re-encoded by archival, delta stores compressed by the tuple mover) into
side lists instead of dropping them, so a snapshot reader pinned at an
older epoch keeps scanning exactly the structures that were visible
then. :meth:`vacuum` frees retired structures and tombstoned delta rows
once the reader-registry horizon passes them.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from ..errors import StorageError
from ..mvcc import PENDING_EPOCH, EpochManager
from ..observability import registry as metrics
from ..schema import PhysicalColumns, TableSchema
from .config import StoreConfig
from .delete_bitmap import DeleteBitmap, deleted_mask
from .deltastore import DeltaStore, FrozenDeltaView
from .directory import SegmentDirectory
from .loader import BulkLoader, rows_to_columns
from .rowgroup import RowGroup

GROUP = "group"
DELTA = "delta"

# What a RowGroupChange does with its groups.
LOAD, MOVE, REBUILD, REENCODE = "load", "move", "rebuild", "reencode"


@dataclass
class RowGroupChange:
    """Compressed row groups one change creates, and what they replace.

    ``kind`` says what: ``load`` adds ``groups`` (a bulk load); ``move``
    compresses the delta stores ``deltas`` into ``groups`` (the tuple
    mover, closing the open delta store first when ``include_open``);
    ``rebuild`` replaces every group and delta store by ``groups``;
    ``reencode`` replaces each live group by the one of ``groups`` with
    its id (archival compression switched on or off). A change is planned from the index (the
    ``plan_*`` methods, which compress and install nothing) and then
    installed; a logged one is its record's body, so replay installs the
    groups its blobs hold without compressing anything.
    """

    kind: str
    groups: list[RowGroup]
    deltas: list[int] = field(default_factory=list)
    include_open: bool = False


@dataclass
class RetiredGroup:
    """A row group a change replaced, kept for older readers.

    ``marks`` is the delete-bitmap state taken at retirement (positions
    -> mark epoch), or ``None`` when the live bitmap still holds the
    group's marks (a re-encode keeps the same group id live, so its
    marks never moved). ``retired_epoch`` is PENDING until the change
    commits.
    """

    group: RowGroup
    created_epoch: int
    marks: dict[int, int] | None
    retired_epoch: int = PENDING_EPOCH


@dataclass
class RetiredDelta:
    """A delta store compressed away, kept for older readers."""

    delta: DeltaStore
    retired_epoch: int = PENDING_EPOCH


@dataclass(frozen=True)
class RowLocator:
    """A stable address of one live row inside the index."""

    kind: str  # GROUP or DELTA
    container_id: int  # row-group id or delta-store id
    position: int  # position within the row group, or delta row id


@dataclass
class ScanUnit:
    """One scannable unit handed to the execution engine.

    Either a compressed row group (with its deleted-row mask at the
    reader's epoch) or a delta store's capture at it. The executor turns
    each into column batches.
    """

    kind: str
    group: RowGroup | None = None
    deleted_mask: np.ndarray | None = None
    delta: FrozenDeltaView | None = None


class _InsertSpan:
    """Commit hook of a transaction's inserts into one delta store."""

    __slots__ = ("delta", "first", "last")

    def __init__(self, delta: DeltaStore, row_id: int) -> None:
        self.delta = delta
        self.first = self.last = row_id

    def __call__(self, epoch: int) -> None:
        self.delta.stamp_inserts(self.first, self.last, epoch)


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
        delta = DeltaStore(self._next_delta_id, self.schema)
        self._delta_stores[delta.delta_id] = delta
        self._open_delta_id = delta.delta_id
        self._next_delta_id += 1
        return delta

    def insert(self, row: tuple[Any, ...], txn) -> RowLocator:
        """Trickle-insert one physical row into the open delta store.

        Records an undo that removes the row and restores the allocator
        counters and delta open/close/creation transitions — rollback
        leaves the index structurally identical to its pre-insert state,
        so replayed locators stay valid. The row is born PENDING and
        stamped at commit.
        """
        created = self._open_delta_id is None
        delta = self._open_delta()
        row_id = self._next_row_id
        self._next_row_id += 1
        txn.record(
            f"un-insert delta row {row_id} (delta {delta.delta_id})",
            lambda: self._undo_insert(delta.delta_id, row_id, created),
        )
        delta.insert(row_id, tuple(row), epoch=PENDING_EPOCH)
        # One commit stamp per (transaction, delta store), over a row-id span.
        txn.commit_hook(delta, lambda: _InsertSpan(delta, row_id)).last = row_id
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

    def bulk_load(self, rows: Sequence[tuple[Any, ...]], txn) -> None:
        """Insert many physical rows at once (:meth:`bulk_load_physical`)."""
        self.bulk_load_physical(PhysicalColumns(*rows_to_columns(self.schema, rows)), txn)

    def bulk_load_physical(self, physical: PhysicalColumns, txn) -> None:
        """Insert many coerced rows, held as columns, at once.

        At or above the bulk-load threshold the columns are compressed
        directly into row groups (the paper's bulk-insert path,
        :meth:`plan_load`); below it they fall back to trickle inserts of
        their rows into the delta store.
        """
        change = self.plan_load(physical)
        if change is None:
            for row in physical.rows():
                self.insert(row, txn)
        else:
            self.install_row_groups(change, txn)

    def plan_load(self, physical: PhysicalColumns) -> RowGroupChange | None:
        """The row groups a bulk load of ``physical`` compresses into, or
        ``None`` below the bulk-load threshold."""
        if physical.count < self.config.bulk_load_threshold:
            return None
        return RowGroupChange(LOAD, self.loader.compress(physical.values, physical.nulls))

    def bulk_load_columns(
        self,
        columns: dict[str, np.ndarray],
        txn,
        null_masks: dict[str, np.ndarray | None] | None = None,
    ) -> None:
        """Columnar bulk load (always takes the direct-compress path)."""
        self.install_row_groups(RowGroupChange(LOAD, self.loader.compress(columns, null_masks)), txn)

    # ------------------------------------------------------------------ #
    # Deletes
    # ------------------------------------------------------------------ #
    def delete(self, locator: RowLocator, txn) -> bool:
        """Delete one row; returns ``False`` if it was already gone.

        MVCC: deletes are *versioned* — a bitmap mark carries its commit
        epoch and a delta delete tombstones the row in place — so a
        snapshot reader pinned before the delete committed keeps seeing
        the row. The delete is stamped PENDING, with a commit hook that
        stamps the real epoch.
        """
        if locator.kind == GROUP:
            group = self.directory.row_group(locator.container_id)
            if not 0 <= locator.position < group.row_count:
                raise StorageError(
                    f"position {locator.position} out of range for row group "
                    f"{locator.container_id}"
                )
            group_id, position = locator.container_id, locator.position
            if not self.delete_bitmap.mark(group_id, position, epoch=PENDING_EPOCH):
                return False
            txn.record(
                f"unmark deleted row {locator}",
                lambda: self.delete_bitmap.unmark(group_id, position),
            )
            txn.on_commit(lambda e: self.delete_bitmap.stamp(group_id, position, e))
            return True
        delta = self._delta_stores.get(locator.container_id)
        if delta is None:
            raise StorageError(f"unknown delta store {locator.container_id}")
        if not delta.tombstone(locator.position, PENDING_EPOCH):
            return False
        txn.record(
            f"restore delta row {locator}",
            lambda: delta.clear_tombstone(locator.position),
        )
        txn.on_commit(lambda e: delta.stamp_tombstone(locator.position, e))
        return True

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

    def pin_scan_units(
        self, epoch: int, eliminated: Callable[[RowGroup], bool] | None = None
    ) -> list[ScanUnit | None]:
        """Every scannable unit visible at ``epoch``: compressed groups
        first, then delta stores. A group ``eliminated`` rejects (a scan's
        [min, max] test) comes out as ``None``: no delete mask or unit is
        built for it.

        The one place a unit list is built. A scan calls it at its first
        batch and reads the result with **no lock held**; a reader that
        is alone or inside the transaction that wrote the data passes
        ``PENDING_EPOCH`` and gets the current state, its own pending
        work included. Everything reachable from the result is stable
        under concurrent DML and maintenance:

        * compressed row groups are immutable objects — every change of
          row groups installs *new* group objects into the directory, and
          the pinned references keep the old ones alive;
        * deleted-row masks are materialized here, so later delete-bitmap
          marks never show through mid-scan — for the groups ``eliminated``
          keeps only (a rejected one, retired or live, is a ``None``);
        * delta stores are captured as (buffers, visible slots)
          (:meth:`DeltaStore.capture`) — the live store keeps absorbing
          trickle inserts into slots the pinned view never reads.

        The result is exactly the structures and rows committed at or
        before ``epoch``, including *retired* row groups / delta stores a
        change has since replaced. A retirement is PENDING until its
        change commits, so every real-epoch reader still sees what it
        retired, and ``epoch < retired_epoch`` hides every retirement,
        pending or stamped, at ``PENDING_EPOCH``. The capture runs under
        ``_pin_mutex`` so it can never interleave with a retirement
        half-way (structure in neither the live directory nor the retired
        list); the delta captures happen after the mutex is dropped, on
        references the retired lists keep alive.
        """
        with self._pin_mutex:
            group_units: dict[int, ScanUnit | None] = {}
            # Retired groups first: a re-encoded group's id is in both
            # places, and the retired record carries the marks it had
            # when replaced.
            for record in self._retired_groups:
                if not record.created_epoch <= epoch < record.retired_epoch:
                    continue
                group = record.group
                if eliminated is not None and eliminated(group):
                    group_units[group.group_id] = None
                    continue
                if record.marks is None:
                    mask = self.delete_bitmap.mask_for(
                        group.group_id, group.row_count, epoch
                    )
                else:
                    mask = deleted_mask(record.marks, group.row_count, epoch)
                group_units[group.group_id] = ScanUnit(
                    kind=GROUP, group=group, deleted_mask=mask
                )
            for group, _created in self.directory.visible_groups(epoch):
                if group.group_id in group_units:
                    continue
                if eliminated is not None and eliminated(group):
                    group_units[group.group_id] = None
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
        units: list[ScanUnit | None] = [group_units[gid] for gid in sorted(group_units)]
        for delta in sorted(delta_refs, key=lambda d: d.delta_id):
            view = delta.capture(epoch)
            if view.row_count:
                units.append(ScanUnit(kind=DELTA, delta=view))
        return units

    def delta_stores(self) -> list[DeltaStore]:
        return [self._delta_stores[k] for k in sorted(self._delta_stores)]

    def closed_delta_stores(self) -> list[DeltaStore]:
        return [d for d in self.delta_stores() if not d.is_open and d.row_count]

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

    def install_row_groups(self, change: RowGroupChange, txn) -> None:
        """Install ``change`` under ``txn``: the one code that adds,
        replaces or retires row groups and delta stores.

        What the new groups replace follows from the change's kind
        (:meth:`_replaced`). The new groups are created at PENDING and
        what they replace is retired at PENDING, under one ``_pin_mutex``
        hold: a reader pinned at a real epoch keeps scanning the old
        structures, and one at ``PENDING_EPOCH`` (the statement itself)
        sees the new. One commit hook stamps both sides with the commit
        epoch; one undo puts everything back (the directory, its id
        allocator and dictionaries, the retired groups' delete marks, the
        delta stores and which one was open). Once the epoch is published
        the retired structures are vacuumed. An empty change installs
        nothing and registers no hook.
        """
        groups, deltas = self._replaced(change)
        retired: list[RetiredGroup | RetiredDelta] = []
        mark = (self.directory.mark(), dict(self._delta_stores), self._open_delta_id)
        txn.record(
            f"undo the {change.kind} of {len(change.groups)} row groups",
            lambda: self._rewind(mark, retired),
        )
        if change.include_open:
            self.close_open_delta()
        if not (change.groups or groups or deltas):
            return
        with self._pin_mutex:
            for group in groups:
                gid = group.group_id
                marks = None if change.kind == REENCODE else self.delete_bitmap.take_group(gid)
                retired.append(RetiredGroup(group, self.directory.created_epoch(gid), marks))
                self._retired_groups += (retired[-1],)
                self.directory.remove_row_group(gid)
            for delta in deltas:
                retired.append(RetiredDelta(delta))
                self._retired_deltas += (retired[-1],)
                del self._delta_stores[delta.delta_id]
            if self._open_delta_id not in self._delta_stores:
                self._open_delta_id = None
        self.directory.install(change.groups, PENDING_EPOCH)
        new_ids = [group.group_id for group in change.groups]
        txn.on_commit(lambda epoch: self._stamp(new_ids, retired, epoch))
        if retired:
            txn.after_publish(self.vacuum)

    def _replaced(self, change: RowGroupChange) -> tuple[list[RowGroup], list[DeltaStore]]:
        """The row groups and delta stores ``change`` replaces: nothing
        for a load; a move's ``deltas`` (each closed, or the open one
        when ``include_open``); every live group and delta for a rebuild;
        the live group of each new group's id for a re-encode."""
        if change.kind == REBUILD:
            return list(self.directory.row_groups()), self.delta_stores()
        if change.kind == REENCODE:
            return [self.directory.row_group(group.group_id) for group in change.groups], []
        deltas = [self._delta_stores.get(delta_id) for delta_id in change.deltas]
        if any(delta is None or (delta.is_open and not change.include_open) for delta in deltas):
            raise StorageError(f"the tuple mover found no closed delta store among {change.deltas}")
        return [], deltas

    def _stamp(self, group_ids: list[int], retired: list, epoch: int) -> None:
        """An install's commit hook: its groups are created, and what it
        replaced retired, at ``epoch``."""
        self.directory.stamp(group_ids, epoch)
        with self._pin_mutex:
            for record in retired:
                record.retired_epoch = epoch

    def _rewind(self, mark: tuple, retired: list) -> None:
        """An install's undo: back to the state ``mark`` recorded."""
        directory_mark, deltas, open_delta_id = mark
        undone = {id(record) for record in retired}
        with self._pin_mutex:
            self._retired_groups = tuple(r for r in self._retired_groups if id(r) not in undone)
            self._retired_deltas = tuple(r for r in self._retired_deltas if id(r) not in undone)
            for record in retired:
                if isinstance(record, RetiredGroup) and record.marks:
                    self.delete_bitmap.restore_group(record.group.group_id, record.marks)
            self.directory.rewind(directory_mark)
            self._delta_stores = deltas
            self._open_delta_id = open_delta_id
        if open_delta_id is not None:
            deltas[open_delta_id].reopen()

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

    def plan_move(self, include_open: bool = False) -> RowGroupChange:
        """What the tuple mover would do: compress every closed delta
        store holding rows (the open one too when ``include_open``), each
        into its own row groups, numbered on from the directory's next id."""
        ids = itertools.count(self.directory.next_group_id)
        deltas = [
            delta
            for delta in self.delta_stores()
            if delta.row_count and (include_open or not delta.is_open)
        ]
        groups: list[RowGroup] = []
        for delta in deltas:
            columns, null_masks, _row_ids = delta.capture(PENDING_EPOCH).to_columns()
            groups += self.loader.compress(columns, null_masks, ids)
        return RowGroupChange(MOVE, groups, [d.delta_id for d in deltas], include_open)

    def plan_rebuild(self) -> RowGroupChange:
        """REBUILD's row groups: every live row, recompressed."""
        live_rows = [row for _, row in self.iter_unit_rows(self.pin_scan_units(PENDING_EPOCH))]
        groups = self.loader.compress(*rows_to_columns(self.schema, live_rows)) if live_rows else []
        return RowGroupChange(REBUILD, groups)

    def plan_archival(self, enabled: bool) -> RowGroupChange:
        """Every live row group re-encoded with archival compression on or off."""
        groups = self.directory.row_groups()
        if enabled:
            return RowGroupChange(REENCODE, [group.to_archived() for group in groups])
        return RowGroupChange(REENCODE, [group.to_unarchived() for group in groups])

    def iter_unit_rows(
        self, units: Iterable[ScanUnit]
    ) -> Iterator[tuple[tuple[str, int, int], tuple[Any, ...]]]:
        """Decode scan units back into Python row tuples (row-mode path),
        each with its address: a :class:`RowLocator`'s fields."""
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
                    yield (GROUP, group.group_id, position), tuple(row)
            else:
                assert unit.delta is not None
                delta_id = unit.delta.delta_id
                for row_id, row in unit.delta.scan():
                    yield (DELTA, delta_id, row_id), row
