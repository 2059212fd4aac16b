"""The catalog: tables, their storage and statistics.

A table can be stored as a **clustered columnstore** (the paper's 2014
enhancement: the columnstore *is* the base storage), as a plain **row
store** (the baseline), or as **both** (a row-store heap plus an updatable
columnstore index over it, the 2012 NCCI scenario made updatable). DML
goes through :class:`Table` so all storages stay consistent.
"""

from __future__ import annotations

import enum
from typing import Any, Sequence

from ..errors import CatalogError, StorageError
from ..rowstore.compression import table_page_compressed_size
from ..rowstore.index import RowStoreIndex
from ..rowstore.table import RowId, RowStoreTable
from ..schema import PhysicalColumns, TableSchema
from ..storage.columnstore import MOVE, ColumnStoreIndex, RowGroupChange, RowLocator
from ..storage.config import StoreConfig
from ..storage.tuple_mover import TupleMover
from ..planner.stats import ColumnStats, Histogram, HistogramBucket, TableStats
from ..types import TypeKind


class StorageKind(enum.Enum):
    COLUMNSTORE = "columnstore"
    ROWSTORE = "rowstore"
    BOTH = "both"


class Table:
    """One table: schema + storage + secondary indexes + statistics."""

    def __init__(
        self,
        name: str,
        schema: TableSchema,
        storage: StorageKind = StorageKind.COLUMNSTORE,
        config: StoreConfig | None = None,
    ) -> None:
        self.name = name
        self.schema = schema
        self.storage_kind = storage
        self.config = config or StoreConfig()
        self.columnstore: ColumnStoreIndex | None = None
        self.rowstore: RowStoreTable | None = None
        self.indexes: dict[str, RowStoreIndex] = {}
        if storage in (StorageKind.COLUMNSTORE, StorageKind.BOTH):
            self.columnstore = ColumnStoreIndex(schema, self.config)
        if storage in (StorageKind.ROWSTORE, StorageKind.BOTH):
            self.rowstore = RowStoreTable(schema)
        self._stats_cache: TableStats | None = None
        self._stats_version = 0
        self._data_version = 0

    # ------------------------------------------------------------------ #
    # DML
    # ------------------------------------------------------------------ #
    def insert_physical_rows(self, physical: Sequence[tuple[Any, ...]], txn) -> int:
        """Insert rows that are *already coerced* to physical values.

        Coercion is not idempotent (DECIMAL coercion scales ints), so
        redo records carry these physical rows and replay applies them
        here uncoerced. Every mutation point records its physical undo
        in ``txn``.
        """
        for row in physical:
            self._insert_physical(row, txn)
        self._bump_data_version(txn)
        return len(physical)

    def _insert_physical(self, row: tuple[Any, ...], txn) -> None:
        if self.rowstore is not None:
            rid = self.rowstore.insert(row, txn)
            for index in self.indexes.values():
                index.insert(row, rid)
                txn.record(
                    f"un-index inserted row {rid}",
                    lambda index=index: index.delete(row, rid),
                )
        if self.columnstore is not None:
            self.columnstore.insert(row, txn)

    def bulk_load_physical(self, physical: PhysicalColumns, txn) -> int:
        """Bulk-load already-coerced rows, held as columns (see
        :meth:`insert_physical_rows`): a columnstore takes the columns as
        they are; row-store (and BOTH) inserts keep rid bookkeeping per
        row."""
        if self.storage_kind is StorageKind.COLUMNSTORE:
            assert self.columnstore is not None
            self.columnstore.bulk_load_physical(physical, txn)
        else:
            for row in physical.rows():
                self._insert_physical(row, txn)
        self._bump_data_version(txn)
        return physical.count

    def delete_rows(self, rids: list[RowId], locators: list[RowLocator], txn) -> int:
        """Delete the rows at these addresses — row-store ``rids`` and
        columnstore ``locators`` — and return the logical row count.

        Every address must delete exactly one row: one whose row is
        already gone raises :class:`~repro.errors.StorageError`, which
        rolls a statement back and fails recovery with a
        :class:`~repro.errors.ReplayError` naming the record's LSN (the
        log and the snapshot have diverged). A BOTH-storage table holds
        each logical row twice (heap + index) and its statement addresses
        it once per storage, so the count is the longer list's length —
        never the per-storage sum.
        """
        for rid in rids:
            self._delete_rowstore_rid(rid, txn)
        for locator in locators:
            if not self.columnstore.delete(locator, txn):
                raise StorageError(f"row {locator} of {self.name} is already deleted")
        if rids or locators:
            self._bump_data_version(txn)
        return max(len(rids), len(locators))

    def _delete_rowstore_rid(self, rid: RowId, txn) -> None:
        assert self.rowstore is not None
        row = self.rowstore.get(rid)
        if row is None:
            raise StorageError(f"row {rid} of {self.name} is already deleted")
        # One undo entry per mutation, recorded immediately after each
        # succeeds: a fault anywhere in this sequence (even between two
        # index deletes) rolls back exactly the mutations that happened.
        self.rowstore.delete(rid)
        txn.record(f"un-delete rowstore row {rid}", lambda: self._undo_undelete(rid))
        for index in self.indexes.values():
            index.delete(row, rid)
            txn.record(
                f"re-index deleted row {rid}",
                lambda index=index: index.insert(row, rid),
            )

    def _undo_undelete(self, rid: RowId) -> None:
        assert self.rowstore is not None
        if not self.rowstore.undelete(rid):
            raise StorageError(f"delete undo: row {rid} is not tombstoned")

    def _bump_data_version(self, txn) -> None:
        previous = self._data_version
        txn.record(
            f"restore {self.name} data version to {previous}",
            lambda: setattr(self, "_data_version", previous),
        )
        self._data_version += 1

    # ------------------------------------------------------------------ #
    # Changes that create compressed row groups
    # ------------------------------------------------------------------ #
    # Each is planned (compressed, nothing installed) and then installed
    # by install_row_groups, the apply of a logged ROW_GROUPS record.
    def plan_bulk_load(self, physical: PhysicalColumns) -> RowGroupChange | None:
        """The row groups a bulk load compresses into, or ``None`` when
        the load is applied as rows (below the bulk-load threshold, or a
        table with a row-store heap)."""
        if self.storage_kind is not StorageKind.COLUMNSTORE:
            return None
        return self.columnstore.plan_load(physical)

    def plan_tuple_mover(self, include_open: bool = False) -> RowGroupChange:
        return self._columnstore().plan_move(include_open)

    def plan_rebuild(self) -> RowGroupChange:
        index = self._columnstore()
        if self.storage_kind is StorageKind.BOTH:
            raise CatalogError("REBUILD on BOTH-storage tables is not supported")
        return index.plan_rebuild()

    def plan_archival(self, enabled: bool) -> RowGroupChange:
        return self._columnstore().plan_archival(enabled)

    def install_row_groups(self, change: RowGroupChange, txn):
        """Install a planned change's row groups
        (:meth:`ColumnStoreIndex.install_row_groups`; a move through the
        tuple mover, which reports it); returns the statement's result
        (the tuple mover's report, else the rows the new groups hold)."""
        index = self._columnstore()
        if change.kind == MOVE:
            result = TupleMover(index).run(change, txn)
        else:
            index.install_row_groups(change, txn)
            result = sum(group.row_count for group in change.groups)
        self._bump_data_version(txn)
        return result

    def _columnstore(self) -> ColumnStoreIndex:
        if self.columnstore is None:
            raise CatalogError(f"table {self.name!r} has no columnstore index")
        return self.columnstore

    def create_index(self, index_name: str, columns: list[str]) -> RowStoreIndex:
        if self.rowstore is None:
            raise CatalogError(f"table {self.name!r} has no row store to index")
        if index_name in self.indexes:
            raise CatalogError(f"index {index_name!r} already exists")
        index = RowStoreIndex(self.rowstore, columns)
        self.indexes[index_name] = index
        return index

    # ------------------------------------------------------------------ #
    # Accounting / statistics
    # ------------------------------------------------------------------ #
    @property
    def row_count(self) -> int:
        if self.columnstore is not None:
            return self.columnstore.live_rows
        assert self.rowstore is not None
        return self.rowstore.row_count

    def size_report(self) -> dict[str, int]:
        """Sizes of each representation (for the compression experiments)."""
        report: dict[str, int] = {}
        if self.columnstore is not None:
            report["columnstore_bytes"] = self.columnstore.size_bytes
            report["columnstore_raw_bytes"] = self.columnstore.directory.raw_size_bytes
        if self.rowstore is not None:
            report["rowstore_used_bytes"] = self.rowstore.used_bytes
            report["rowstore_page_compressed_bytes"] = table_page_compressed_size(
                self.rowstore
            )
        return report

    def stats(self) -> TableStats:
        if self._stats_cache is not None and self._stats_version == self._data_version:
            return self._stats_cache
        self._stats_cache = self._compute_stats()
        self._stats_version = self._data_version
        return self._stats_cache

    def _compute_stats(self) -> TableStats:
        stats = TableStats(row_count=self.row_count)
        if self.columnstore is not None:
            self._stats_from_columnstore(stats)
        elif self.rowstore is not None:
            self._stats_from_rowstore(stats)
        return stats

    def _stats_from_columnstore(self, stats: TableStats) -> None:
        assert self.columnstore is not None
        directory = self.columnstore.directory
        rows_with_nulls: dict[str, int] = {}
        for info in directory.segment_infos():
            col_stats = stats.columns.setdefault(info.column, ColumnStats())
            if info.min_value is not None:
                if col_stats.min_value is None or info.min_value < col_stats.min_value:
                    col_stats.min_value = info.min_value
                if col_stats.max_value is None or info.max_value > col_stats.max_value:
                    col_stats.max_value = info.max_value
                # Each segment is one histogram bucket: its [min, max]
                # range and row count come straight from the directory.
                if col_stats.histogram is None:
                    col_stats.histogram = Histogram()
                col_stats.histogram.buckets.append(
                    HistogramBucket(
                        low=info.min_value,
                        high=info.max_value,
                        rows=info.row_count - info.null_count,
                    )
                )
            rows_with_nulls[info.column] = (
                rows_with_nulls.get(info.column, 0) + info.null_count
            )
        compressed = max(1, self.columnstore.compressed_rows)
        for column, nulls in rows_with_nulls.items():
            stats.columns.setdefault(column, ColumnStats()).null_fraction = (
                nulls / compressed
            )
        for col in self.schema:
            gd = directory.global_dictionary(col.name)
            if len(gd):
                stats.columns.setdefault(col.name, ColumnStats()).ndv = len(gd)
            elif col.dtype.kind in (TypeKind.INT, TypeKind.BIGINT, TypeKind.DATE):
                col_stats = stats.columns.get(col.name)
                if (
                    col_stats is not None
                    and col_stats.min_value is not None
                    and col_stats.max_value is not None
                ):
                    span = int(col_stats.max_value) - int(col_stats.min_value) + 1
                    col_stats.ndv = min(span, stats.row_count or 1)

    def _stats_from_rowstore(self, stats: TableStats) -> None:
        assert self.rowstore is not None
        names = self.schema.names
        distinct: dict[str, set] = {name: set() for name in names}
        nulls = {name: 0 for name in names}
        mins: dict[str, Any] = {}
        maxs: dict[str, Any] = {}
        for _rid, row in self.rowstore.scan():
            for name, value in zip(names, row):
                if value is None:
                    nulls[name] += 1
                    continue
                distinct[name].add(value)
                if name not in mins or value < mins[name]:
                    mins[name] = value
                if name not in maxs or value > maxs[name]:
                    maxs[name] = value
        total = max(1, self.rowstore.row_count)
        for name in names:
            stats.columns[name] = ColumnStats(
                min_value=mins.get(name),
                max_value=maxs.get(name),
                ndv=len(distinct[name]) or None,
                null_fraction=nulls[name] / total,
            )


class Catalog:
    """Name -> :class:`Table` registry (the planner's CatalogView).

    ``version`` is a monotonic DDL counter bumped by every create / drop
    / restore. Unlike the database's catalog *epoch* (which transaction
    rollback restores, because it feeds the save fingerprint), the
    version never goes backwards — snapshot readers record it at pin
    time to detect that the table set they bound against is still the
    one they are scanning.
    """

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}
        self.version = 0

    def create_table(
        self,
        name: str,
        schema: TableSchema,
        storage: StorageKind = StorageKind.COLUMNSTORE,
        config: StoreConfig | None = None,
    ) -> Table:
        key = name.lower()
        if key in self._tables:
            raise CatalogError(f"table {name!r} already exists")
        table = Table(name, schema, storage, config)
        self._tables[key] = table
        self.version += 1
        return table

    def drop_table(self, name: str) -> None:
        if name.lower() not in self._tables:
            raise CatalogError(f"unknown table {name!r}")
        del self._tables[name.lower()]
        self.version += 1

    def restore_table(self, table: Table) -> None:
        """Re-register a dropped table object (DROP TABLE undo)."""
        key = table.name.lower()
        if key in self._tables:
            raise CatalogError(f"table {table.name!r} already exists")
        self._tables[key] = table
        self.version += 1

    def table(self, name: str) -> Table:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise CatalogError(f"unknown table {name!r}") from None

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    def table_names(self) -> list[str]:
        return sorted(t.name for t in self._tables.values())
