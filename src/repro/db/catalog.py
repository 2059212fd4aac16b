"""The catalog: tables, their storage and statistics.

A table can be stored as a **clustered columnstore** (the paper's 2014
enhancement: the columnstore *is* the base storage), as a plain **row
store** (the baseline), or as **both** (a row-store heap plus an updatable
columnstore index over it, the 2012 NCCI scenario made updatable). DML
goes through :class:`Table` so all storages stay consistent.
"""

from __future__ import annotations

import enum
from typing import Any, Iterable, Sequence

from ..errors import CatalogError, StorageError
from ..rowstore.compression import table_page_compressed_size
from ..rowstore.index import RowStoreIndex
from ..rowstore.table import RowId, RowStoreTable
from ..schema import TableSchema
from ..storage.columnstore import ColumnStoreIndex, RowLocator
from ..storage.config import StoreConfig
from ..storage.tuple_mover import TupleMover, TupleMoverReport
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
    def insert_physical_rows(self, physical: Sequence[tuple[Any, ...]], txn=None) -> int:
        """Insert rows that are *already coerced* to physical values.

        WAL replay uses this path: coercion is not idempotent (DECIMAL
        coercion scales ints), so redo records carry physical rows and
        must not be coerced again. With a transaction context every
        mutation point records its physical undo.
        """
        for row in physical:
            self._insert_physical(row, txn)
        self._bump_data_version(txn)
        return len(physical)

    def _insert_physical(self, row: tuple[Any, ...], txn=None) -> None:
        if self.rowstore is not None:
            rid = self.rowstore.insert(row, txn)
            for index in self.indexes.values():
                index.insert(row, rid)
                if txn is not None:
                    txn.record(
                        f"un-index inserted row {rid}",
                        lambda index=index: index.delete(row, rid),
                    )
        if self.columnstore is not None:
            self.columnstore.insert(row, txn)

    def bulk_load(self, rows: Sequence[Sequence[Any]]) -> int:
        """Validate and load rows through the bulk path; returns count."""
        return self.bulk_load_physical(
            [self.schema.coerce_row(row) for row in rows]
        )

    def bulk_load_physical(self, physical: Sequence[tuple[Any, ...]], txn=None) -> int:
        """Bulk-load already-coerced rows (the WAL replay path)."""
        if self.storage_kind is StorageKind.COLUMNSTORE:
            assert self.columnstore is not None
            self.columnstore.bulk_load(physical, txn)
        else:
            # Row-store (and BOTH) inserts keep rid bookkeeping per row.
            for row in physical:
                self._insert_physical(row, txn)
        self._bump_data_version(txn)
        return len(physical)

    def delete_by_locators(self, locators: Iterable[Any], txn=None) -> int:
        """Delete rows addressed by scan-produced locators/rids.

        Each locator targets one storage; BOTH-storage tables are kept
        consistent by the facade running the same predicate against each
        storage (see :meth:`Table.delete_rows`).
        """
        deleted = 0
        for locator in locators:
            if isinstance(locator, RowId):
                deleted += self._delete_rowstore_rid(locator, txn)
            elif isinstance(locator, RowLocator):
                assert self.columnstore is not None
                if self.columnstore.delete(locator, txn):
                    deleted += 1
            else:
                raise StorageError(f"unknown locator {locator!r}")
        if deleted:
            self._bump_data_version(txn)
        return deleted

    def delete_rows(self, rids: list, locators: list, txn=None) -> int:
        """Delete the same logical rows from every storage; returns the
        *authoritative* logical row count.

        A BOTH-storage table holds each logical row twice (heap + index);
        the facade resolves the predicate against each storage and both
        physical deletes run here, but the count reported to the user is
        the number of distinct logical rows removed — never the
        per-storage sum, and never just one storage's count while the
        other silently diverges.
        """
        rowstore_deleted = self.delete_by_locators(rids, txn)
        columnstore_deleted = self.delete_by_locators(locators, txn)
        if self.rowstore is None:
            return columnstore_deleted
        if self.columnstore is None:
            return rowstore_deleted
        # Each logical row contributes at most one rid and one locator,
        # so the larger count is the number of logical rows any storage
        # still held (the smaller storage had already lost some).
        return max(rowstore_deleted, columnstore_deleted)

    def _delete_rowstore_rid(self, rid: RowId, txn=None) -> int:
        assert self.rowstore is not None
        row = self.rowstore.get(rid)
        if row is None:
            return 0
        # One undo entry per mutation, recorded immediately after each
        # succeeds: a fault anywhere in this sequence (even between two
        # index deletes) rolls back exactly the mutations that happened.
        self.rowstore.delete(rid)
        if txn is not None:
            txn.record(
                f"un-delete rowstore row {rid}",
                lambda: self._undo_undelete(rid),
            )
        for index in self.indexes.values():
            index.delete(row, rid)
            if txn is not None:
                txn.record(
                    f"re-index deleted row {rid}",
                    lambda index=index: index.insert(row, rid),
                )
        return 1

    def _undo_undelete(self, rid: RowId) -> None:
        assert self.rowstore is not None
        if not self.rowstore.undelete(rid):
            raise StorageError(f"delete undo: row {rid} is not tombstoned")

    def _bump_data_version(self, txn=None) -> None:
        if txn is not None:
            previous = self._data_version
            txn.record(
                f"restore {self.name} data version to {previous}",
                lambda: setattr(self, "_data_version", previous),
            )
        self._data_version += 1

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #
    def run_tuple_mover(self, include_open: bool = False) -> TupleMoverReport:
        if self.columnstore is None:
            raise CatalogError(f"table {self.name!r} has no columnstore index")
        report = TupleMover(self.columnstore).run(include_open=include_open)
        self._data_version += 1
        return report

    def rebuild_columnstore(self) -> None:
        if self.columnstore is None:
            raise CatalogError(f"table {self.name!r} has no columnstore index")
        if self.storage_kind is StorageKind.BOTH:
            raise CatalogError("REBUILD on BOTH-storage tables is not supported")
        self.columnstore.rebuild()
        self._data_version += 1

    def set_archival(self, enabled: bool) -> None:
        if self.columnstore is None:
            raise CatalogError(f"table {self.name!r} has no columnstore index")
        if enabled:
            self.columnstore.archive()
        else:
            self.columnstore.unarchive()
        self._data_version += 1

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
