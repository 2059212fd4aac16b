"""Tests for the updatable columnstore index: delta stores, delete bitmap,
tuple mover, bulk load, rebuild and archival."""

import numpy as np
import pytest

from repro import types
from repro.errors import StorageError
from repro.mvcc import PENDING_EPOCH
from repro.schema import schema
from repro.storage.columnstore import DELTA, GROUP, ColumnStoreIndex, RowLocator
from repro.storage.config import StoreConfig
from repro.storage.tuple_mover import TupleMover
from repro.txn import autocommit
from repro.types import python_values


@pytest.fixture
def sch():
    return schema(("id", types.INT, False), ("name", types.VARCHAR), ("v", types.FLOAT))


@pytest.fixture
def small_config():
    return StoreConfig(rowgroup_size=50, bulk_load_threshold=40, delta_close_rows=20)


@pytest.fixture
def index(sch, small_config):
    return ColumnStoreIndex(sch, small_config)


def read_row(index, locator):
    """The row at ``locator`` as a reader sees it now, through the one read
    path (the units pinned at ``PENDING_EPOCH``); None when deleted."""
    for unit in index.pin_scan_units(PENDING_EPOCH):
        if unit.kind != locator.kind:
            continue
        if unit.kind == DELTA and unit.delta.delta_id == locator.container_id:
            return dict(unit.delta.scan()).get(locator.position)
        if unit.kind == GROUP and unit.group.group_id == locator.container_id:
            if unit.deleted_mask is not None and unit.deleted_mask[locator.position]:
                return None
            position = np.array([locator.position])
            return tuple(
                python_values(*unit.group.segment(column.name).take(position))[0]
                for column in index.schema
            )
    return None


def make_rows(sch, n, start=0):
    return [sch.coerce_row((start + i, f"n{(start + i) % 5}", float(i))) for i in range(n)]


def insert(index, rows):
    with autocommit(index.mvcc) as txn:
        return [index.insert(row, txn) for row in rows]


def bulk_load(index, rows):
    with autocommit(index.mvcc) as txn:
        index.bulk_load(rows, txn)


def delete(index, locator):
    with autocommit(index.mvcc) as txn:
        return index.delete(locator, txn)


def install(index, change):
    with autocommit(index.mvcc) as txn:
        index.install_row_groups(change, txn)


def move(index, include_open=False):
    with autocommit(index.mvcc) as txn:
        return TupleMover(index).run(index.plan_move(include_open), txn)


class TestTrickleInsert:
    def test_insert_goes_to_delta(self, index, sch):
        locator = insert(index, [sch.coerce_row((1, "a", 1.0))])[0]
        assert locator.kind == DELTA
        assert index.delta_rows == 1
        assert index.compressed_rows == 0

    def test_delta_closes_at_threshold(self, index, sch):
        insert(index, make_rows(sch, 20))
        deltas = index.delta_stores()
        assert len(deltas) == 1
        assert not deltas[0].is_open

    def test_new_delta_opens_after_close(self, index, sch):
        insert(index, make_rows(sch, 25))
        deltas = index.delta_stores()
        assert len(deltas) == 2
        assert not deltas[0].is_open
        assert deltas[1].is_open
        assert index.delta_rows == 25

    def test_get_row(self, index, sch):
        locator = insert(index, [sch.coerce_row((7, "x", 2.5))])[0]
        assert read_row(index, locator) == (7, "x", 2.5)


class TestBulkLoad:
    def test_large_load_compresses_directly(self, index, sch):
        bulk_load(index, make_rows(sch, 120))
        assert index.compressed_rows == 120
        assert index.delta_rows == 0
        assert len(index.directory) == 3  # 120 rows / 50-row groups

    def test_small_load_goes_to_delta(self, index, sch):
        bulk_load(index, make_rows(sch, 10))
        assert index.compressed_rows == 0
        assert index.delta_rows == 10

    def test_columnar_load(self, index):
        columns = {
            "id": np.arange(60, dtype=np.int32),
            "name": np.array(["a"] * 60, dtype=object),
            "v": np.ones(60),
        }
        with autocommit(index.mvcc) as txn:
            index.bulk_load_columns(columns, txn)
        assert index.compressed_rows == 60


class TestDelete:
    def test_delete_compressed_row_marks_bitmap(self, index, sch):
        bulk_load(index, make_rows(sch, 50))
        group = next(index.directory.row_groups())
        assert delete(index, RowLocator(GROUP, group.group_id, 3))
        mask = index.delete_bitmap.mask_for(group.group_id, 50, PENDING_EPOCH)
        assert np.flatnonzero(mask).tolist() == [3]
        assert index.live_rows == 49

    def test_double_delete_returns_false(self, index, sch):
        bulk_load(index, make_rows(sch, 50))
        group = next(index.directory.row_groups())
        locator = RowLocator(GROUP, group.group_id, 0)
        assert delete(index, locator)
        assert not delete(index, locator)

    def test_delete_delta_row_in_place(self, index, sch):
        locator = insert(index, [sch.coerce_row((1, "a", 1.0))])[0]
        assert delete(index, locator)
        assert index.delta_rows == 0
        assert read_row(index, locator) is None

    def test_delete_bad_position_raises(self, index, sch):
        bulk_load(index, make_rows(sch, 50))
        group = next(index.directory.row_groups())
        with pytest.raises(StorageError):
            delete(index, RowLocator(GROUP, group.group_id, 999))

    def test_deleted_compressed_row_unreadable(self, index, sch):
        bulk_load(index, make_rows(sch, 50))
        group = next(index.directory.row_groups())
        locator = RowLocator(GROUP, group.group_id, 2)
        assert read_row(index, locator) is not None
        delete(index, locator)
        assert read_row(index, locator) is None


class TestTupleMover:
    def test_moves_closed_deltas(self, index, sch):
        insert(index, make_rows(sch, 45))  # two closed (20+20), one open (5)
        report = move(index)
        assert report.delta_stores_compressed == 2
        assert report.rows_moved == 40
        assert index.compressed_rows == 40
        assert index.delta_rows == 5

    def test_include_open(self, index, sch):
        insert(index, make_rows(sch, 5))
        report = move(index, include_open=True)
        assert report.rows_moved == 5
        assert index.delta_rows == 0
        assert index.live_rows == 5

    def test_deleted_delta_rows_not_moved(self, index, sch):
        locators = insert(index, make_rows(sch, 20))  # closes exactly
        # Delete from the *closed* delta store before the mover runs.
        index._delta_stores[locators[0].container_id].delete(locators[0].position)
        report = move(index)
        assert report.rows_moved == 19
        assert index.live_rows == 19

    def test_noop_when_nothing_closed(self, index, sch):
        insert(index, make_rows(sch, 3))
        report = move(index)
        assert report.delta_stores_compressed == 0


class TestRebuild:
    def test_rebuild_drops_deleted_rows(self, index, sch):
        bulk_load(index, make_rows(sch, 100))
        group = next(index.directory.row_groups())
        for position in range(10):
            delete(index, RowLocator(GROUP, group.group_id, position))
        install(index, index.plan_rebuild())
        assert index.live_rows == 90
        assert index.compressed_rows == 90
        assert index.delete_bitmap.total_deleted == 0

    def test_rebuild_folds_delta_stores(self, index, sch):
        bulk_load(index, make_rows(sch, 50))
        insert(index, make_rows(sch, 7, start=1000))
        install(index, index.plan_rebuild())
        assert index.delta_rows == 0
        assert index.compressed_rows == 57

    def test_rebuild_empty_index(self, index):
        install(index, index.plan_rebuild())
        assert index.live_rows == 0


class TestArchival:
    def test_archive_toggles(self, index, sch):
        bulk_load(index, make_rows(sch, 50))
        plain_size = index.size_bytes
        install(index, index.plan_archival(True))
        for group in index.directory.row_groups():
            assert group.archived
        install(index, index.plan_archival(False))
        for group in index.directory.row_groups():
            assert not group.archived
        assert index.size_bytes == plain_size

    def test_archived_data_still_scans(self, index, sch):
        rows = make_rows(sch, 50)
        bulk_load(index, rows)
        install(index, index.plan_archival(True))
        live = sorted(row for _, row in index.iter_unit_rows(index.pin_scan_units(PENDING_EPOCH)))
        assert len(live) == 50
        assert live[0][0] == 0


class TestAccounting:
    def test_fraction_in_delta(self, index, sch):
        bulk_load(index, make_rows(sch, 60))
        insert(index, make_rows(sch, 15, start=500))
        assert index.fraction_in_delta == pytest.approx(15 / 75)

    def test_scan_units_cover_everything(self, index, sch):
        bulk_load(index, make_rows(sch, 60))
        insert(index, make_rows(sch, 5, start=500))
        units = index.pin_scan_units(PENDING_EPOCH)
        group_units = [u for u in units if u.kind == GROUP]
        delta_units = [u for u in units if u.kind == DELTA]
        assert sum(u.group.row_count for u in group_units) == 60
        assert sum(u.delta.row_count for u in delta_units) == 5
