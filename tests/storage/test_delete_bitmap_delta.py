"""Tests for the delete bitmap and delta stores."""

import numpy as np
import pytest

from repro import types
from repro.errors import StorageError
from repro.mvcc import PENDING_EPOCH
from repro.schema import schema
from repro.storage.delete_bitmap import DeleteBitmap
from repro.storage.deltastore import DeltaStore


class TestDeleteBitmap:
    def test_mark_and_check(self):
        bitmap = DeleteBitmap()
        assert bitmap.mark(1, 5)
        assert bitmap.mask_for(1, 7, PENDING_EPOCH).tolist() == [False] * 5 + [True, False]
        assert bitmap.mask_for(2, 7, PENDING_EPOCH) is None

    def test_double_mark(self):
        bitmap = DeleteBitmap()
        assert bitmap.mark(0, 0)
        assert not bitmap.mark(0, 0)
        assert bitmap.total_deleted == 1

    def test_mark_many(self):
        bitmap = DeleteBitmap()
        assert bitmap.mark_many(3, [1, 2, 3]) == 3
        assert bitmap.mark_many(3, [3, 4]) == 1
        assert bitmap.deleted_count(3) == 4

    def test_mask_for(self):
        bitmap = DeleteBitmap()
        bitmap.mark_many(0, [1, 3])
        mask = bitmap.mask_for(0, 5, PENDING_EPOCH)
        assert mask.tolist() == [False, True, False, True, False]

    def test_mask_for_untouched_group_is_none(self):
        assert DeleteBitmap().mask_for(9, 10, PENDING_EPOCH) is None

    def test_take_group_then_restore_it(self):
        bitmap = DeleteBitmap()
        bitmap.mark(1, 1, epoch=4)
        marks = bitmap.take_group(1)
        assert bitmap.total_deleted == 0
        assert bitmap.mask_for(1, 5, PENDING_EPOCH) is None
        bitmap.restore_group(1, marks)
        assert bitmap.mask_for(1, 5, 4).tolist() == [False, True, False, False, False]
        assert bitmap.mask_for(1, 5, 3) is None  # the mark's epoch came back too

    def test_groups_with_deletes(self):
        bitmap = DeleteBitmap()
        bitmap.mark(5, 0)
        bitmap.mark(2, 0)
        assert bitmap.groups_with_deletes() == [2, 5]


@pytest.fixture
def sch():
    return schema(("id", types.INT, False), ("v", types.VARCHAR))


class TestDeltaStore:
    def test_insert_and_get(self, sch):
        delta = DeltaStore(0, sch)
        delta.insert(10, (1, "a"))
        assert delta.capture(PENDING_EPOCH).scan() == [(10, (1, "a"))]
        assert delta.row_count == 1

    def test_duplicate_row_id_rejected(self, sch):
        delta = DeltaStore(0, sch)
        delta.insert(1, (1, "a"))
        with pytest.raises(StorageError):
            delta.insert(1, (2, "b"))

    def test_closed_rejects_inserts(self, sch):
        delta = DeltaStore(0, sch)
        delta.close()
        with pytest.raises(StorageError):
            delta.insert(1, (1, "a"))

    def test_closed_allows_deletes(self, sch):
        delta = DeltaStore(0, sch)
        delta.insert(1, (1, "a"))
        delta.close()
        assert delta.delete(1)

    def test_scan_in_row_id_order(self, sch):
        delta = DeltaStore(0, sch)
        for row_id in [5, 1, 3]:
            delta.insert(row_id, (row_id, "x"))
        assert [rid for rid, _ in delta.capture(PENDING_EPOCH).scan()] == [1, 3, 5]

    def test_to_columns(self, sch):
        delta = DeltaStore(0, sch)
        delta.insert(1, (10, "a"))
        delta.insert(2, (20, None))
        columns, masks, row_ids = delta.capture(PENDING_EPOCH).to_columns()
        assert columns["id"].tolist() == [10, 20]
        assert columns["id"].dtype == np.int32
        assert masks["v"].tolist() == [False, True]
        assert masks["id"] is None
        assert row_ids.tolist() == [1, 2]

    def test_size_bytes_grows(self, sch):
        delta = DeltaStore(0, sch)
        empty = delta.size_bytes
        delta.insert(1, (1, "hello"))
        assert delta.size_bytes > empty
