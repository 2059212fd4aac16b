"""Tests for the row-store substrate: pages, heap table, indexes, PAGE
compression model."""

import pytest

from repro import types
from repro.errors import StorageError
from repro.rowstore.compression import (
    page_compressed_size,
    table_page_compressed_size,
)
from repro.rowstore.index import RowStoreIndex
from repro.rowstore.page import PAGE_SIZE_BYTES, Page, row_size_bytes
from repro.rowstore.table import RowId, RowStoreTable
from repro.schema import schema
from repro.txn import autocommit


@pytest.fixture
def sch():
    return schema(("id", types.INT, False), ("name", types.VARCHAR), ("v", types.FLOAT))


def insert(table, rows):
    """Insert ``rows`` as one autocommit statement; their row ids."""
    with autocommit(None) as txn:  # a heap keeps no versions: no epoch
        return [table.insert(row, txn) for row in rows]


class TestPage:
    def test_insert_and_get(self, sch):
        page = Page(0)
        slot = page.insert((1, "a", 1.0), 32)
        assert page.get(slot) == (1, "a", 1.0)

    def test_slots_stable_after_delete(self, sch):
        page = Page(0)
        first = page.insert((1, "a", 1.0), 32)
        second = page.insert((2, "b", 2.0), 32)
        assert page.delete(first)
        assert page.get(first) is None
        assert page.get(second) == (2, "b", 2.0)
        assert page.live_count == 1
        assert page.slot_count == 2

    def test_double_delete(self):
        page = Page(0)
        slot = page.insert((1,), 16)
        assert page.delete(slot)
        assert not page.delete(slot)

    def test_full_page_rejects(self):
        page = Page(0)
        assert not page.has_room(PAGE_SIZE_BYTES)
        with pytest.raises(StorageError):
            page.insert((1,), PAGE_SIZE_BYTES)

    def test_row_size_accounts_for_strings_and_nulls(self, sch):
        small = row_size_bytes(sch, (1, None, 1.0))
        big = row_size_bytes(sch, (1, "x" * 200, 1.0))
        assert big > small + 150


class TestRowStoreTable:
    def test_insert_scan(self, sch):
        table = RowStoreTable(sch)
        rids = insert(table, [(i, f"n{i}", float(i)) for i in range(10)])
        assert table.row_count == 10
        assert len(set(rids)) == 10
        assert [row[0] for _, row in table.scan()] == list(range(10))

    def test_pages_fill_and_roll(self, sch):
        table = RowStoreTable(sch)
        insert(table, [(i, "x" * 100, 1.0) for i in range(500)])
        assert table.page_count > 1
        assert table.size_bytes == table.page_count * PAGE_SIZE_BYTES

    def test_get_delete(self, sch):
        table = RowStoreTable(sch)
        (rid,) = insert(table, [(1, "a", 1.0)])
        assert table.get(rid) == (1, "a", 1.0)
        assert table.delete(rid)
        assert table.get(rid) is None
        assert table.row_count == 0

    def test_bogus_rid(self, sch):
        table = RowStoreTable(sch)
        assert table.get(RowId(5, 0)) is None
        assert not table.delete(RowId(5, 0))

    def test_oversized_row_rejected(self, sch):
        table = RowStoreTable(sch)
        with pytest.raises(StorageError):
            insert(table, [(1, "x" * 10_000, 1.0)])


class TestRowStoreIndex:
    @pytest.fixture
    def table(self, sch):
        table = RowStoreTable(sch)
        insert(table, [(i, f"n{i % 3}", float(i)) for i in range(30)])
        return table

    def test_builds_from_existing_rows(self, table):
        index = RowStoreIndex(table, ["id"])
        assert len(index) == 30

    def test_seek_equal(self, table):
        index = RowStoreIndex(table, ["name"])
        hits = list(index.seek_equal(("n1",)))
        assert len(hits) == 10
        assert all(table.get(rid)[1] == "n1" for rid in hits)

    def test_seek_range(self, table):
        index = RowStoreIndex(table, ["id"])
        hits = [table.get(rid)[0] for rid in index.seek_range((5,), (9,))]
        assert sorted(hits) == [5, 6, 7, 8, 9]

    def test_maintained_on_delete(self, table):
        index = RowStoreIndex(table, ["id"])
        rid = next(iter(index.seek_equal((7,))))
        row = table.get(rid)
        table.delete(rid)
        index.delete(row, rid)
        assert list(index.seek_equal((7,))) == []

    def test_null_keys_not_indexed(self, sch):
        table = RowStoreTable(sch)
        (rid,) = insert(table, [(1, None, 1.0)])
        index = RowStoreIndex(table, ["name"])
        assert len(index) == 0
        index.insert((1, None, 1.0), rid)
        assert len(index) == 0

    def test_seek_arity_checked(self, table):
        index = RowStoreIndex(table, ["id"])
        with pytest.raises(StorageError):
            list(index.seek_equal((1, 2)))


class TestPageCompressionModel:
    def test_repeated_values_compress(self, sch):
        repeated = [(1, "same-string", 2.0)] * 100
        distinct = [(i, f"unique-{i:06d}", float(i)) for i in range(100)]
        assert page_compressed_size(sch, repeated) < page_compressed_size(sch, distinct)

    def test_common_prefixes_compress(self, sch):
        prefixed = [(i, f"/products/category/item-{i}", 1.0) for i in range(100)]
        random_strings = [(i, f"{i}-xyzzy-{i * 7919}", 1.0) for i in range(100)]
        assert page_compressed_size(sch, prefixed) < page_compressed_size(sch, random_strings)

    def test_small_ints_compress(self):
        sch2 = schema(("a", types.BIGINT, False))
        small = [(1,)] * 100
        huge = [(2**60 + i,) for i in range(100)]
        assert page_compressed_size(sch2, small) < page_compressed_size(sch2, huge)

    def test_empty_page(self, sch):
        assert page_compressed_size(sch, []) == 96

    def test_table_level_is_sum_of_pages(self, sch):
        table = RowStoreTable(sch)
        insert(table, [(i, "x", 1.0) for i in range(200)])
        total = table_page_compressed_size(table)
        assert 0 < total < table.used_bytes
