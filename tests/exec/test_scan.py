"""Tests for the columnstore scan operator: segment elimination, encoded-
space predicate evaluation, bitmap pushdown, delete masks, delta scans."""

import numpy as np
import pytest

from repro import types
from repro.exec.batch import RID_COLUMN
from repro.exec.bloom import JoinBitmapFilter
from repro.exec.expressions import And, Between, Comparison, InList, Like, col, lit
from repro.exec.operators.scan import BitmapProbe, ColumnStoreScan
from repro.schema import schema
from repro.storage.columnstore import GROUP, ColumnStoreIndex, RowLocator
from repro.storage.config import StoreConfig

from ..storage.test_columnstore import bulk_load, delete, insert, read_row


@pytest.fixture
def sch():
    return schema(
        ("id", types.INT, False),
        ("day", types.INT, False),
        ("name", types.VARCHAR),
        ("v", types.FLOAT),
    )


@pytest.fixture
def index(sch):
    """200 rows in 4 row groups of 50, ordered by day (0..199)."""
    idx = ColumnStoreIndex(
        sch, StoreConfig(rowgroup_size=50, bulk_load_threshold=10, reorder_rows=False)
    )
    rows = [
        sch.coerce_row((i, i, f"name{i % 10}", float(i % 7))) for i in range(200)
    ]
    bulk_load(idx, rows)
    return idx


def collect(scan):
    rows = []
    for batch in scan.batches():
        rows.extend(batch.to_rows())
    return rows


class TestBasicScan:
    def test_full_scan(self, index):
        scan = ColumnStoreScan(index, ["id", "name"])
        rows = collect(scan)
        assert len(rows) == 200
        assert scan.stats.units_seen == 4

    def test_batch_size_respected(self, index):
        scan = ColumnStoreScan(index, ["id"], batch_size=16)
        sizes = [b.row_count for b in scan.batches()]
        assert max(sizes) <= 16
        assert sum(sizes) == 200

    def test_predicate(self, index):
        scan = ColumnStoreScan(index, ["id"], predicate=Comparison("<", col("v"), lit(1.0)))
        rows = collect(scan)
        assert all(r[0] % 7 == 0 for r in rows)


class TestSegmentElimination:
    def test_range_predicate_eliminates(self, index):
        # day in [0..49] lives entirely in row group 0.
        scan = ColumnStoreScan(
            index, ["id"], predicate=Between(col("day"), lit(10), lit(20))
        )
        rows = collect(scan)
        assert len(rows) == 11
        assert scan.stats.units_eliminated == 3
        assert scan.stats.rows_scanned == 50

    def test_equality_eliminates(self, index):
        scan = ColumnStoreScan(
            index, ["id"], predicate=Comparison("=", col("day"), lit(175))
        )
        collect(scan)
        assert scan.stats.units_eliminated == 3

    def test_in_list_prunes_by_range(self, index):
        scan = ColumnStoreScan(index, ["id"], predicate=InList(col("day"), [5, 30]))
        rows = collect(scan)
        assert len(rows) == 2
        assert scan.stats.units_eliminated == 3

    def test_strict_bound_at_min_eliminates(self, index):
        # Group 1 holds day 50..99: ``day < 50`` can pass none of it, nor
        # ``day > 149`` any of group 2 (100..149).
        for predicate in (
            Comparison("<", col("day"), lit(50)),
            Comparison(">", col("day"), lit(149)),
        ):
            scan = ColumnStoreScan(index, ["id"], predicate=predicate)
            assert len(collect(scan)) == 50
            assert scan.stats.units_eliminated == 3

    def test_empty_intersection_eliminates_every_group(self, index):
        # Group 0 (day 0..49) meets each end alone, but not both.
        predicate = And(
            Comparison(">", col("day"), lit(30)), Comparison("<", col("day"), lit(20))
        )
        scan = ColumnStoreScan(index, ["id"], predicate=predicate)
        assert collect(scan) == []
        assert scan.stats.units_eliminated == 4

    def test_no_elimination_without_ranges(self, index):
        scan = ColumnStoreScan(index, ["id"], predicate=Like(col("name"), "name1%"))
        collect(scan)
        assert scan.stats.units_eliminated == 0

    def test_elimination_can_be_disabled(self, index):
        scan = ColumnStoreScan(
            index,
            ["id"],
            predicate=Between(col("day"), lit(10), lit(20)),
            segment_elimination=False,
        )
        rows = collect(scan)
        assert len(rows) == 11
        assert scan.stats.units_eliminated == 0
        assert scan.stats.rows_scanned == 200


class TestEncodedEval:
    def test_string_equality_uses_dictionary(self, index):
        scan = ColumnStoreScan(
            index, ["id"], predicate=Comparison("=", col("name"), lit("name3"))
        )
        rows = collect(scan)
        assert len(rows) == 20
        assert scan.stats.encoded_space_conjuncts == 4  # one per row group

    def test_like_on_encoded_data(self, index):
        scan = ColumnStoreScan(index, ["id"], predicate=Like(col("name"), "name_"))
        rows = collect(scan)
        assert len(rows) == 200
        assert scan.stats.encoded_space_conjuncts == 4

    def test_disabled_encoded_eval_same_result(self, index):
        predicate = InList(col("name"), ["name1", "name2"])
        fast = ColumnStoreScan(index, ["id"], predicate=predicate)
        slow = ColumnStoreScan(index, ["id"], predicate=predicate, encoded_eval=False)
        assert collect(fast) == collect(slow)
        assert fast.stats.encoded_space_conjuncts > 0
        assert slow.stats.encoded_space_conjuncts == 0

    def test_multi_column_conjunct_not_encoded(self, index):
        scan = ColumnStoreScan(
            index, ["id"], predicate=Comparison("<", col("id"), col("day"))
        )
        collect(scan)
        assert scan.stats.encoded_space_conjuncts == 0


class TestDeletes:
    def test_deleted_rows_filtered(self, index):
        group = next(index.directory.row_groups())
        for position in range(5):
            delete(index, RowLocator(GROUP, group.group_id, position))
        scan = ColumnStoreScan(index, ["id"])
        rows = collect(scan)
        assert len(rows) == 195
        assert scan.stats.rows_rejected_deleted == 5


class TestDeltaScan:
    def test_delta_rows_included(self, index, sch):
        insert(index, [sch.coerce_row((999, 999, "fresh", 1.0))])
        scan = ColumnStoreScan(index, ["id", "name"])
        rows = collect(scan)
        assert (999, "fresh") in rows
        assert scan.stats.delta_rows_scanned == 1

    def test_predicate_applies_to_delta(self, index, sch):
        insert(index, [sch.coerce_row((999, 999, "fresh", 1.0))])
        scan = ColumnStoreScan(
            index, ["id"], predicate=Comparison("=", col("name"), lit("fresh"))
        )
        assert collect(scan) == [(999,)]

    def test_deleted_delta_row_not_returned(self, index, sch):
        (locator,) = insert(index, [sch.coerce_row((999, 999, "fresh", 1.0))])
        delete(index, locator)
        scan = ColumnStoreScan(index, ["id"])
        assert len(collect(scan)) == 200


class TestBitmapPushdown:
    def test_bitmap_rejects_rows(self, index):
        bitmap = JoinBitmapFilter.build(np.array([3, 5, 7], dtype=np.int64))
        scan = ColumnStoreScan(
            index, ["id"], bitmap_probes=[BitmapProbe("day", bitmap)]
        )
        rows = collect(scan)
        assert sorted(r[0] for r in rows) == [3, 5, 7]
        # Was 197, by design: three of the four row groups hold no day in
        # [3, 7], which their [min, max] tells the exact bitmap without a
        # row decoded — they are eliminated, not probed. The counter keeps
        # meaning rows a *probe* rejected.
        assert scan.stats.units_eliminated == scan.stats.units_eliminated_by_bitmap == 3
        assert scan.stats.rows_rejected_by_bitmap == 47


class TestLocators:
    def test_locators_track_rows(self, index):
        scan = ColumnStoreScan(
            index,
            ["id", RID_COLUMN],
            predicate=Comparison("=", col("day"), lit(60)),
        )
        batches = list(scan.batches())
        locators = [loc for b in batches for loc in b.column(RID_COLUMN)]
        assert len(locators) == 1
        assert locators[0].kind == GROUP
        row = read_row(index, locators[0])
        assert row[0] == 60
