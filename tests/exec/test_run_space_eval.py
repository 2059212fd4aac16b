"""Tests for per-run predicate evaluation on RLE value-encoded segments."""

import numpy as np
import pytest

from repro import types
from repro.exec.expressions import Between, Comparison, col, lit
from repro.exec.operators.scan import ColumnStoreScan
from repro.schema import schema
from repro.storage.columnstore import ColumnStoreIndex
from repro.storage.config import StoreConfig
from repro.storage.encodings import Scheme
from repro.storage.rle import RleBlock
from repro.txn import autocommit

from ..storage.test_columnstore import bulk_load


@pytest.fixture
def index():
    """A value-encoded, RLE-compressed column (long runs, narrow range)."""
    sch = schema(("batch_id", types.INT, False), ("payload", types.INT, False))
    store = ColumnStoreIndex(
        sch, StoreConfig(rowgroup_size=5000, bulk_load_threshold=10, reorder_rows=False)
    )
    batch_ids = np.repeat(np.arange(50, dtype=np.int32), 100)  # 50 runs of 100
    payload = np.arange(5000, dtype=np.int32) * 1000  # defeats dictionaries
    with autocommit(store.mvcc) as txn:
        store.bulk_load_columns({"batch_id": batch_ids, "payload": payload}, txn)
    segment = next(store.directory.row_groups()).segment("batch_id")
    assert segment.scheme is Scheme.VALUE
    assert isinstance(segment.stream, RleBlock)
    return store


def collect(scan):
    rows = []
    for batch in scan.batches():
        rows.extend(batch.to_rows())
    return rows


class TestRunSpaceEvaluation:
    def test_equality_on_runs(self, index):
        scan = ColumnStoreScan(
            index, ["payload"], predicate=Comparison("=", col("batch_id"), lit(7))
        )
        rows = collect(scan)
        assert len(rows) == 100
        assert scan.stats.encoded_space_conjuncts == 1

    def test_range_on_runs(self, index):
        scan = ColumnStoreScan(
            index, ["payload"], predicate=Between(col("batch_id"), lit(10), lit(12))
        )
        assert len(collect(scan)) == 300

    def test_matches_decode_then_eval(self, index):
        predicate = Comparison(">=", col("batch_id"), lit(45))
        fast = ColumnStoreScan(index, ["payload", "batch_id"], predicate=predicate)
        slow = ColumnStoreScan(
            index, ["payload", "batch_id"], predicate=predicate, encoded_eval=False
        )
        assert sorted(collect(fast)) == sorted(collect(slow))
        assert fast.stats.encoded_space_conjuncts == 1
        assert slow.stats.encoded_space_conjuncts == 0

    def test_bitpacked_value_segment_not_run_evaluated(self, index):
        # payload is bit-packed (no runs): predicate must go residual.
        scan = ColumnStoreScan(
            index, ["batch_id"], predicate=Comparison("<", col("payload"), lit(5000))
        )
        rows = collect(scan)
        assert len(rows) == 5
        assert scan.stats.encoded_space_conjuncts == 0

    def test_nulls_respected(self):
        sch = schema(("a", types.INT),)
        store = ColumnStoreIndex(sch, StoreConfig(rowgroup_size=100, bulk_load_threshold=1))
        rows = [(0,)] * 50 + [(None,)] * 25 + [(1,)] * 25
        bulk_load(store, [sch.coerce_row(r) for r in rows])
        scan = ColumnStoreScan(
            store, ["a"], predicate=Comparison("=", col("a"), lit(0))
        )
        assert len(collect(scan)) == 50
