"""Regressions for encoded-eval edge cases: archived, all-NULL, and
empty-dictionary segments.

Dictionary-space evaluation used to run on archived segments
(decompressing the archive once for the dictionary and again for the
code stream, per conjunct) and indexed the per-entry verdicts by code
before checking for an empty dictionary. These tests pin the hardened
behavior: archived segments hand out no vector and take the decoded
path, and all-NULL / empty-dict segments never index an empty mask —
with identical results either way.
"""

import numpy as np
import pytest

from repro import types
from repro.exec.expressions import Comparison, col, lit
from repro.exec.operators.scan import ColumnStoreScan
from repro.schema import schema
from repro.storage.columnstore import ColumnStoreIndex
from repro.storage.config import StoreConfig
from repro.storage.encodings import Scheme
from repro.storage.rle import RleBlock

from ..storage.test_columnstore import bulk_load, install


def collect(scan):
    rows = []
    for batch in scan.batches():
        rows.extend(batch.to_rows())
    return rows


def small_config():
    return StoreConfig(rowgroup_size=200, bulk_load_threshold=1, reorder_rows=False)


class TestArchivedSegments:
    @pytest.fixture
    def store(self):
        sch = schema(("k", types.VARCHAR, False), ("run", types.INT, False))
        store = ColumnStoreIndex(sch, small_config())
        rows = [(("a", "b", "c")[i % 3], i // 50) for i in range(200)]
        bulk_load(store, [sch.coerce_row(r) for r in rows])
        group = next(store.directory.row_groups())
        assert group.segment("k").scheme is Scheme.DICT
        assert isinstance(group.segment("run").stream, RleBlock)
        install(store, store.plan_archival(True))
        assert next(store.directory.row_groups()).segment("k").archived
        return store

    def test_archived_dict_segment_takes_decoded_path(self, store):
        predicate = Comparison("=", col("k"), lit("b"))
        scan = ColumnStoreScan(store, ["k"], predicate=predicate)
        rows = collect(scan)
        assert len(rows) == 67
        assert scan.stats.encoded_space_conjuncts == 0

    def test_archived_matches_decoded_result(self, store):
        for column, literal in (("k", "c"), ("run", 2)):
            predicate = Comparison("=", col(column), lit(literal))
            fast = ColumnStoreScan(store, ["k", "run"], predicate=predicate)
            slow = ColumnStoreScan(
                store, ["k", "run"], predicate=predicate, encoded_eval=False
            )
            assert sorted(collect(fast)) == sorted(collect(slow))


class TestDegenerateDictionaries:
    def build(self, rows):
        sch = schema(("a", types.VARCHAR), ("b", types.INT, False))
        store = ColumnStoreIndex(sch, small_config())
        bulk_load(store, [sch.coerce_row(r) for r in rows])
        return store

    def test_all_null_segment_predicate_matches_nothing(self):
        store = self.build([(None, i) for i in range(100)])
        segment = next(store.directory.row_groups()).segment("a")
        assert segment.scheme is Scheme.DICT and len(segment.dictionary) == 0
        scan = ColumnStoreScan(
            store, ["b"], predicate=Comparison("=", col("a"), lit("x"))
        )
        assert collect(scan) == []

    def test_all_null_segment_matches_decoded_path(self):
        store = self.build([(None, i) for i in range(100)])
        predicate = Comparison("!=", col("a"), lit("x"))
        fast = ColumnStoreScan(store, ["a", "b"], predicate=predicate)
        slow = ColumnStoreScan(
            store, ["a", "b"], predicate=predicate, encoded_eval=False
        )
        assert sorted(collect(fast)) == sorted(collect(slow)) == []

    def test_mixed_null_segment_keeps_non_null_semantics(self):
        rows = [("v" if i % 4 else None, i) for i in range(100)]
        store = self.build(rows)
        predicate = Comparison("=", col("a"), lit("v"))
        fast = ColumnStoreScan(store, ["a", "b"], predicate=predicate)
        slow = ColumnStoreScan(
            store, ["a", "b"], predicate=predicate, encoded_eval=False
        )
        fast_rows, slow_rows = collect(fast), collect(slow)
        assert sorted(fast_rows) == sorted(slow_rows)
        assert len(fast_rows) == 75
        assert fast.stats.encoded_space_conjuncts == 1
