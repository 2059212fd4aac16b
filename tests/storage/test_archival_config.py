"""Tests for config-driven archival loading and remaining config knobs."""

import numpy as np
import pytest

from repro import Database, StoreConfig, schema, types
from repro.errors import StorageError
from repro.mvcc import PENDING_EPOCH
from repro.storage.columnstore import ColumnStoreIndex

from .test_columnstore import bulk_load, insert, move


class TestArchivalConfig:
    def test_loader_archives_when_configured(self):
        sch = schema(("a", types.INT, False), ("s", types.VARCHAR, False))
        index = ColumnStoreIndex(
            sch, StoreConfig(rowgroup_size=100, bulk_load_threshold=10, archival=True)
        )
        bulk_load(index, [(i, f"v{i % 4}") for i in range(200)])
        for group in index.directory.row_groups():
            assert group.archived
        # Data still scans correctly.
        total = sum(1 for _ in index.iter_unit_rows(index.pin_scan_units(PENDING_EPOCH)))
        assert total == 200

    def test_tuple_mover_respects_archival_config(self):
        sch = schema(("a", types.INT, False))
        index = ColumnStoreIndex(
            sch,
            StoreConfig(
                rowgroup_size=50, bulk_load_threshold=1000,
                delta_close_rows=50, archival=True,
            ),
        )
        insert(index, [(i,) for i in range(60)])
        move(index)
        groups = list(index.directory.row_groups())
        assert groups and all(g.archived for g in groups)


class TestConfigValidation:
    def test_bad_rowgroup_size(self):
        with pytest.raises(StorageError):
            StoreConfig(rowgroup_size=0)

    def test_bad_bulk_threshold(self):
        with pytest.raises(StorageError):
            StoreConfig(bulk_load_threshold=0)

    def test_bad_delta_close(self):
        with pytest.raises(StorageError):
            StoreConfig(delta_close_rows=0)

    def test_effective_delta_close_defaults_to_rowgroup(self):
        config = StoreConfig(rowgroup_size=123)
        assert config.effective_delta_close_rows == 123
        assert StoreConfig(delta_close_rows=7).effective_delta_close_rows == 7


class TestArchivalEndToEnd:
    def test_archived_db_queries_and_dml(self):
        db = Database(StoreConfig(rowgroup_size=64, bulk_load_threshold=10, archival=True))
        db.sql("CREATE TABLE t (a INT NOT NULL, s VARCHAR)")
        db.bulk_load("t", [(i, f"x{i % 3}") for i in range(200)])
        assert db.sql("SELECT COUNT(*) AS n FROM t WHERE s = 'x1'").scalar() > 0
        db.sql("DELETE FROM t WHERE a < 50")
        assert db.sql("SELECT COUNT(*) AS n FROM t").scalar() == 150
        db.rebuild("t")
        assert db.sql("SELECT COUNT(*) AS n FROM t").scalar() == 150
