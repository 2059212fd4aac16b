"""Tests for the catalog, table maintenance and the database facade."""

import numpy as np
import pytest

from repro import Database, StoreConfig, schema, types
from repro.bench.harness import same_answers
from repro.errors import CatalogError
from repro.exec.expressions import Comparison, col, lit
from repro.observability import get_registry, snapshot_delta
from repro.storage.columnstore import GROUP, RowLocator
from repro.txn import autocommit
from repro.wal import replay as walreplay
from repro.wal.record import WalRecordType


@pytest.fixture
def config():
    return StoreConfig(rowgroup_size=64, bulk_load_threshold=40, delta_close_rows=32)


@pytest.fixture
def db(config):
    return Database(config)


@pytest.fixture
def sch():
    return schema(("id", types.INT, False), ("v", types.VARCHAR))


class TestStorageKinds:
    def test_columnstore_only(self, db, sch):
        table = db.create_table("t", sch, storage="columnstore")
        assert table.columnstore is not None
        assert table.rowstore is None

    def test_rowstore_only(self, db, sch):
        table = db.create_table("t", sch, storage="rowstore")
        assert table.columnstore is None
        assert table.rowstore is not None

    def test_both_keeps_storages_consistent(self, db, sch):
        db.create_table("t", sch, storage="both")
        db.insert("t", [(i, f"v{i}") for i in range(10)])
        table = db.table("t")
        assert table.rowstore.row_count == 10
        assert table.columnstore.live_rows == 10
        db.delete_where("t", Comparison("<", col("id"), lit(5)))
        assert table.rowstore.row_count == 5
        assert table.columnstore.live_rows == 5

    def test_both_queries_agree_across_modes(self, db, sch):
        db.create_table("t", sch, storage="both")
        db.insert("t", [(i, f"v{i % 3}") for i in range(50)])
        same_answers(db, "SELECT v, COUNT(*) AS n FROM t GROUP BY v ORDER BY v")

    def test_unknown_storage_string(self, db, sch):
        with pytest.raises(ValueError):
            db.create_table("t", sch, storage="hologram")


class TestDeleteCount:
    """DELETE's reported row count is the number of *logical* rows.

    Regression: BOTH-storage tables used to derive the count from the
    two physical deletes independently, so the same logical row could be
    double-counted (or, with diverged storages, dropped from the count
    entirely). :meth:`Table.delete_rows` now reports one authoritative
    number.
    """

    def test_both_storage_counts_each_row_once(self, db, sch):
        db.create_table("t", sch, storage="both")
        db.insert("t", [(i, f"v{i}") for i in range(10)])
        deleted = db.delete_where("t", Comparison("<", col("id"), lit(4)))
        assert deleted == 4  # not 8: heap + index hold the same 4 rows
        assert db.sql("SELECT COUNT(*) AS n FROM t").scalar() == 6

    def test_sql_delete_reports_logical_count(self, db, sch):
        db.create_table("t", sch, storage="both")
        db.insert("t", [(i, f"v{i}") for i in range(10)])
        assert db.sql("DELETE FROM t WHERE id >= 7").scalar() == 3

    def test_single_storage_counts_unchanged(self, db, sch):
        for storage in ("rowstore", "columnstore"):
            db2 = Database(StoreConfig())
            db2.create_table("t", sch, storage=storage)
            db2.insert("t", [(i, "x") for i in range(6)])
            assert db2.delete_where("t", Comparison("<", col("id"), lit(2))) == 2

    def test_diverged_storages_report_max(self, db, sch):
        # Force split-brain by inserting into one storage behind the
        # facade's back: the columnstore holds a row the heap never saw.
        db.create_table("t", sch, storage="both")
        db.insert("t", [(1, "a"), (2, "b")])
        table = db.table("t")
        with autocommit(db.mvcc) as txn:
            table.columnstore.insert(table.schema.coerce_row((3, "ghost")), txn)
        deleted = db.delete_where("t", Comparison(">=", col("id"), lit(2)))
        # Row 2 exists in both storages, row 3 only in the columnstore:
        # two distinct logical rows disappeared. The old per-storage
        # bookkeeping would have reported 1 (heap's view) or 3 (the sum).
        assert deleted == 2
        assert table.rowstore.row_count == 1
        assert table.columnstore.live_rows == 1


class TestDmlResolvesItsPredicateOnce:
    """UPDATE / DELETE make one pass per storage and address survivors only.

    Regression: ``update_where`` scanned the table twice (once for the
    rows, once for the locators), both passes decoded every column of
    every row group, and one ``RowLocator`` was allocated per *scanned*
    row before the predicate ran.
    """

    ROWS = 192  # 3 row groups of 64

    @pytest.fixture
    def config(self):
        # No row reordering: rows stay where the test put them.
        return StoreConfig(rowgroup_size=64, bulk_load_threshold=40, reorder_rows=False)

    @pytest.fixture
    def durable(self, config, tmp_path):
        db = Database.open(str(tmp_path / "d"), default_config=config)
        db.sql("CREATE TABLE kv (k INT NOT NULL, v INT NOT NULL, tag VARCHAR)")
        # Every group's k spans the whole key range (k = 3j + group), so
        # min/max cannot eliminate one: only the predicate itself empties
        # two of them.
        rows = [((i % 64) * 3 + i // 64, i, f"t{i % 3}") for i in range(self.ROWS)]
        db.bulk_load("kv", rows)
        assert len(list(db.table("kv").columnstore.directory.row_groups())) == 3
        return db

    def _logged(self, db, monkeypatch):
        logged = []
        original = db._log_change

        def capture(rtype, table, payload):
            logged.append((rtype, payload))
            original(rtype, table, payload)

        monkeypatch.setattr(db, "_log_change", capture)
        return logged

    def test_update_is_one_pass_over_predicate_columns(
        self, durable, tmp_path, config, monkeypatch
    ):
        db = durable
        logged = self._logged(db, monkeypatch)
        before = get_registry().snapshot()
        result = db.sql("UPDATE kv SET v = 1000 WHERE k = 5")
        delta = snapshot_delta(before, get_registry().snapshot())

        assert result.rows == [(1,)]  # rows_affected
        assert delta["storage.scan.rows_scanned"] == self.ROWS  # one pass
        # k in all three groups; v and tag only where a row matched.
        assert delta["storage.scan.columns_decoded"] == 3 + 2
        assert delta["storage.segments.decode_requests"] == 3 + 2
        assert delta["storage.scan.rows_emitted"] == 1
        # k at full length in every group; v and tag at the one survivor.
        assert delta["storage.scan.values_decoded"] == self.ROWS + 2

        position = 2 * 64 + 1  # k = 5 is 3 * 1 + 2: group 2, row 1
        [(rtype, payload)] = logged
        assert rtype is WalRecordType.UPDATE
        rids, locators, rows = walreplay.CHANGES[rtype].decode(db, "kv", payload)
        assert rids == []
        assert locators == [RowLocator(GROUP, position // 64, position % 64)]
        assert rows == [(5, 1000, f"t{position % 3}")]

        expected = db.sql("SELECT * FROM kv ORDER BY k").rows
        assert (5, 1000, f"t{position % 3}") in expected and len(expected) == self.ROWS
        db.close()  # no save: the reopened state is base snapshot + replay
        replayed = Database.open(str(tmp_path / "d"), default_config=config)
        assert replayed.sql("SELECT * FROM kv ORDER BY k").rows == expected

    def test_delete_reads_only_the_predicate_column(self, durable, monkeypatch):
        db = durable
        logged = self._logged(db, monkeypatch)
        before = get_registry().snapshot()
        assert db.delete_where("kv", Comparison("<", col("k"), lit(3))) == 3
        delta = snapshot_delta(before, get_registry().snapshot())
        assert delta["storage.scan.rows_scanned"] == self.ROWS
        assert delta["storage.scan.columns_decoded"] == 3  # k, once per group
        [(rtype, payload)] = logged
        assert rtype is WalRecordType.DELETE
        _rids, locators = walreplay.CHANGES[rtype].decode(db, "kv", payload)
        assert locators == [RowLocator(GROUP, group, 0) for group in range(3)]
        assert db.sql("SELECT COUNT(*) FROM kv WHERE k < 3").rows == [(0,)]


class TestScanDecodesOnlySurvivors:
    """Late materialization: once a unit's surviving rows are known, every
    output column is decoded at those positions alone. Asserted on counts,
    so a change that silently decodes whole columns again fails here."""

    GROUP_ROWS = 64
    COLUMNS = ("k", "grp", "v", "price", "tag")

    @pytest.fixture
    def db(self):
        config = StoreConfig(
            rowgroup_size=self.GROUP_ROWS, bulk_load_threshold=40, reorder_rows=False
        )
        db = Database(config)
        db.sql("CREATE TABLE kv (k INT NOT NULL, grp INT, v INT, price FLOAT, tag VARCHAR)")
        # Key-sorted: [min, max] on k tells the three groups apart.
        db.bulk_load(
            "kv",
            [
                (k, k % 5, (k * 37) % 1000, k / 4, f"tag{k % 7}")
                for k in range(3 * self.GROUP_ROWS)
            ],
        )
        assert len(list(db.table("kv").columnstore.directory.row_groups())) == 3
        return db

    def _run(self, db, sql):
        before = get_registry().snapshot()
        rows = db.sql(sql).rows
        return rows, snapshot_delta(before, get_registry().snapshot())

    def test_point_read_decodes_one_predicate_column_and_one_row(self, db):
        rows, delta = self._run(db, "SELECT k, grp, v, price, tag FROM kv WHERE k = 100")
        assert rows == [(100, 0, 700, 25.0, "tag2")]
        assert delta["storage.scan.units_eliminated"] == 2
        assert delta["storage.scan.rows_scanned"] == self.GROUP_ROWS
        # Five columns became plain through five calls into the morph
        # point: k in full to settle the predicate (and indexed for the
        # output), the other four at the survivor's position.
        assert delta["storage.scan.columns_decoded"] == 5
        assert delta["storage.segments.decode_requests"] == 5
        assert delta["storage.scan.values_decoded"] == self.GROUP_ROWS + 4

    def test_when_every_row_survives_it_is_the_full_decode(self, db):
        rows, delta = self._run(db, "SELECT k, grp, v, price, tag FROM kv")
        assert len(rows) == 3 * self.GROUP_ROWS
        assert delta["storage.scan.columns_decoded"] == 3 * len(self.COLUMNS)
        assert delta["storage.scan.values_decoded"] == (
            self.GROUP_ROWS * delta["storage.scan.columns_decoded"]
        )

    def test_decode_work_is_set_by_the_unit_not_the_batch(self, db):
        """A LIMIT stops pulling after its first batch, and a batch is now
        larger than these row groups; what is decoded was always a unit's
        survivors, so neither a short LIMIT nor a range fetch decodes more
        than before: one unit, its predicate column in full."""
        rows, delta = self._run(db, "SELECT k, grp, v, price, tag FROM kv LIMIT 10")
        assert len(rows) == 10
        assert delta["storage.scan.units_seen"] == 1
        assert delta["storage.scan.values_decoded"] == self.GROUP_ROWS * len(self.COLUMNS)
        rows, delta = self._run(db, "SELECT k, grp, v, price FROM kv WHERE k BETWEEN 70 AND 89")
        assert len(rows) == 20
        assert delta["storage.scan.rows_scanned"] == self.GROUP_ROWS
        assert delta["storage.scan.values_decoded"] == self.GROUP_ROWS + 3 * 20

    @pytest.mark.parametrize("cached_first", [True, False])
    def test_take_reads_a_cached_full_decode_but_never_fills_the_cache(self, cached_first):
        config = StoreConfig(
            rowgroup_size=self.GROUP_ROWS,
            bulk_load_threshold=40,
            reorder_rows=False,
            segment_cache_bytes=1 << 20,
        )
        db = Database(config)
        db.sql("CREATE TABLE kv (k INT NOT NULL, v INT)")
        db.bulk_load("kv", [(k, k * 2) for k in range(self.GROUP_ROWS)])
        index = db.table("kv").columnstore
        [group] = index.directory.row_groups()
        cache = index.segment_cache
        if cached_first:
            index.decode_segment(group, "v")
            assert len(cache) == 1
        hits = cache.stats.hits
        values, mask = index.decode_segment(group, "v", np.array([3, 60]))
        assert values.tolist() == [6, 120] and mask is None
        if cached_first:
            assert cache.stats.hits == hits + 1 and len(cache) == 1
        else:
            assert cache.stats.hits == hits and cache.stats.misses == 1
            assert len(cache) == 0  # the cache holds whole segments only


class TestMaintenance:
    def test_tuple_mover_via_facade(self, db, sch):
        db.create_table("t", sch)
        db.insert("t", [(i, "x") for i in range(70)])  # 2 closed deltas + open
        report = db.run_tuple_mover("t")
        assert report.rows_moved == 64
        assert db.table("t").columnstore.compressed_rows == 64
        assert db.sql("SELECT COUNT(*) AS n FROM t").scalar() == 70

    def test_rebuild_via_facade(self, db, sch):
        db.create_table("t", sch)
        db.bulk_load("t", [(i, "x") for i in range(100)])
        db.sql("DELETE FROM t WHERE id < 10")
        db.rebuild("t")
        index = db.table("t").columnstore
        assert index.delete_bitmap.total_deleted == 0
        assert index.compressed_rows == 90

    def test_rebuild_requires_columnstore(self, db, sch):
        db.create_table("t", sch, storage="rowstore")
        with pytest.raises(CatalogError):
            db.rebuild("t")

    def test_archival_toggle(self, db, sch):
        db.create_table("t", sch)
        db.bulk_load("t", [(i, f"text{i % 4}") for i in range(100)])
        plain = db.table("t").columnstore.size_bytes
        db.set_archival("t", True)
        archived = db.table("t").columnstore.size_bytes
        assert archived != plain
        assert db.sql("SELECT COUNT(*) AS n FROM t").scalar() == 100
        db.set_archival("t", False)
        assert db.table("t").columnstore.size_bytes == plain

    def test_size_report(self, db, sch):
        db.create_table("t", sch, storage="both")
        db.insert("t", [(i, "abc") for i in range(50)])
        report = db.table("t").size_report()
        assert report["columnstore_bytes"] > 0
        assert report["rowstore_used_bytes"] > 0
        assert report["rowstore_page_compressed_bytes"] > 0


class TestStats:
    def test_columnstore_stats(self, db, sch):
        db.create_table("t", sch)
        db.bulk_load("t", [(i, f"v{i % 5}") for i in range(100)])
        stats = db.table("t").stats()
        assert stats.row_count == 100
        assert stats.columns["id"].min_value == 0
        assert stats.columns["id"].max_value == 99
        assert stats.columns["v"].ndv == 5

    def test_rowstore_stats(self, db, sch):
        db.create_table("t", sch, storage="rowstore")
        db.insert("t", [(i, f"v{i % 5}") for i in range(20)])
        stats = db.table("t").stats()
        assert stats.columns["v"].ndv == 5
        assert stats.columns["id"].max_value == 19

    def test_stats_cache_invalidation(self, db, sch):
        db.create_table("t", sch)
        db.bulk_load("t", [(i, "x") for i in range(50)])
        first = db.table("t").stats()
        assert first.row_count == 50
        db.insert("t", [(999, "y")])
        assert db.table("t").stats().row_count == 51

    def test_null_fraction(self, db, sch):
        db.create_table("t", sch)
        db.bulk_load("t", [(i, None if i % 2 else "x") for i in range(64)])
        stats = db.table("t").stats()
        assert stats.columns["v"].null_fraction == pytest.approx(0.5)


class TestCatalog:
    def test_table_names(self, db, sch):
        db.create_table("b_table", sch)
        db.create_table("a_table", sch)
        assert db.catalog.table_names() == ["a_table", "b_table"]

    def test_case_insensitive_lookup(self, db, sch):
        db.create_table("MyTable", sch)
        assert db.table("mytable").name == "MyTable"

    def test_drop_unknown(self, db):
        with pytest.raises(CatalogError):
            db.drop_table("ghost")

    def test_create_index(self, db, sch):
        db.create_table("t", sch, storage="rowstore")
        db.insert("t", [(3, "c"), (1, "a"), (2, "b")])
        index = db.table("t").create_index("by_id", ["id"])
        rids = list(index.seek_range((1,), (2,)))
        assert len(rids) == 2

    def test_duplicate_index_rejected(self, db, sch):
        db.create_table("t", sch, storage="rowstore")
        db.table("t").create_index("i", ["id"])
        with pytest.raises(CatalogError):
            db.table("t").create_index("i", ["id"])

    def test_index_on_columnstore_only_table_rejected(self, db, sch):
        db.create_table("t", sch, storage="columnstore")
        with pytest.raises(CatalogError):
            db.table("t").create_index("i", ["id"])
