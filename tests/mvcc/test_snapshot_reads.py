"""Epoch-pinned snapshot reads against concurrent DML and maintenance.

These tests drive the Database single-threaded but interleave *logical*
time: pin an epoch, mutate, then prove the pinned plan still reads
exactly the state the epoch saw — across deltas, row groups, deletes,
updates, the tuple mover, REBUILD, and vacuum.
"""

import pytest

from repro import Database, StoreConfig, schema, types
from repro.concurrency import ConcurrentDatabase
from repro.observability import registry as metrics
from repro.sql.runner import execute_plan, plan_query


@pytest.fixture
def config():
    return StoreConfig(rowgroup_size=64, bulk_load_threshold=40, delta_close_rows=32)


@pytest.fixture
def db(config):
    return Database(config)


@pytest.fixture
def sch():
    return schema(("id", types.INT, False), ("v", types.INT))


def select_at(db, sql, epoch, **options):
    """Run a SELECT pinned to ``epoch`` (the pipeline from *compile* on)."""
    return execute_plan(db, plan_query(db, sql), db.isolation, epoch, **options)


def count_sum_at(db, epoch):
    result = select_at(db, "SELECT COUNT(*) AS n, SUM(v) AS s FROM t", epoch)
    return result.rows[0]


class TestEpochVisibility:
    def test_insert_invisible_at_older_epoch(self, db, sch):
        db.create_table("t", sch)
        db.insert("t", [(i, i) for i in range(100)])  # bulk path: row groups
        e1 = db.mvcc.current
        db.insert("t", [(i, i) for i in range(100, 150)])  # delta path
        assert count_sum_at(db, e1) == (100, sum(range(100)))
        assert count_sum_at(db, db.mvcc.current) == (150, sum(range(150)))

    def test_delete_still_visible_at_older_epoch(self, db, sch):
        db.create_table("t", sch)
        db.insert("t", [(i, i) for i in range(100)])
        e1 = db.mvcc.current
        db.sql("DELETE FROM t WHERE id < 40")
        assert count_sum_at(db, e1) == (100, sum(range(100)))
        assert count_sum_at(db, db.mvcc.current) == (60, sum(range(40, 100)))

    def test_update_old_epoch_sees_old_values(self, db, sch):
        db.create_table("t", sch)
        db.insert("t", [(i, i) for i in range(20)])
        e1 = db.mvcc.current
        db.sql("UPDATE t SET v = v + 1000 WHERE id < 10")
        assert count_sum_at(db, e1) == (20, sum(range(20)))
        assert count_sum_at(db, db.mvcc.current) == (20, sum(range(20)) + 10_000)

    def test_open_transaction_invisible_until_commit(self, db, sch):
        db.create_table("t", sch)
        db.insert("t", [(i, i) for i in range(10)])
        db.begin()
        db.insert("t", [(i, i) for i in range(10, 30)])
        db.sql("DELETE FROM t WHERE id < 5")
        # Pending work is stamped PENDING_EPOCH: invisible at the
        # current committed epoch even while the transaction is open.
        assert count_sum_at(db, db.mvcc.current) == (10, sum(range(10)))
        db.commit()
        assert count_sum_at(db, db.mvcc.current) == (25, sum(range(5, 30)))

    def test_rolled_back_transaction_never_becomes_visible(self, db, sch):
        db.create_table("t", sch)
        db.insert("t", [(i, i) for i in range(10)])
        e1 = db.mvcc.current
        db.begin()
        db.insert("t", [(99, 99)])
        db.sql("DELETE FROM t WHERE id = 0")
        db.rollback()
        assert db.mvcc.current == e1  # no epoch consumed
        assert count_sum_at(db, e1) == (10, sum(range(10)))

    def test_row_mode_plans_pin_too(self, db, sch):
        db.create_table("t", sch)
        db.insert("t", [(i, i) for i in range(100)])
        e1 = db.mvcc.current
        db.sql("DELETE FROM t WHERE id >= 50")
        result = select_at(
            db, "SELECT COUNT(*) AS n, SUM(v) AS s FROM t", e1, mode="row"
        )
        assert result.rows[0] == (100, sum(range(100)))


class TestMaintenanceUnderReaders:
    def test_rebuild_preserves_pinned_snapshot(self, db, sch):
        db.create_table("t", sch)
        db.insert("t", [(i, i) for i in range(100)])
        db.sql("DELETE FROM t WHERE id < 30")
        lease = db.mvcc.readers.pin()
        db.rebuild("t")
        try:
            # The rebuild retired every pre-existing group/delta but the
            # lease's epoch still resolves them through the retired set.
            assert count_sum_at(db, lease.epoch) == (70, sum(range(30, 100)))
            assert count_sum_at(db, db.mvcc.current) == (70, sum(range(30, 100)))
            index = db.table("t").columnstore
            groups, deltas = index.retired_counts
            assert groups + deltas > 0
        finally:
            lease.release()

    def test_tuple_mover_preserves_pinned_snapshot(self, db, sch):
        db.create_table("t", sch)
        for start in range(0, 96, 8):  # small inserts: delta stores
            db.insert("t", [(i, i) for i in range(start, start + 8)])
        db.sql("DELETE FROM t WHERE id % 4 = 0")
        expected = (72, sum(i for i in range(96) if i % 4))
        lease = db.mvcc.readers.pin()
        report = db.run_tuple_mover("t", include_open=True)
        try:
            assert report.rows_moved > 0
            assert count_sum_at(db, lease.epoch) == expected
            assert count_sum_at(db, db.mvcc.current) == expected
        finally:
            lease.release()

    def test_vacuum_waits_for_readers_then_drains(self, db, sch):
        db.create_table("t", sch)
        db.insert("t", [(i, i) for i in range(100)])
        lease = db.mvcc.readers.pin()
        db.rebuild("t")
        index = db.table("t").columnstore
        assert sum(index.retired_counts) > 0
        # The lease holds the horizon back: vacuum must not free the
        # versions the lease can still reach.
        freed = db.vacuum("t")
        assert freed["groups"] == 0 and freed["deltas"] == 0
        assert count_sum_at(db, lease.epoch) == (100, sum(range(100)))
        lease.release()
        before = metrics.get_registry().counter("mvcc.versions_gced")
        freed = db.vacuum("t")
        assert freed["groups"] + freed["deltas"] > 0
        assert sum(index.retired_counts) == 0
        assert metrics.get_registry().counter("mvcc.versions_gced") > before

    def test_vacuum_gc_makes_old_epoch_unreadable_but_current_exact(self, db, sch):
        db.create_table("t", sch)
        db.insert("t", [(i, i) for i in range(100)])
        db.rebuild("t")
        db.vacuum("t")
        assert count_sum_at(db, db.mvcc.current) == (100, sum(range(100)))


class TestSessionSnapshots:
    def test_hold_snapshot_is_repeatable_read(self, config, sch):
        cdb = ConcurrentDatabase(Database(config))
        with cdb:
            cdb.db.create_table("t", sch)
            cdb.db.insert("t", [(i, i) for i in range(50)])
            reader = cdb.session("reader")
            writer = cdb.session("writer")
            epoch = reader.hold_snapshot()
            baseline = reader.sql("SELECT COUNT(*) AS n, SUM(v) AS s FROM t").rows
            writer.sql("DELETE FROM t WHERE id < 25")
            writer.sql("INSERT INTO t VALUES (1000, 1000)")
            # Writer committed twice; the held epoch's view is unchanged.
            assert reader.sql("SELECT COUNT(*) AS n, SUM(v) AS s FROM t").rows == baseline
            assert reader.snapshot_epoch == epoch
            reader.release_snapshot()
            fresh = reader.sql("SELECT COUNT(*) AS n, SUM(v) AS s FROM t").rows
            assert fresh == [(26, sum(range(25, 50)) + 1000)]

    def test_select_is_lock_free_and_registers_no_leak(self, config, sch):
        cdb = ConcurrentDatabase(Database(config))
        with cdb:
            cdb.db.create_table("t", sch)
            cdb.db.insert("t", [(i, i) for i in range(50)])
            registry = metrics.get_registry()
            waits = registry.counter("concurrency.read_waits")
            lockfree = registry.counter("mvcc.lockfree_reads")
            with cdb.session("r") as session:
                assert session.sql("SELECT COUNT(*) AS n FROM t").scalar() == 50
            assert registry.counter("mvcc.lockfree_reads") == lockfree + 1
            assert registry.counter("concurrency.read_waits") == waits
            assert len(cdb.db.mvcc.readers) == 0

    def test_show_queries_exposes_snapshot_epoch_column(self, config, sch):
        cdb = ConcurrentDatabase(Database(config))
        with cdb:
            result = cdb.sql("SHOW QUERIES")
            assert result.columns[-1] == "epoch"
