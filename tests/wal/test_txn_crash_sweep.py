"""Crash-consistency sweeps for explicit transactions.

Extends the DML crash sweep (:mod:`tests.wal.test_crash_sweep`) with a
workload containing BEGIN/COMMIT blocks and a ROLLBACK block, crashing
at *every* WAL write point — including between a transaction's
TXN_BEGIN and its TXN_COMMIT. Recovery must always land on the state as
of the **last commit point**: an uncommitted transaction's records may
be on disk, but replay skips them because no TXN_COMMIT marker with
their id exists.

Also proves the differential property: a committed transactional
workload replayed after a crash equals the same workload executed
without any crash.
"""

import os

from repro import Database, StoreConfig
from repro.observability.registry import get_registry
from repro.storage.diskio import FaultyDisk, InjectedFault

SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))

_CONFIG = StoreConfig(rowgroup_size=16, bulk_load_threshold=8, delta_close_rows=8)

# Auto-commit statements interleaved with committed transactions and a
# rolled-back one; the final BEGIN block stays open so the sweep also
# crosses "crash with a transaction in flight at end of script".
_SCRIPT = (
    "CREATE TABLE s (id INT NOT NULL, grp VARCHAR, amount FLOAT)",
    "INSERT INTO s VALUES (1, 'a', 1.5), (2, 'b', 2.5)",
    "BEGIN",
    "INSERT INTO s VALUES (3, 'a', 3.5)",
    "UPDATE s SET amount = 20.0 WHERE grp = 'b'",
    "COMMIT",
    "INSERT INTO s VALUES (4, 'c', 4.5)",
    "BEGIN",
    "INSERT INTO s VALUES (5, 'c', 5.5), (6, 'a', 6.5)",
    "DELETE FROM s WHERE grp = 'a'",
    "ROLLBACK",
    "BEGIN",
    "INSERT INTO s VALUES (7, 'd', 7.5)",
    "DELETE FROM s WHERE id = 2",
    "COMMIT",
    "BEGIN",
    "INSERT INTO s VALUES (8, 'e', 8.5)",
)

_QUERIES = (
    "SELECT * FROM s ORDER BY id",
    "SELECT grp, COUNT(*) AS n FROM s GROUP BY grp ORDER BY grp",
)


def state_of(db: Database) -> list:
    if not db.catalog.has_table("s"):
        return ["<no table>"]
    return [db.sql(q).rows for q in _QUERIES]


def shadow_state(upto: int) -> list:
    """Durable state after ``upto`` completed statements: any still-open
    transaction at that point contributes nothing."""
    shadow = Database(_CONFIG)
    for statement in _SCRIPT[:upto]:
        shadow.sql(statement)
    if shadow.in_transaction:
        shadow.rollback()
    return state_of(shadow)


def run_script(db: Database) -> int:
    done = 0
    for statement in _SCRIPT:
        db.sql(statement)
        done += 1
    return done


def count_ops(tmp_path) -> int:
    disk = FaultyDisk()
    db = Database.open(
        str(tmp_path / "probe"),
        disk=disk,
        durability="per-commit",
        default_config=_CONFIG,
    )
    run_script(db)
    db.close()
    return disk.ops


class TestTxnCrashSweep:
    def test_crash_at_every_write_point_recovers_last_commit(self, tmp_path):
        expected = [shadow_state(upto) for upto in range(len(_SCRIPT) + 1)]
        total = count_ops(tmp_path)
        assert total > len(_SCRIPT)
        mid_txn_crashes = 0
        for crash_at in range(total):
            target = tmp_path / f"crash_{crash_at}"
            disk = FaultyDisk(crash_after_ops=crash_at, lose_unsynced_on_crash=True)
            db = None
            committed = 0
            crashed = False
            try:
                # The open writes too: it stamps the new directory.
                db = Database.open(
                    str(target), disk=disk, durability="per-commit",
                    default_config=_CONFIG,
                )
                for statement in _SCRIPT:
                    db.sql(statement)
                    committed += 1
                db.close()
            except InjectedFault:
                crashed = True
                if db is not None and db.in_transaction:
                    mid_txn_crashes += 1
            assert crashed, f"write point {crash_at} never fired"
            recovered = Database.open(str(target), default_config=_CONFIG)
            observed = state_of(recovered)
            assert observed == expected[committed], (
                f"crash at write point {crash_at}/{total}: recovery did not "
                f"land on the last commit point after {committed} statements"
            )
        # The sweep must actually have crashed inside open transactions,
        # or the txn-filtering claim was never exercised.
        assert mid_txn_crashes >= 3

    def test_uncommitted_records_invisible_to_replay(self, tmp_path):
        target = tmp_path / "open_txn"
        db = Database.open(
            str(target), durability="per-commit", default_config=_CONFIG
        )
        db.sql("CREATE TABLE s (id INT NOT NULL, grp VARCHAR, amount FLOAT)")
        db.sql("INSERT INTO s VALUES (1, 'a', 1.5)")
        db.sql("BEGIN")
        db.sql("INSERT INTO s VALUES (2, 'b', 2.5)")
        db.sql("UPDATE s SET amount = 9.0 WHERE id = 1")
        # Force the uncommitted records onto disk, then "crash" (drop
        # the handle without COMMIT). They are durable bytes — and must
        # still be invisible to replay.
        db.wal.flush()
        before = get_registry().counter("storage.wal.replay.uncommitted_skipped")
        recovered = Database.open(str(target), default_config=_CONFIG)
        assert state_of(recovered) == [
            [(1, "a", 1.5)],
            [("a", 1)],
        ]
        skipped = get_registry().counter("storage.wal.replay.uncommitted_skipped")
        assert skipped - before == 2

    def test_rolled_back_txn_invisible_to_replay(self, tmp_path):
        target = tmp_path / "rolled_back"
        db = Database.open(
            str(target), durability="per-commit", default_config=_CONFIG
        )
        db.sql("CREATE TABLE s (id INT NOT NULL, grp VARCHAR, amount FLOAT)")
        db.sql("BEGIN")
        db.sql("INSERT INTO s VALUES (1, 'x', 1.0)")
        db.sql("ROLLBACK")
        db.sql("INSERT INTO s VALUES (2, 'y', 2.0)")
        db.close()
        recovered = Database.open(str(target), default_config=_CONFIG)
        assert state_of(recovered) == [[(2, "y", 2.0)], [("y", 1)]]

    def test_differential_replay_after_crash_equals_no_crash(self, tmp_path):
        # Run the committed workload, crash (abandon the handle without
        # close/save), reopen: replay-from-log must equal the same
        # workload executed in memory without any crash.
        target = tmp_path / "diff"
        db = Database.open(
            str(target), durability="per-commit", default_config=_CONFIG
        )
        run_script(db)
        # No close(): the open final transaction dies with the "crash".
        del db
        recovered = Database.open(str(target), default_config=_CONFIG)
        assert state_of(recovered) == shadow_state(len(_SCRIPT))

    def test_checkpoint_then_txn_then_crash(self, tmp_path):
        # A save() mid-workload truncates covered segments; transactions
        # after the checkpoint must still replay (or be skipped) against
        # the snapshot base exactly as against an empty base.
        target = tmp_path / "ckpt"
        db = Database.open(
            str(target), durability="per-commit", default_config=_CONFIG
        )
        db.sql("CREATE TABLE s (id INT NOT NULL, grp VARCHAR, amount FLOAT)")
        db.sql("INSERT INTO s VALUES (1, 'a', 1.5)")
        db.save(str(target))
        with db.transaction():
            db.sql("INSERT INTO s VALUES (2, 'b', 2.5)")
        db.sql("BEGIN")
        db.sql("INSERT INTO s VALUES (3, 'c', 3.5)")  # never committed
        db.wal.flush()
        del db
        recovered = Database.open(str(target), default_config=_CONFIG)
        assert state_of(recovered) == [
            [(1, "a", 1.5), (2, "b", 2.5)],
            [("a", 1), ("b", 1)],
        ]


class TestGroupCommitTxn:
    def test_commit_defers_fsync_to_commit_marker(self, tmp_path):
        """Inside a transaction, per-statement fsyncs are skipped: the
        whole transaction becomes durable with the COMMIT."""
        target = tmp_path / "fsyncs"
        db = Database.open(
            str(target), durability="per-commit", default_config=_CONFIG
        )
        db.sql("CREATE TABLE s (id INT NOT NULL, grp VARCHAR, amount FLOAT)")
        registry = get_registry()
        base = registry.counter("storage.wal.fsyncs")
        db.sql("BEGIN")
        for i in range(5):
            db.sql(f"INSERT INTO s VALUES ({i}, 'x', 1.0)")
        mid = registry.counter("storage.wal.fsyncs")
        assert mid == base, "in-txn statements must not fsync"
        db.sql("COMMIT")
        after = registry.counter("storage.wal.fsyncs")
        assert after == base + 1, "COMMIT is the single fsync point"
        db.close()
        recovered = Database.open(str(target), default_config=_CONFIG)
        assert recovered.sql("SELECT COUNT(*) AS n FROM s").scalar() == 5
