"""Crash-at-every-write-point sweeps for the write-ahead log.

Drives a scripted DML sequence against :meth:`Database.open` through a
:class:`FaultyDisk` that crashes at every WAL write point (each append
and each fsync is one operation), then reopens the directory and asserts
the recovered state is exactly a *committed prefix* of the script:

* ``per-commit`` + ``lose_unsynced_on_crash`` (the honest power-cut
  model): recovery yields exactly the statements that returned —
  nothing committed is lost, nothing uncommitted survives;
* ``group``: recovery yields a prefix no longer than what was attempted
  (the bounded window of the group-commit trade-off);
* rotation sweep: crashes while the log is rotating segments never
  corrupt it — reattach always sees a clean prefix.
"""

import os

import pytest

from repro import Database, StoreConfig
from repro.storage.diskio import DiskIO, FaultyDisk, InjectedFault
from repro.wal.log import WriteAheadLog
from repro.wal.record import WalRecordType

SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))

# One entry = one committed statement; mixes trickle/bulk/delete/update,
# DDL and a maintenance op so the sweep crosses every record type's
# append path. Small thresholds make the tuple mover do real work. The
# INSERTs of 7/8 and of 9 repeat the shapes of 1/2 and of 3, so they run
# from kept templates (no parse, no bind): the sweeps crash inside those
# hits too (test_script_reaches_hit_inserts).
_CONFIG = StoreConfig(rowgroup_size=16, bulk_load_threshold=8, delta_close_rows=8)

_SCRIPT = (
    "CREATE TABLE s (id INT NOT NULL, grp VARCHAR, amount FLOAT)",
    "INSERT INTO s VALUES (1, 'a', 1.5), (2, 'b', 2.5)",
    "INSERT INTO s VALUES (3, 'a', 3.5)",
    "INSERT INTO s VALUES (4, 'b', 4.5), (5, 'a', 5.5), (6, 'c', 6.5)",
    "DELETE FROM s WHERE id = 2",
    "UPDATE s SET amount = 10.0 WHERE grp = 'a'",
    "INSERT INTO s VALUES (7, 'c', 7.5), (8, 'a', 8.5)",
    "DELETE FROM s WHERE grp = 'c'",
    "INSERT INTO s VALUES (9, 'd', 9.5)",
)

_QUERIES = (
    "SELECT * FROM s ORDER BY id",
    "SELECT grp, COUNT(*) AS n FROM s GROUP BY grp ORDER BY grp",
)


def run_script(db: Database, upto: int) -> int:
    """Apply the first ``upto`` statements; returns how many completed."""
    done = 0
    for statement in _SCRIPT[:upto]:
        db.sql(statement)
        done += 1
    return done


def state_of(db: Database) -> list:
    if not db.catalog.has_table("s"):
        return ["<no table>"]
    return [db.sql(q).rows for q in _QUERIES]


def shadow_states() -> list:
    """Expected state after each statement-count prefix (0..len)."""
    states = []
    for upto in range(len(_SCRIPT) + 1):
        shadow = Database(_CONFIG)
        run_script(shadow, upto)
        states.append(state_of(shadow))
    return states


def count_ops(tmp_path, durability: str) -> int:
    disk = FaultyDisk()
    db = Database.open(
        str(tmp_path / "probe"),
        disk=disk,
        durability=durability,
        default_config=_CONFIG,
    )
    run_script(db, len(_SCRIPT))
    db.close()
    return disk.ops


class TestDmlCrashSweep:
    def _sweep(self, tmp_path, durability: str, exact: bool) -> None:
        expected = shadow_states()
        total = count_ops(tmp_path, durability)
        assert total >= len(_SCRIPT), "each statement must hit the disk"
        hits = set()
        for crash_at in range(total):
            target = tmp_path / f"crash_{durability}_{crash_at}"
            disk = FaultyDisk(
                crash_after_ops=crash_at, lose_unsynced_on_crash=True
            )
            db = Database.open(
                str(target), disk=disk, durability=durability,
                default_config=_CONFIG,
            )
            committed = 0
            crashed = False
            try:
                for statement in _SCRIPT:
                    db.sql(statement)
                    committed += 1
                db.close()
            except InjectedFault:
                crashed = True
            assert crashed, f"write point {crash_at} never fired"
            recovered = Database.open(str(target), default_config=_CONFIG)
            observed = state_of(recovered)
            assert observed in expected, (
                f"non-prefix state after crash at write point "
                f"{crash_at}/{total} ({durability})"
            )
            prefix_len = expected.index(observed)
            hits.add(prefix_len)
            if exact:
                assert prefix_len == committed, (
                    f"crash at {crash_at}: {committed} statements committed "
                    f"but recovery replayed {prefix_len}"
                )
            else:
                # Group commit only makes flush boundaries durable: a
                # power cut loses at most one un-flushed window, never a
                # mid-window slice.
                assert prefix_len <= committed + 1
                assert prefix_len % 8 == 0, (
                    f"crash at {crash_at}: recovered {prefix_len} "
                    "statements, not a group-commit flush boundary"
                )
        if exact:
            # Per-commit durability must surface many distinct prefixes.
            assert len(hits) >= 3

    def test_script_reaches_hit_inserts(self, registry):
        db = Database(_CONFIG)
        hits = []
        for statement in _SCRIPT:
            before = registry.counter("sql.shapes.hits")
            db.sql(statement)
            if registry.counter("sql.shapes.hits") > before:
                hits.append(statement)
        assert hits == [_SCRIPT[6], _SCRIPT[8]]

    def test_per_commit_recovers_exact_committed_prefix(self, tmp_path):
        self._sweep(tmp_path, "per-commit", exact=True)

    def test_group_commit_recovers_bounded_prefix(self, tmp_path):
        self._sweep(tmp_path, "group", exact=False)

    def test_uninterrupted_run_recovers_everything(self, tmp_path):
        expected = shadow_states()
        target = tmp_path / "clean"
        db = Database.open(
            str(target), durability="per-commit", default_config=_CONFIG
        )
        run_script(db, len(_SCRIPT))
        db.close()
        assert state_of(Database.open(str(target))) == expected[-1]


class TestTornAppendSweep:
    def test_torn_final_append_truncates_to_prefix(self, tmp_path):
        """A torn WAL append (prefix of the frame on disk) at every write
        point must recover to the exact committed prefix — the torn
        record never committed."""
        expected = shadow_states()
        total = count_ops(tmp_path, "per-commit")
        for crash_at in range(total):
            for torn in (1, 5, 11):
                target = tmp_path / f"torn_{crash_at}_{torn}"
                disk = FaultyDisk(
                    crash_after_ops=crash_at,
                    torn_write_bytes=torn,
                    lose_unsynced_on_crash=True,
                )
                db = Database.open(
                    str(target), disk=disk, durability="per-commit",
                    default_config=_CONFIG,
                )
                committed = 0
                try:
                    for statement in _SCRIPT:
                        db.sql(statement)
                        committed += 1
                    db.close()
                except InjectedFault:
                    pass
                observed = state_of(
                    Database.open(str(target), default_config=_CONFIG)
                )
                assert observed == expected[committed], (
                    f"torn append ({torn} bytes) at write point {crash_at}"
                )


class TestRotationCrashSweep:
    def test_crash_during_rotation_keeps_clean_prefix(self, tmp_path):
        """Tiny segments force a rotation every append or two; crashing
        at every write point must leave a log that reattaches cleanly to
        a prefix of the appended LSNs."""
        payload = b"x" * 40
        probe = FaultyDisk()
        wal, _ = WriteAheadLog.attach(
            probe, tmp_path / "probe" / "wal", durability="group",
            group_commit_size=3, segment_bytes=64,
        )
        for _ in range(12):
            wal.log_statement(WalRecordType.INSERT, "t", payload)
        wal.close()
        total = probe.ops
        assert total > 12  # appends + rotation fsyncs + flushes
        for crash_at in range(total):
            root = tmp_path / f"rot_{crash_at}" / "wal"
            disk = FaultyDisk(
                crash_after_ops=crash_at, lose_unsynced_on_crash=True
            )
            wal, _ = WriteAheadLog.attach(
                disk, root, durability="group",
                group_commit_size=3, segment_bytes=64,
            )
            appended = 0
            with pytest.raises(InjectedFault):
                for _ in range(12):
                    wal.log_statement(WalRecordType.INSERT, "t", payload)
                    appended += 1
                wal.close()
            _, recovery = WriteAheadLog.attach(DiskIO(), root)
            lsns = [r.lsn for r in recovery.replay_records]
            assert lsns == list(range(1, len(lsns) + 1))
            assert len(lsns) <= appended + 1
