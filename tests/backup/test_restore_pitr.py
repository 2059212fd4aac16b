"""Point-in-time recovery: every commit boundary restores exactly.

The acceptance bar from the issue: for EVERY committed transaction
boundary T in a scripted history, ``restore --to-lsn T`` must reproduce
the same table contents a reference database had immediately after T —
and every non-boundary LSN must be rejected with a typed error naming
the enclosing transaction and the nearest boundaries.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path

import pytest

from repro.backup import ARCHIVE_DIR_NAME, restore_backup
from repro.db.database import Database
from repro.errors import RestoreTargetError
from repro.storage.diskio import DiskIO


def _fingerprint(db):
    rows = sorted(tuple(r) for r in db.sql("SELECT id, v FROM t").rows)
    agg = db.sql("SELECT COUNT(*) AS c, SUM(v) AS s FROM t").rows[0]
    return (tuple(agg), tuple(rows))


def _build_history(root):
    """A scripted history with auto-commits, a checkpoint, an explicit
    transaction, a rollback, and a backup taken mid-stream.

    Returns (backup_result, boundaries, committed_txn_id, last_lsn) where
    ``boundaries`` maps each commit-boundary LSN to the fingerprint the
    reference database had right after it.
    """
    db = Database.open(str(root))
    boundaries = {}

    def mark():
        boundaries[db.wal.last_lsn] = _fingerprint(db)

    db.sql("CREATE TABLE t (id INT NOT NULL, v INT)")
    mark()
    for i in (1, 2, 3):
        db.sql(f"INSERT INTO t VALUES ({i}, {i * 10})")
        mark()
    db.save(str(root))  # checkpoint: itself a valid restore target
    mark()
    db.sql("INSERT INTO t VALUES (4, 40)")
    mark()
    db.sql("BEGIN")
    committed_txn_id = db.wal.last_lsn  # txn ids are TXN_BEGIN LSNs
    db.sql("INSERT INTO t VALUES (5, 50)")
    db.sql("INSERT INTO t VALUES (6, 60)")
    db.sql("COMMIT")
    mark()

    result = db.backup(str(root.parent / "bk"))

    db.sql("INSERT INTO t VALUES (7, 70)")
    mark()
    db.sql("BEGIN")
    db.sql("INSERT INTO t VALUES (8, 80)")
    db.sql("ROLLBACK")  # the abort marker is a boundary too
    mark()
    db.sql("INSERT INTO t VALUES (9, 90)")
    mark()
    last_lsn = db.wal.last_lsn
    # Final checkpoint seals + archives the live segment, so the archive
    # holds the full post-backup history.
    db.save(str(root), force=True)
    db.close()
    return result, boundaries, committed_txn_id, last_lsn


class TestPointInTimeSweep:
    @pytest.fixture(scope="class")
    def history(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("pitr")
        root = base / "src"
        result, boundaries, txn_id, last_lsn = _build_history(root)
        return base, root, result, boundaries, txn_id, last_lsn

    def test_every_boundary_restores_exactly(self, history):
        base, root, result, boundaries, _txn, _last = history
        archive = root / ARCHIVE_DIR_NAME
        reachable = {
            lsn: fp
            for lsn, fp in boundaries.items()
            if lsn >= result.checkpoint_lsn
        }
        assert len(reachable) >= 6  # the sweep must actually sweep
        # Targets both before and after the backup cut must be present.
        assert any(lsn <= result.backup_lsn for lsn in reachable)
        assert any(lsn > result.backup_lsn for lsn in reachable)
        for lsn, expected in sorted(reachable.items()):
            dest = base / f"dest_{lsn}"
            restored = restore_backup(
                root.parent / "bk", dest, to_lsn=lsn, archive=archive
            )
            assert restored.target_lsn == lsn
            rdb = Database.load(str(dest))
            assert _fingerprint(rdb) == expected, f"state diverged at LSN {lsn}"
            rdb.close()
            report = Database.check(str(dest))
            assert report.ok, report.render()

    def test_latest_is_the_newest_boundary(self, history):
        base, root, _result, boundaries, _txn, _last = history
        newest = max(boundaries)
        restored = restore_backup(
            root.parent / "bk",
            base / "dest_latest",
            archive=root / ARCHIVE_DIR_NAME,
        )
        assert restored.target_lsn == newest
        rdb = Database.load(str(base / "dest_latest"))
        assert _fingerprint(rdb) == boundaries[newest]
        rdb.close()

    def test_restore_to_txn_lands_on_its_commit(self, history):
        base, root, _result, boundaries, txn_id, _last = history
        restored = restore_backup(
            root.parent / "bk",
            base / "dest_txn",
            to_txn=txn_id,
            archive=root / ARCHIVE_DIR_NAME,
        )
        assert restored.target_lsn in boundaries
        rdb = Database.load(str(base / "dest_txn"))
        fp = _fingerprint(rdb)
        rdb.close()
        assert fp == boundaries[restored.target_lsn]
        # The committed txn's rows (5, 6) are in; later auto-commits are not.
        ids = {row[0] for row in fp[1]}
        assert {5, 6} <= ids and 7 not in ids

    def test_every_non_boundary_lsn_is_rejected(self, history):
        base, root, result, boundaries, _txn, last_lsn = history
        archive = root / ARCHIVE_DIR_NAME
        non_boundaries = [
            lsn
            for lsn in range(result.checkpoint_lsn + 1, last_lsn + 1)
            if lsn not in boundaries
        ]
        assert non_boundaries  # txn interiors exist in the script
        for lsn in non_boundaries:
            with pytest.raises(RestoreTargetError) as excinfo:
                restore_backup(
                    root.parent / "bk",
                    base / f"reject_{lsn}",
                    to_lsn=lsn,
                    archive=archive,
                )
            err = excinfo.value
            assert "transaction" in str(err)
            assert err.previous_boundary in boundaries or (
                err.previous_boundary == result.checkpoint_lsn
            )
            # A rejected restore writes nothing.
            assert not (base / f"reject_{lsn}").exists()

    def test_target_before_the_base_image_is_rejected(self, history):
        base, root, result, boundaries, _txn, _last = history
        old = [lsn for lsn in boundaries if lsn < result.checkpoint_lsn]
        assert old  # pre-checkpoint boundaries exist in the script
        with pytest.raises(RestoreTargetError, match="predates"):
            restore_backup(
                root.parent / "bk",
                base / "dest_old",
                to_lsn=min(old),
                archive=root / ARCHIVE_DIR_NAME,
            )

    def test_target_beyond_history_is_rejected(self, history):
        base, root, _result, _boundaries, _txn, last_lsn = history
        with pytest.raises(RestoreTargetError, match="beyond the end"):
            restore_backup(
                root.parent / "bk",
                base / "dest_future",
                to_lsn=last_lsn + 100,
                archive=root / ARCHIVE_DIR_NAME,
            )

    def test_without_archive_history_stops_at_backup_lsn(self, history):
        base, root, result, boundaries, _txn, _last = history
        # No archive: the newest reachable boundary is the backup cut.
        restored = restore_backup(root.parent / "bk", base / "dest_noarch")
        assert restored.target_lsn == result.backup_lsn
        assert restored.epoch == result.epoch
        with pytest.raises(RestoreTargetError, match="beyond the end"):
            restore_backup(
                root.parent / "bk",
                base / "dest_noarch2",
                to_lsn=max(boundaries),
            )

    def test_aborted_txn_has_no_commit_target(self, history):
        base, root, _result, _boundaries, txn_id, _last = history
        # The rolled-back transaction began after the committed one; its
        # id is some TXN_BEGIN LSN past txn_id. Probe a plausible id.
        with pytest.raises(RestoreTargetError, match="no COMMIT"):
            restore_backup(
                root.parent / "bk",
                base / "dest_aborted",
                to_txn=txn_id + 1,  # not a committed txn id
                archive=root / ARCHIVE_DIR_NAME,
            )

    def test_every_backup_file_is_read_once(self, history):
        """The log a restore replays and the stamp it obeys are the bytes
        it verified: no backup file is read a second time."""
        base, root, _result, _boundaries, _txn, _last = history
        backup_root = root.parent / "bk"

        class CountingDisk(DiskIO):
            def __init__(self):
                super().__init__()
                self.reads = Counter()

            def read_file(self, path):
                self.reads[Path(path)] += 1
                return super().read_file(path)

        disk = CountingDisk()
        restore_backup(backup_root, base / "dest_reads", disk=disk)
        read = {p.relative_to(backup_root) for p in disk.reads if backup_root in p.parents}
        assert Path("FORMAT") in read
        assert any(p.parts[0] == "wal" for p in read)
        assert all(disk.reads[backup_root / p] == 1 for p in read), disk.reads
