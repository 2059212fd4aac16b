"""Hot-backup lifecycle: barrier, copy, verify, refuse-overwrite."""

from __future__ import annotations

import pytest

from repro.backup import (
    BACKUP_MANIFEST_NAME,
    backup_database,
    load_backup_manifest,
    prepare_backup,
    restore_backup,
    verify_backup,
)
from repro.db.database import Database
from repro.errors import BackupError
from repro.observability.registry import get_registry
from repro.storage.diskio import DiskIO


def _seed(path, rows=5):
    db = Database.open(str(path))
    db.sql("CREATE TABLE t (id INT NOT NULL, v INT)")
    for i in range(1, rows + 1):
        db.sql(f"INSERT INTO t VALUES ({i}, {i * 10})")
    return db


def _rows(db):
    return sorted(tuple(r) for r in db.sql("SELECT id, v FROM t").rows)


class TestBackupBasics:
    def test_backup_and_restore_roundtrip(self, tmp_path):
        db = _seed(tmp_path / "src")
        db.save(str(tmp_path / "src"))
        db.sql("INSERT INTO t VALUES (6, 60)")  # WAL tail past the checkpoint
        expected = _rows(db)

        result = db.backup(str(tmp_path / "bk"))
        db.close()

        assert result.backup_lsn > result.checkpoint_lsn
        assert result.snapshot_id is not None
        assert result.files > 0 and result.bytes > 0
        assert result.wal_records == result.backup_lsn - result.checkpoint_lsn

        manifest = verify_backup(DiskIO(), tmp_path / "bk")
        assert manifest.backup_lsn == result.backup_lsn
        assert manifest.checkpoint_lsn == result.checkpoint_lsn

        restored = restore_backup(tmp_path / "bk", tmp_path / "dest")
        assert restored.target_lsn == result.backup_lsn
        assert restored.epoch == result.epoch
        rdb = Database.load(str(tmp_path / "dest"))
        assert _rows(rdb) == expected
        rdb.close()

    def test_backup_without_snapshot_is_wal_only(self, tmp_path):
        # Never checkpointed: the whole database lives in the log.
        db = _seed(tmp_path / "src", rows=3)
        expected = _rows(db)
        result = db.backup(str(tmp_path / "bk"))
        db.close()

        assert result.snapshot_id is None
        assert result.checkpoint_lsn == 0
        assert result.wal_records == result.backup_lsn

        restore_backup(tmp_path / "bk", tmp_path / "dest")
        rdb = Database.load(str(tmp_path / "dest"))
        assert _rows(rdb) == expected
        rdb.close()

    def test_backup_refuses_nondurable_database(self):
        db = Database()
        with pytest.raises(BackupError, match="durable"):
            backup_database(db, "/nonexistent/bk")

    def test_backup_refuses_to_overwrite_completed_backup(self, tmp_path):
        db = _seed(tmp_path / "src")
        db.backup(str(tmp_path / "bk"))
        with pytest.raises(BackupError, match="refusing"):
            db.backup(str(tmp_path / "bk"))
        db.close()

    def test_restore_refuses_nonempty_destination(self, tmp_path):
        db = _seed(tmp_path / "src")
        db.backup(str(tmp_path / "bk"))
        db.close()
        (tmp_path / "dest").mkdir()
        (tmp_path / "dest" / "precious.txt").write_text("do not delete")
        with pytest.raises(Exception, match="refusing"):
            restore_backup(tmp_path / "bk", tmp_path / "dest")
        assert (tmp_path / "dest" / "precious.txt").read_text() == "do not delete"

    def test_restore_of_missing_backup_raises(self, tmp_path):
        with pytest.raises(BackupError, match="torn or never finished"):
            restore_backup(tmp_path / "nothing", tmp_path / "dest")
        # The destination was never touched.
        assert not (tmp_path / "dest").exists()

    def test_backup_counters(self, tmp_path):
        registry = get_registry()
        before = registry.snapshot()
        db = _seed(tmp_path / "src")
        db.backup(str(tmp_path / "bk"))
        restore_backup(tmp_path / "bk", tmp_path / "dest")
        db.close()
        after = registry.snapshot()
        assert after.get("backup.started", 0) - before.get("backup.started", 0) == 1
        assert (
            after.get("backup.completed", 0) - before.get("backup.completed", 0) == 1
        )
        assert after.get("backup.files_copied", 0) > before.get(
            "backup.files_copied", 0
        )
        assert (
            after.get("restore.completed", 0) - before.get("restore.completed", 0)
            == 1
        )
        assert after.get("restore.records_restored", 0) > before.get(
            "restore.records_restored", 0
        )

    def test_backup_manifest_is_self_checksummed(self, tmp_path):
        db = _seed(tmp_path / "src")
        db.backup(str(tmp_path / "bk"))
        db.close()
        path = tmp_path / "bk" / BACKUP_MANIFEST_NAME
        data = path.read_bytes()
        path.write_bytes(data.replace(b'"backup_lsn"', b'"backup_lsX"'))
        with pytest.raises(BackupError):
            load_backup_manifest(DiskIO(), tmp_path / "bk")

    def test_verify_backup_catches_damaged_blob(self, tmp_path):
        db = _seed(tmp_path / "src")
        db.save(str(tmp_path / "src"))
        db.backup(str(tmp_path / "bk"))
        db.close()
        # Flip a byte in some copied image file; verification must name it.
        image = tmp_path / "bk" / "image"
        victim = next(p for p in sorted(image.rglob("*")) if p.is_file())
        data = bytearray(victim.read_bytes())
        data[len(data) // 2] ^= 0xFF
        victim.write_bytes(bytes(data))
        with pytest.raises(BackupError, match="checksum|size"):
            verify_backup(DiskIO(), tmp_path / "bk")
        with pytest.raises(BackupError):
            restore_backup(tmp_path / "bk", tmp_path / "dest")


class TestCheckpointDeferral:
    def test_checkpoints_defer_while_backup_in_flight(self, tmp_path):
        db = _seed(tmp_path / "src")
        db.save(str(tmp_path / "src"))
        db.sql("INSERT INTO t VALUES (100, 1000)")
        registry = get_registry()
        before = registry.counter("backup.checkpoints_deferred")

        job = prepare_backup(db, tmp_path / "bk")
        manifest_before = (tmp_path / "src" / "MANIFEST.json").read_bytes()
        db.save(str(tmp_path / "src"))  # must defer, not checkpoint
        assert registry.counter("backup.checkpoints_deferred") == before + 1
        assert (tmp_path / "src" / "MANIFEST.json").read_bytes() == manifest_before

        result = job.run()
        assert result.wal_records >= 1
        # With the backup done, checkpoints work again.
        db.save(str(tmp_path / "src"))
        assert (tmp_path / "src" / "MANIFEST.json").read_bytes() != manifest_before
        db.close()

    def test_failed_barrier_hook_releases_the_lease(self, tmp_path):
        db = _seed(tmp_path / "src")

        def hook(_db):
            raise RuntimeError("fingerprint failed")

        with pytest.raises(RuntimeError):
            prepare_backup(db, tmp_path / "bk", barrier_hook=hook)
        assert db.durability.backups_in_flight == 0
        assert len(db.mvcc.readers) == 0
        db.close()
