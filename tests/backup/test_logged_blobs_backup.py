"""Backups and point-in-time restores over logged row groups.

A ROW_GROUPS record names segment blobs in the pool. The archive keeps
the blobs its records name (linked beside its segments) and a hot backup
copies the blobs its log prefix names, so a restore never reads the
source's pool: it works with the live ``segments/`` gone. Every holder
of a log keeps the blobs of every record it holds, whatever became of
the record's transaction, so a restored log past a rolled-back or
never-ended load checks clean and archives at its first checkpoint.
"""

from __future__ import annotations

import shutil

from repro import Database, StoreConfig
from repro.backup import ARCHIVE_DIR_NAME, restore_backup
from repro.storage.snapshot import POOL_DIR_NAME
from repro.wal.log import WAL_DIR_NAME

CONFIG = StoreConfig(rowgroup_size=64, bulk_load_threshold=16, delta_close_rows=16)
LOAD = [(i, f"g{i % 4}") for i in range(200)]  # four row groups


def rows(db: Database) -> list:
    return db.sql("SELECT k, tag FROM t ORDER BY k").rows


def loaded(root) -> Database:
    db = Database.open(str(root), default_config=CONFIG)
    db.sql("CREATE TABLE t (k INT NOT NULL, tag VARCHAR)")
    db.insert("t", [(-1, "before")])
    return db


def test_pitr_past_a_logged_load_without_the_live_pool(tmp_path):
    root = tmp_path / "db"
    db = loaded(root)
    db.save(str(root))
    db.backup(str(tmp_path / "bk"))  # before the load
    db.bulk_load("t", [(i, f"g{i % 4}") for i in range(200)])
    target = db.wal.last_lsn
    want = rows(db)
    db.insert("t", [(10_000, "after the target")])
    db.run_tuple_mover("t", include_open=True)
    db.save(str(root))  # archives the load's segment, with its blobs
    db.close()
    assert (root / ARCHIVE_DIR_NAME / POOL_DIR_NAME).is_dir()
    shutil.rmtree(root / POOL_DIR_NAME)

    restored = tmp_path / "restored"
    restore_backup(tmp_path / "bk", restored, to_lsn=target, archive=root / ARCHIVE_DIR_NAME)
    db = Database.open(str(restored))
    assert rows(db) == want
    db.close()
    assert Database.check(str(restored)).ok


def test_a_hot_backup_after_a_load_restores_on_its_own(tmp_path):
    root = tmp_path / "db"
    db = loaded(root)
    db.save(str(root))
    db.bulk_load("t", [(i, f"g{i % 4}") for i in range(200)])
    db.set_archival("t", True)  # the backup's log prefix names both changes' blobs
    want = rows(db)
    result = db.backup(str(tmp_path / "bk"))
    db.close()
    shutil.rmtree(root)
    restored = tmp_path / "restored"
    restore_backup(tmp_path / "bk", restored)
    db = Database.open(str(restored))
    assert rows(db) == want
    assert all(group.archived for group in db.table("t").columnstore.directory.row_groups())
    db.close()
    assert result.wal_records >= 2


def test_check_reports_blobs_the_log_names_as_pending(tmp_path):
    root = tmp_path / "db"
    db = loaded(root)
    db.save(str(root))
    db.bulk_load("t", [(i, f"g{i % 4}") for i in range(200)])
    db.close()
    (root / POOL_DIR_NAME / "t" / "rowgroups" / "g99.k.00000000.seg").write_bytes(b"stray")
    report = Database.check(str(root))
    assert report.ok
    statuses = {v.path.rsplit("/", 1)[1]: v.status for v in report.verdicts}
    assert statuses.pop("g99.k.00000000.seg") == "orphan"
    pending = [name for name, status in statuses.items() if status == "pending"]
    assert len(pending) == 4 * 2  # 200 rows in four row groups, two columns
    assert "pending" in "\n".join(report.render())
    # A blob the log's tail names must be there.
    (root / POOL_DIR_NAME / "t" / "rowgroups" / sorted(pending)[0]).unlink()
    report = Database.check(str(root))
    assert not report.ok
    assert [v.status for v in report.verdicts if not v.ok] == ["missing"]


def test_pruning_the_archive_prunes_the_blobs_it_no_longer_names(tmp_path):
    root = tmp_path / "db"
    db = loaded(root)
    db.bulk_load("t", [(i, f"g{i % 4}") for i in range(200)])
    db.save(str(root))  # archives the load's segment with its blobs
    archived = root / ARCHIVE_DIR_NAME / POOL_DIR_NAME
    assert len([p for p in archived.rglob("*") if p.is_file()]) == 4 * 2
    db.backup(str(tmp_path / "bk"))  # its image holds the load: the floor moves past it
    db.insert("t", [(5000, "later")])
    db.save(str(root))  # prunes the segments every backup covers
    assert not archived.exists()
    db.close()
    assert Database.check(str(root)).ok


def restore_checks_and_archives(tmp_path, root, want) -> None:
    """Restore the backup taken before the load with the archive, to the
    latest commit: the restored database checks clean, holds ``want``,
    and its first checkpoint archives its whole log."""
    shutil.rmtree(root / POOL_DIR_NAME, ignore_errors=True)
    restored = tmp_path / "restored"
    restore_backup(tmp_path / "bk", restored, archive=root / ARCHIVE_DIR_NAME)
    assert Database.check(str(restored)).ok
    db = Database.open(str(restored))
    assert rows(db) == want
    live = sorted(path.name for path in (restored / WAL_DIR_NAME).glob("seg_*.wal"))
    assert live
    db.save(str(restored), force=True)
    assert not list((restored / WAL_DIR_NAME).glob("seg_*.wal"))
    assert all((restored / ARCHIVE_DIR_NAME / name).is_file() for name in live)
    db.close()
    assert Database.check(str(restored)).ok


def test_pitr_past_a_rolled_back_load(tmp_path):
    root = tmp_path / "db"
    db = loaded(root)
    db.save(str(root))
    db.backup(str(tmp_path / "bk"))
    db.begin()
    db.bulk_load("t", LOAD)
    db.rollback()
    db.insert("t", [(5000, "after the rollback")])
    want = rows(db)
    db.save(str(root))  # archives the segment the rollback is in
    db.close()
    restore_checks_and_archives(tmp_path, root, want)


def test_pitr_past_a_load_whose_transaction_never_ended(tmp_path):
    root = tmp_path / "db"
    db = loaded(root)
    db.save(str(root))
    db.backup(str(tmp_path / "bk"))
    db.begin()
    db.bulk_load("t", LOAD)
    db.wal.flush()
    del db  # a crash: the transaction neither commits nor rolls back
    db = Database.open(str(root), default_config=CONFIG)
    db.insert("t", [(5000, "after the crash")])
    want = rows(db)
    assert len(want) == 2
    db.save(str(root))
    db.close()
    restore_checks_and_archives(tmp_path, root, want)
