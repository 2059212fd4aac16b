"""Crash the backup at every write point: torn backups are never valid.

The invariant is *commit-or-nothing*: whatever write point the crash
lands on, the destination either fails verification (and restore refuses
it) or — when the crash hit post-commit bookkeeping such as the archive
registry update — is a complete, verified backup that restores exactly.
There is no third state.
"""

from __future__ import annotations

import os

import pytest

from repro.backup import restore_backup, verify_backup
from repro.db.database import Database
from repro.errors import BackupError
from repro.storage.diskio import DiskIO, FaultyDisk, InjectedFault

SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))


def _seed_source(root):
    db = Database.open(str(root))
    db.sql("CREATE TABLE t (id INT NOT NULL, v INT)")
    for i in range(1, 4):
        db.sql(f"INSERT INTO t VALUES ({i}, {i * 10})")
    db.save(str(root))
    for i in range(4, 7):
        db.sql(f"INSERT INTO t VALUES ({i}, {i * 10})")
    expected = sorted(tuple(r) for r in db.sql("SELECT id, v FROM t").rows)
    db.close()
    return expected


def _probe(src, dest):
    """Measure the op counts of a clean load + backup on a FaultyDisk."""
    disk = FaultyDisk()
    db = Database.load(str(src), disk=disk)
    load_ops = disk.ops
    db.backup(str(dest), disk=disk)
    db.close()
    return load_ops, disk.ops - load_ops


class TestBackupCrashSweep:
    def test_crash_at_every_write_point(self, tmp_path):
        src = tmp_path / "src"
        expected = _seed_source(src)
        load_ops, backup_ops = _probe(src, tmp_path / "probe")
        assert backup_ops > 4  # the sweep must cover real work
        clean = DiskIO()

        torn, committed = 0, 0
        for n in range(backup_ops):
            dest = tmp_path / f"bk_{n}"
            torn_bytes = (n % 7) + 1 if n % 2 == SEED % 2 else None
            disk = FaultyDisk(
                crash_after_ops=load_ops + n, torn_write_bytes=torn_bytes
            )
            db = Database.load(str(src), disk=disk)
            assert disk.ops == load_ops  # loads are deterministic
            with pytest.raises(InjectedFault):
                db.backup(str(dest), disk=disk)
            # The "crash" unwound; the barrier must not leak state.
            assert db.durability.backups_in_flight == 0
            assert len(db.mvcc.readers) == 0
            del db

            try:
                verify_backup(clean, dest)
            except BackupError:
                torn += 1
                # A torn backup is never restorable-as-valid.
                with pytest.raises(BackupError):
                    restore_backup(dest, tmp_path / f"r_{n}")
                assert not (tmp_path / f"r_{n}").exists()
            else:
                # Crash landed after the commit point (manifest written
                # and verified): the backup must be fully usable.
                committed += 1
                restore_backup(dest, tmp_path / f"r_{n}")
                rdb = Database.load(str(tmp_path / f"r_{n}"))
                got = sorted(
                    tuple(r) for r in rdb.sql("SELECT id, v FROM t").rows
                )
                assert got == expected
                rdb.close()

        # Both regimes were exercised: most points tear the backup, the
        # registry bookkeeping after the manifest commit does not.
        assert torn > committed >= 1

        # The source database survived every "crash" untouched.
        db = Database.load(str(src))
        got = sorted(tuple(r) for r in db.sql("SELECT id, v FROM t").rows)
        assert got == expected
        db.close()
        report = Database.check(str(src))
        assert report.ok, report.render()

    def test_dropped_manifest_rename_leaves_backup_uncommitted(self, tmp_path):
        src = tmp_path / "src"
        _seed_source(src)
        disk = FaultyDisk(drop_rename_of="BACKUP_MANIFEST")
        db = Database.load(str(src), disk=disk)
        # The lost rename means verify_backup finds no manifest: the
        # backup reports failure rather than claiming success.
        with pytest.raises(BackupError):
            db.backup(str(tmp_path / "bk"), disk=disk)
        del db
        with pytest.raises(BackupError):
            restore_backup(tmp_path / "bk", tmp_path / "dest")
