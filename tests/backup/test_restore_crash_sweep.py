"""Crash the restore at every write point: the dest is never half a DB.

While the ``RESTORE_IN_PROGRESS`` marker exists (it is the first file
written and the last removed), the destination is not a database:
``Database.load`` refuses it and ``check`` reports it. Every crash point
must leave the destination in that clearly-uncommitted state — and a
re-run of the same restore over the wreckage must succeed.
"""

from __future__ import annotations

import os

import pytest

from repro.backup import RESTORE_MARKER_NAME, restore_backup
from repro.db.database import Database
from repro.errors import RecoveryError
from repro.storage.diskio import FaultyDisk, InjectedFault

SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))


def _make_backup(tmp_path):
    src = tmp_path / "src"
    db = Database.open(str(src))
    db.sql("CREATE TABLE t (id INT NOT NULL, v INT)")
    for i in range(1, 4):
        db.sql(f"INSERT INTO t VALUES ({i}, {i * 10})")
    db.save(str(src))
    for i in range(4, 7):
        db.sql(f"INSERT INTO t VALUES ({i}, {i * 10})")
    expected = sorted(tuple(r) for r in db.sql("SELECT id, v FROM t").rows)
    db.backup(str(tmp_path / "bk"))
    db.close()
    return tmp_path / "bk", expected


class TestRestoreCrashSweep:
    def test_a_power_cut_after_a_restore_keeps_it(self, tmp_path):
        """What a restore lays down is durable once it returns: the
        destination, and every directory under it, survive a power cut."""
        backup, expected = _make_backup(tmp_path)
        disk = FaultyDisk(lose_unsynced_on_crash=True)
        restore_backup(backup, tmp_path / "restored", disk=disk)
        disk.crash_after_ops = disk.ops
        with pytest.raises(InjectedFault):
            disk.write_file(tmp_path / "after", b"")
        db = Database.load(str(tmp_path / "restored"))
        assert sorted(tuple(r) for r in db.sql("SELECT id, v FROM t").rows) == expected
        db.close()

    def test_crash_at_every_write_point(self, tmp_path):
        backup, expected = _make_backup(tmp_path)

        probe = FaultyDisk()
        restore_backup(backup, tmp_path / "probe", disk=probe)
        total = probe.ops
        assert total > 4  # the sweep must cover real work

        for n in range(total):
            dest = tmp_path / f"dest_{n}"
            torn_bytes = (n % 5) + 1 if n % 2 == SEED % 2 else None
            disk = FaultyDisk(crash_after_ops=n, torn_write_bytes=torn_bytes)
            with pytest.raises(InjectedFault):
                restore_backup(backup, dest, disk=disk)

            # The wreckage is clearly uncommitted: load refuses it.
            with pytest.raises(RecoveryError):
                Database.load(str(dest))
            if (dest / RESTORE_MARKER_NAME).exists():
                report = Database.check(str(dest))
                assert not report.ok
                assert report.manifest_status == "restore-in-progress"

            # Re-running the restore over the wreckage succeeds.
            result = restore_backup(backup, dest)
            assert result.records > 0
            rdb = Database.load(str(dest))
            got = sorted(tuple(r) for r in rdb.sql("SELECT id, v FROM t").rows)
            assert got == expected
            rdb.close()

    def test_marker_refuses_load_until_restore_commits(self, tmp_path):
        backup, expected = _make_backup(tmp_path)
        dest = tmp_path / "dest"
        restore_backup(backup, dest)
        # Re-planting the marker flips the directory back to uncommitted,
        # however complete its contents are.
        (dest / RESTORE_MARKER_NAME).write_bytes(b"{}")
        with pytest.raises(RecoveryError, match="uncommitted restore"):
            Database.load(str(dest))
        report = Database.check(str(dest))
        assert report.manifest_status == "restore-in-progress"
        assert not report.ok
        # A fresh restore claims the marked directory and commits.
        restore_backup(backup, dest)
        rdb = Database.load(str(dest))
        got = sorted(tuple(r) for r in rdb.sql("SELECT id, v FROM t").rows)
        assert got == expected
        rdb.close()
