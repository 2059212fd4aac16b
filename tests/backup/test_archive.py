"""WAL archiving: rotation hooks, archive-before-delete, retention."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.backup import ARCHIVE_DIR_NAME, WalArchiver, check_archive
from repro.db.database import Database
from repro.errors import WalCorruptError
from repro.storage.diskio import DiskIO, FaultyDisk, InjectedFault
from repro.wal.log import WriteAheadLog
from repro.wal.record import WalRecordType


def _fill(wal, count, start=0):
    for i in range(start, start + count):
        wal.log_statement(WalRecordType.INSERT, "t", b"x" * 40)
    wal.flush()


class TestRotationArchiving:
    def test_sealed_segments_are_archived_on_rotation(self, tmp_path):
        disk = DiskIO()
        wal, _ = WriteAheadLog.attach(
            disk, tmp_path / "wal", segment_bytes=256, durability="per-commit"
        )
        archiver = WalArchiver(disk, tmp_path / "arch")
        wal.set_archiver(archiver)
        _fill(wal, 30)
        spans = archiver.segment_spans()
        assert len(spans) >= 2  # rotation really happened and archived
        # Spans are contiguous: each segment starts right after the last.
        for (_, _, prev_last), (_, next_first, _) in zip(spans, spans[1:]):
            assert next_first == prev_last + 1
        assert archiver.last_archived_lsn() >= spans[-1][1]
        verdicts = check_archive(disk, tmp_path / "arch")
        assert all(v.ok for v in verdicts)

    def test_set_archiver_catches_up_on_sealed_segments(self, tmp_path):
        disk = DiskIO()
        wal, _ = WriteAheadLog.attach(
            disk, tmp_path / "wal", segment_bytes=256, durability="per-commit"
        )
        _fill(wal, 30)  # several segments sealed with no archiver attached
        archiver = WalArchiver(disk, tmp_path / "arch")
        wal.set_archiver(archiver)
        assert len(archiver.segment_spans()) >= 2
        # Catch-up is idempotent: attaching again copies nothing new.
        before = disk.listdir(tmp_path / "arch")
        wal.set_archiver(WalArchiver(disk, tmp_path / "arch"))
        assert disk.listdir(tmp_path / "arch") == before

    def test_archiver_refuses_damaged_source_segment(self, tmp_path):
        disk = DiskIO()
        wal, _ = WriteAheadLog.attach(
            disk, tmp_path / "wal", durability="per-commit"
        )
        _fill(wal, 3)
        name = disk.listdir(tmp_path / "wal")[0]
        seg = tmp_path / "wal" / name
        data = bytearray(disk.read_file(seg))
        data[10] ^= 0xFF
        Path(seg).write_bytes(bytes(data))
        archiver = WalArchiver(disk, tmp_path / "arch")
        with pytest.raises(WalCorruptError, match="refusing to archive"):
            archiver.archive_segment(disk, seg, 1)
        assert disk.listdir(tmp_path / "arch") == []


class TestArchiveBeforeDelete:
    def test_checkpoint_truncation_archives_first(self, tmp_path):
        db = Database.open(str(tmp_path / "db"))
        db.sql("CREATE TABLE t (id INT NOT NULL)")
        for i in range(5):
            db.sql(f"INSERT INTO t VALUES ({i})")
        last = db.wal.last_lsn
        db.save(str(tmp_path / "db"))  # covers + truncates the segment
        db.close()
        archive = tmp_path / "db" / ARCHIVE_DIR_NAME
        archiver = WalArchiver(DiskIO(), archive)
        # Everything the checkpoint deleted from the live log is in the
        # archive: history 1..last is fully readable.
        assert archiver.last_archived_lsn() >= last
        verdicts = check_archive(DiskIO(), archive)
        assert verdicts and all(v.ok for v in verdicts)

    def test_the_first_archived_segment_survives_a_power_cut(self, tmp_path):
        """The checkpoint that makes wal_archive/ deletes the live segment
        it archived: the archive's own entry must be durable by then."""
        disk = FaultyDisk(lose_unsynced_on_crash=True)
        db = Database.open(str(tmp_path / "db"), disk=disk)
        db.sql("CREATE TABLE t (id INT NOT NULL)")
        for i in range(5):
            db.sql(f"INSERT INTO t VALUES ({i})")
        last = db.wal.last_lsn
        db.save(str(tmp_path / "db"), disk=disk)
        disk.crash_after_ops = disk.ops
        with pytest.raises(InjectedFault):
            disk.write_file(tmp_path / "after", b"")
        archive = tmp_path / "db" / ARCHIVE_DIR_NAME
        assert WalArchiver(DiskIO(), archive).last_archived_lsn() >= last

    def test_unarchivable_segment_is_kept_in_live_log(self, tmp_path):
        class RefusingArchiver:
            archived = 0

            def archive_segment(self, disk, src, first_lsn):
                return False  # e.g. archive volume full

            def prune(self):
                return 0

        db = Database.open(str(tmp_path / "db"))
        db.sql("CREATE TABLE t (id INT NOT NULL)")
        db.sql("INSERT INTO t VALUES (1)")
        db.wal.set_archiver(None)
        db.wal.archiver = RefusingArchiver()
        before = DiskIO().listdir(tmp_path / "db" / "wal")
        db.save(str(tmp_path / "db"))
        after = DiskIO().listdir(tmp_path / "db" / "wal")
        # The covered segment survived: archive-before-delete refused to
        # drop what the archiver could not confirm.
        assert set(before) <= set(after)
        db.close()


class TestRetention:
    def test_prune_respects_the_oldest_registered_backup(self, tmp_path):
        disk = DiskIO()
        wal, _ = WriteAheadLog.attach(
            disk, tmp_path / "wal", segment_bytes=256, durability="per-commit"
        )
        archiver = WalArchiver(disk, tmp_path / "arch")
        wal.set_archiver(archiver)
        _fill(wal, 40)
        spans = archiver.segment_spans()
        assert len(spans) >= 3

        # No registered backup: nothing may be pruned.
        assert archiver.retention_floor() is None
        assert archiver.prune() == 0
        assert archiver.segment_spans() == spans

        # A backup whose checkpoint covers the first two segments.
        floor = spans[1][2]
        archiver.register_backup(
            "bk1", backup_lsn=floor + 3, checkpoint_lsn=floor
        )
        pruned = archiver.prune()
        assert pruned == 2
        remaining = archiver.segment_spans()
        assert remaining[0][1] == floor + 1

        # An OLDER backup registered later lowers the floor; nothing
        # below the already-pruned point can come back, but nothing
        # above it is pruned either.
        archiver.register_backup("bk0", backup_lsn=2, checkpoint_lsn=1)
        assert archiver.retention_floor() == 1
        assert archiver.prune() == 0
        assert archiver.segment_spans() == remaining

    def test_unreadable_registry_disables_pruning(self, tmp_path):
        disk = DiskIO()
        archiver = WalArchiver(disk, tmp_path / "arch")
        archiver.register_backup("bk", backup_lsn=10, checkpoint_lsn=5)
        assert archiver.retention_floor() == 5
        (tmp_path / "arch" / "backups.json").write_bytes(b"not json{")
        assert archiver.registered_backups() == []
        assert archiver.retention_floor() is None
        assert archiver.prune() == 0


class TestCheckArchive:
    def _archive_with_segments(self, tmp_path):
        disk = DiskIO()
        wal, _ = WriteAheadLog.attach(
            disk, tmp_path / "wal", segment_bytes=256, durability="per-commit"
        )
        archiver = WalArchiver(disk, tmp_path / "arch")
        wal.set_archiver(archiver)
        _fill(wal, 40)
        names = [name for name, _f, _l in archiver.segment_spans()]
        assert len(names) >= 3
        return disk, tmp_path / "arch", names

    def test_gap_is_reported(self, tmp_path):
        disk, arch, names = self._archive_with_segments(tmp_path)
        (arch / names[1]).unlink()
        verdicts = check_archive(disk, arch)
        gaps = [v for v in verdicts if v.status == "archive-gap"]
        assert len(gaps) == 1
        assert "unreachable" in gaps[0].detail

    def test_corrupt_archived_segment_is_reported(self, tmp_path):
        disk, arch, names = self._archive_with_segments(tmp_path)
        data = bytearray((arch / names[0]).read_bytes())
        data[-3] ^= 0xFF  # even a "torn tail" is corruption in a sealed copy
        (arch / names[0]).write_bytes(bytes(data))
        verdicts = check_archive(disk, arch)
        assert any(v.status == "corrupt" for v in verdicts)

    def test_pruned_history_behind_a_registered_backup_is_flagged(self, tmp_path):
        disk, arch, names = self._archive_with_segments(tmp_path)
        archiver = WalArchiver(disk, arch)
        # A backup that would need history starting at LSN 3, but the
        # older segments are gone.
        archiver.register_backup("bk-old", backup_lsn=2, checkpoint_lsn=1)
        (arch / names[0]).unlink()
        verdicts = check_archive(disk, arch)
        flagged = [
            v
            for v in verdicts
            if v.segment == "(archive)" and v.status == "archive-gap"
        ]
        assert len(flagged) == 1
        assert "bk-old" in flagged[0].detail

    def test_database_check_includes_archive_verdicts(self, tmp_path):
        db = Database.open(str(tmp_path / "db"))
        db.sql("CREATE TABLE t (id INT NOT NULL)")
        for i in range(5):
            db.sql(f"INSERT INTO t VALUES ({i})")
        db.save(str(tmp_path / "db"))
        db.close()
        report = Database.check(str(tmp_path / "db"))
        assert report.ok
        assert report.archive_verdicts  # archiving is on by default
        rendered = "\n".join(report.render())
        assert "archive" in rendered
        # Damage the archive: the database check goes red.
        arch = tmp_path / "db" / ARCHIVE_DIR_NAME
        seg = next(p for p in sorted(arch.iterdir()) if p.suffix == ".wal")
        data = bytearray(seg.read_bytes())
        data[8] ^= 0xFF
        seg.write_bytes(bytes(data))
        report = Database.check(str(tmp_path / "db"))
        assert not report.ok
