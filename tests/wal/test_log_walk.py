"""One walk and one rule read a log directory: recovery and ``repro check``
agree on every log, ``repro check`` reads each segment once, and a
checkpoint never leaves a live log that will not open."""

import os
import random
from pathlib import Path

from repro.backup import ARCHIVE_DIR_NAME, WalArchiver
from repro.db.database import Database
from repro.errors import WalCorruptError
from repro.storage.diskio import DiskIO
from repro.wal.log import WAL_DIR_NAME, WriteAheadLog, check_wal
from repro.wal.record import WalRecordType

SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))


def _damaged_log(root: Path, rng: random.Random) -> int:
    """A multi-segment log at ``root`` with random damage; returns a
    random checkpoint LSN to judge it against."""
    wal, _ = WriteAheadLog.attach(DiskIO(), root, segment_bytes=rng.choice([96, 160, 256]))
    count = rng.randrange(4, 30)
    for i in range(count):
        wal.log_statement(WalRecordType.INSERT, "t", b"r" * rng.randrange(0, 50))
    wal.close()
    for _ in range(rng.randrange(0, 3)):
        names = sorted(p.name for p in root.iterdir())
        victim = root / rng.choice(names)
        data = bytearray(victim.read_bytes())
        kind = rng.choice(["flip", "cut", "drop"])
        if kind == "drop" and len(names) > 2:
            victim.unlink()
        elif kind == "cut" and data:
            victim.write_bytes(bytes(data[: rng.randrange(len(data))]))
        elif data:
            data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
            victim.write_bytes(bytes(data))
    return rng.randrange(0, count + 3)


def test_check_wal_passes_exactly_the_logs_that_attach_opens(tmp_path):
    rng = random.Random(SEED)
    outcomes = set()
    for case in range(150):
        root = tmp_path / f"case_{case}" / WAL_DIR_NAME
        checkpoint = _damaged_log(root, rng)
        verdicts = check_wal(DiskIO(), root, checkpoint)
        try:
            WriteAheadLog.attach(DiskIO(), root, checkpoint_lsn=checkpoint)
            opened = True
        except WalCorruptError:
            opened = False
        assert all(v.ok for v in verdicts) == opened, (case, checkpoint, verdicts)
        if opened:
            # What the open truncated, the next check no longer reports.
            after = check_wal(DiskIO(), root, checkpoint)
            assert all(v.status in ("ok", "stale") for v in after), (case, after)
        outcomes.add(opened)
    assert outcomes == {True, False}


class CountingDisk(DiskIO):
    def __init__(self):
        super().__init__()
        self.reads: dict[Path, int] = {}

    def read_file(self, path):
        self.reads[Path(path)] = self.reads.get(Path(path), 0) + 1
        return super().read_file(path)


def test_repro_check_reads_each_segment_once(tmp_path):
    root = tmp_path / "db"
    db = Database.open(str(root))
    db.wal.segment_bytes = 256
    db.sql("CREATE TABLE t (id INT NOT NULL)")
    for i in range(20):
        db.sql(f"INSERT INTO t VALUES ({i})")
    db.save(str(root))  # the covered segments move to the archive
    for i in range(20, 40):
        db.sql(f"INSERT INTO t VALUES ({i})")
    db.close()
    segments = {
        root / sub / name
        for sub in (WAL_DIR_NAME, ARCHIVE_DIR_NAME)
        for name in os.listdir(root / sub)
        if name.startswith("seg_") and name.endswith(".wal")
    }
    assert len([p for p in segments if p.parent.name == WAL_DIR_NAME]) >= 3
    assert [p for p in segments if p.parent.name == ARCHIVE_DIR_NAME]
    disk = CountingDisk()
    assert Database.check(str(root), disk=disk).ok
    assert {path: disk.reads.get(path, 0) for path in segments} == dict.fromkeys(segments, 1)


class RefusingFirstSegment(WalArchiver):
    """An archiver that, once ``refusing``, cannot take the log's first
    segment (the archive volume fails on it)."""

    refusing = False

    def archive_segment(self, disk, src, first_lsn):
        if self.refusing and first_lsn == 1:
            return False
        return super().archive_segment(disk, src, first_lsn)


def test_a_kept_covered_segment_keeps_every_later_one(tmp_path):
    """A checkpoint whose archiver refuses the oldest covered segment
    keeps it and every segment after it, so the live log has no hole:
    it reopens and checks clean."""
    root = tmp_path / "db"
    db = Database.open(str(root))
    archiver = RefusingFirstSegment(DiskIO(), root / ARCHIVE_DIR_NAME)
    db.wal.set_archiver(archiver)
    db.wal.segment_bytes = 256
    db.sql("CREATE TABLE t (id INT NOT NULL)")
    for i in range(30):
        db.sql(f"INSERT INTO t VALUES ({i})")
    archiver.refusing = True
    db.save(str(root))
    db.sql("INSERT INTO t VALUES (30)")  # starts a segment past the checkpoint
    db.close()
    report = Database.check(str(root))
    assert report.ok, report.render()
    assert all(v.status in ("ok", "stale") for v in report.wal_verdicts)
    db = Database.open(str(root))
    assert db.sql("SELECT COUNT(*) FROM t").scalar() == 31
    db.close()
    live = sorted(os.listdir(root / WAL_DIR_NAME))
    assert live[0] == "seg_000000000001.wal" and len(live) > 2
