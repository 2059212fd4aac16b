"""The WAL's held append descriptor: same write points, no descriptor left
behind, never a write into an unlinked file.

``DiskIO.append_file`` keeps the descriptor it opens until rotation,
checkpoint truncation or ``close``. These tests hold that to what the
one-open-per-record log did: a fixed statement list passes the same
``FaultyDisk`` write points (counted by kind), a checkpoint that deletes
the tail segment sends the next record to a new file that reopening
replays, no descriptor into ``wal/`` outlives rotation or
``Database.close``, and a disk reused after a simulated crash writes
only into files that still have a name.
"""

from __future__ import annotations

import os
from collections import Counter
from pathlib import Path

import pytest

from repro import StoreConfig
from repro.db.database import Database
from repro.storage.diskio import DiskIO, FaultyDisk, InjectedFault

CONFIG = StoreConfig(rowgroup_size=64, bulk_load_threshold=1000, delta_close_rows=16)

SCRIPT = (
    ["CREATE TABLE t (k INT NOT NULL, v VARCHAR)"]
    + [f"INSERT INTO t VALUES ({k}, 'v{k}')" for k in range(12)]
    + ["BEGIN", "INSERT INTO t VALUES (100, 'x')", "DELETE FROM t WHERE k = 3",
       "UPDATE t SET v = 'y' WHERE k = 4", "COMMIT"]
    + ["BEGIN", "INSERT INTO t VALUES (101, 'z')", "ROLLBACK"]
    + [f"DELETE FROM t WHERE k = {k}" for k in (5, 6)]
)
AFTER_CHECKPOINT = [f"INSERT INTO t VALUES ({k}, 'w')" for k in range(200, 206)]

# What the list costs, counted on the log that opened its segment per
# record: rotation every ~300 bytes, per-commit fsyncs, one checkpoint.
EXPECTED_WRITE_POINTS = Counter(
    {"append": 29, "sync_file": 23, "sync_dir": 7, "rename": 10, "write": 10}
)


class _CountingFaultyDisk(FaultyDisk):
    """A fault-free ``FaultyDisk`` that names each write point it passes."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.points: Counter[str] = Counter()

    def _write_bytes(self, path, data):
        self.points["write"] += 1
        super()._write_bytes(path, data)

    def append_file(self, path, data):
        self.points["append"] += 1
        super().append_file(path, data)

    def sync_file(self, path):
        self.points["sync_file"] += 1
        super().sync_file(path)

    def sync_dir(self, path):
        self.points["sync_dir"] += 1
        super().sync_dir(path)

    def rename(self, src, dst):
        self.points["rename"] += 1
        super().rename(src, dst)


def _open(root: Path, disk: DiskIO) -> Database:
    db = Database.open(str(root), disk=disk, durability="per-commit", default_config=CONFIG)
    db.wal.segment_bytes = 300  # a few records a segment: rotation is exercised
    return db


def _rows(db: Database) -> list[tuple]:
    return sorted(tuple(row) for row in db.sql("SELECT k, v FROM t").rows)


def _wal_descriptors(wal_dir: Path) -> list[str]:
    """Targets of this process's open descriptors inside ``wal_dir``."""
    found = []
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:
            continue
        if target.startswith(str(wal_dir)):
            found.append(target)
    return found


needs_proc = pytest.mark.skipif(
    not Path("/proc/self/fd").is_dir(), reason="counts /proc/self/fd links (Linux)"
)


def test_a_fixed_statement_list_passes_the_same_write_points(tmp_path):
    disk = _CountingFaultyDisk()
    db = _open(tmp_path / "db", disk)
    for statement in SCRIPT:
        db.sql(statement)
    db.save(str(tmp_path / "db"), disk=disk)
    for statement in AFTER_CHECKPOINT:
        db.sql(statement)
    db.close()
    assert disk.points == EXPECTED_WRITE_POINTS
    assert disk.ops == sum(EXPECTED_WRITE_POINTS.values())


def test_truncation_of_the_tail_sends_the_next_record_to_a_new_file(tmp_path):
    root = tmp_path / "db"
    db = _open(root, DiskIO())
    db.wal.segment_bytes = 1 << 20  # one segment until the checkpoint
    db.sql("CREATE TABLE t (k INT NOT NULL, v VARCHAR)")
    db.sql("INSERT INTO t VALUES (1, 'a')")
    tail = db.wal._segments[-1].path
    db.save(str(root))  # covers every record: the tail segment is deleted
    assert not tail.exists() and not db.wal._segments
    db.sql("INSERT INTO t VALUES (2, 'b')")
    fresh = db.wal._segments[-1].path
    assert fresh != tail and fresh.stat().st_size == db.wal._segments[-1].size > 0
    # Not closed: reopening must find the record in the new file and
    # replay it past the checkpoint.
    reopened = Database.open(str(root), default_config=CONFIG)
    assert _rows(reopened) == [(1, "a"), (2, "b")]
    reopened.close()
    db.close()


@needs_proc
def test_no_descriptor_into_the_log_survives_rotation_truncation_or_close(tmp_path):
    root = tmp_path / "db"
    db = _open(root, DiskIO())
    wal_dir = (root / "wal").resolve()
    rotations = 0
    for statement in SCRIPT:
        segments = len(db.wal._segments)
        db.sql(statement)
        rotations += len(db.wal._segments) > segments
        held = _wal_descriptors(wal_dir)
        # At most the tail's descriptor, and never one into a file that
        # rotation sealed or truncation removed.
        assert held in ([], [str(db.wal._segments[-1].path.resolve())]), statement
    assert rotations >= 3
    db.save(str(root))  # checkpoint truncation removes every segment
    assert _wal_descriptors(wal_dir) == []
    db.sql("INSERT INTO t VALUES (300, 'c')")
    assert _wal_descriptors(wal_dir) == [str(db.wal._segments[-1].path.resolve())]
    db.close()
    assert _wal_descriptors(wal_dir) == []


class _CrashAtNewSegment(FaultyDisk):
    """Crashes at the directory fsync that would make a freshly created
    segment's name durable: the power cut unlinks the file the disk was
    holding open."""

    armed = False

    def sync_dir(self, path):
        if self.armed and self._unsynced_entries:
            self.crash_after_ops = self.ops
        super().sync_dir(path)


def test_a_disk_reused_after_a_crash_never_writes_to_an_unlinked_file(tmp_path):
    root = tmp_path / "db"
    disk = _CrashAtNewSegment(lose_unsynced_on_crash=True)
    db = _open(root, disk)
    db.sql("CREATE TABLE t (k INT NOT NULL, v VARCHAR)")
    disk.armed = True
    with pytest.raises(InjectedFault):
        for k in range(50):
            db.sql(f"INSERT INTO t VALUES ({k}, 'a')")
    del db
    disk.armed = False
    disk.crash_after_ops = None
    survived = _rows(Database.open(str(root), default_config=CONFIG))
    # The same disk again: recovery, then appends that land in the
    # segment name the crash unlinked.
    db = _open(root, disk)
    for k in range(1000, 1010):
        db.sql(f"INSERT INTO t VALUES ({k}, 'b')")
        for fd in (disk._appending or {}).values():
            assert os.fstat(fd).st_nlink > 0, "append into an unlinked file"
    db.close()
    reopened = Database.open(str(root), default_config=CONFIG)
    assert _rows(reopened) == survived + [(k, "b") for k in range(1000, 1010)]
    reopened.close()
