"""Directory-entry durability: fsync the file AND the name that finds it.

On a metadata-lazy filesystem, fsyncing a file makes its *bytes* durable
but not the directory entry naming it — a power cut can leave a
fully-fsynced file unreachable. ``FaultyDisk(lose_unsynced_on_crash=True)``
models this: files created by ``append_file`` whose parent directory was
never ``sync_dir``-ed (or made durable by a rename into it) vanish at the
crash. These tests prove the model, then prove the two write paths that
depend on it: WAL segment creation and the snapshot protocol.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro import StoreConfig
from repro.db.database import Database
from repro.storage.diskio import DiskIO, FaultyDisk, InjectedFault
from repro.storage.snapshot import MANIFEST_NAME


class TestFaultyDiskDirEntries:
    def test_unsynced_dir_entry_vanishes_on_crash(self, tmp_path):
        disk = FaultyDisk(lose_unsynced_on_crash=True)
        target = tmp_path / "d" / "f"
        disk.append_file(target, b"hello")
        disk.sync_file(target)  # bytes durable — but the NAME is not
        disk.crash_after_ops = disk.ops
        with pytest.raises(InjectedFault):
            disk.append_file(tmp_path / "d" / "other", b"x")
        assert not target.exists()

    def test_sync_dir_makes_the_entry_durable(self, tmp_path):
        disk = FaultyDisk(lose_unsynced_on_crash=True)
        target = tmp_path / "d" / "f"
        disk.append_file(target, b"hello")
        disk.sync_file(target)
        disk.sync_dir(tmp_path / "d")
        disk.crash_after_ops = disk.ops
        with pytest.raises(InjectedFault):
            disk.append_file(tmp_path / "d" / "other", b"x")
        assert target.read_bytes() == b"hello"

    def test_rename_into_dir_also_persists_prior_entries(self, tmp_path):
        # rename fsyncs the destination directory as part of the atomic
        # protocol, so every entry in it becomes durable — the appended
        # file rides along.
        disk = FaultyDisk(lose_unsynced_on_crash=True)
        appended = tmp_path / "d" / "f"
        disk.append_file(appended, b"hello")
        disk.sync_file(appended)
        disk.write_file(tmp_path / "d" / "g", b"world")  # ends in a rename
        disk.crash_after_ops = disk.ops
        with pytest.raises(InjectedFault):
            disk.append_file(tmp_path / "d" / "other", b"x")
        assert appended.read_bytes() == b"hello"


class _OpLogDisk(DiskIO):
    """Records the order of durability-relevant calls."""

    def __init__(self):
        self.events = []

    def append_file(self, path, data):
        self.events.append(("append", str(path)))
        super().append_file(path, data)

    def sync_dir(self, path):
        self.events.append(("sync_dir", str(path)))
        super().sync_dir(path)

    def rename(self, src, dst):
        self.events.append(("rename", str(dst)))
        super().rename(src, dst)


class TestWritePathOrdering:
    def test_wal_segment_creation_syncs_its_directory(self, tmp_path):
        disk = _OpLogDisk()
        db = Database.open(str(tmp_path / "db"), disk=disk, durability="per-commit")
        db.sql("CREATE TABLE t (id INT NOT NULL)")
        wal_dir = str(tmp_path / "db" / "wal")
        creation = next(
            i
            for i, (kind, path) in enumerate(disk.events)
            if kind == "append" and "seg_" in path
        )
        dir_sync = next(
            i
            for i, (kind, path) in enumerate(disk.events)
            if kind == "sync_dir" and path == wal_dir and i > creation
        )
        # The new segment's directory entry is synced as part of the
        # append that created the file, before the commit returns.
        assert dir_sync == creation + 1
        db.close()

    def test_snapshot_dir_entry_synced_before_manifest_names_it(self, tmp_path):
        disk = _OpLogDisk()
        db = Database.open(str(tmp_path / "db"), disk=disk)
        db.sql("CREATE TABLE t (id INT NOT NULL)")
        db.sql("INSERT INTO t VALUES (1)")
        db.save(str(tmp_path / "db"), disk=disk)
        db.close()
        root = str(tmp_path / "db")
        root_sync = next(
            i
            for i, (kind, path) in enumerate(disk.events)
            if kind == "sync_dir" and path == root
        )
        manifest = next(
            i
            for i, (kind, path) in enumerate(disk.events)
            if kind == "rename" and path.endswith(MANIFEST_NAME)
        )
        # snap_<id>/'s entry is durable before MANIFEST.json points at it:
        # a crash in between leaves a manifest-less (ignorable) directory,
        # never a manifest naming files the crash unlinked.
        assert root_sync < manifest

    def test_pool_directory_entries_synced_before_manifest_names_a_blob(self, tmp_path):
        disk = _OpLogDisk()
        root = tmp_path / "db"
        db = Database(StoreConfig(rowgroup_size=8, bulk_load_threshold=4))
        db.sql("CREATE TABLE t (id INT NOT NULL)")
        db.bulk_load("t", [(i,) for i in range(8)])
        db.save(str(root), disk=disk)
        events = disk.events
        blob = next(
            i for i, (kind, path) in enumerate(events)
            if kind == "rename" and path.endswith(".seg")
        )
        manifest = next(
            i for i, (kind, path) in enumerate(events)
            if kind == "rename" and path.endswith(MANIFEST_NAME)
        )
        # The blob's rename made its own directory durable; every entry
        # on the way down to that directory is synced after the blob is
        # in place and before the manifest that names it, deepest first.
        synced = [path for kind, path in events[blob:manifest] if kind == "sync_dir"]
        assert synced == [
            str(root / "segments" / "t"),
            str(root / "segments"),
            str(root),
        ]

    def test_committed_statement_survives_dir_entry_loss_model(self, tmp_path):
        # End to end: with the honest power-cut model, a committed
        # statement in a freshly-created segment file survives the crash.
        disk = FaultyDisk(lose_unsynced_on_crash=True)
        db = Database.open(str(tmp_path / "db"), disk=disk, durability="per-commit")
        db.sql("CREATE TABLE t (id INT NOT NULL)")
        db.sql("INSERT INTO t VALUES (42)")
        disk.crash_after_ops = disk.ops
        with pytest.raises(InjectedFault):
            db.sql("INSERT INTO t VALUES (43)")
        del db
        recovered = Database.load(str(tmp_path / "db"))
        rows = [tuple(r) for r in recovered.sql("SELECT id FROM t").rows]
        assert rows == [(42,)]
        recovered.close()
