"""The write-once segment pool: a checkpoint writes what changed.

Exact counters for the property (``storage.snapshot.files_written`` /
``files_reused`` / ``bytes_written`` / ``bytes_checksummed``), the one
garbage-collection rule (what the committed manifest does not name
goes, and only after that manifest was read back), crash and
dropped-rename behaviour around the pool, and refusing what
``format_version`` 1 left behind.
"""

import json
import shutil

import pytest

from repro import Database, StoreConfig
from repro.backup import load_backup_manifest, prepare_backup, restore_backup
from repro.backup.manifest import BACKUP_MANIFEST_NAME, IMAGE_DIR_NAME
from repro.errors import CorruptBlobError, RecoveryError
from repro.observability import MetricsRegistry
from repro.observability.registry import set_registry
from repro.storage.compat import crc32c_scalar
from repro.storage.diskio import DiskIO, FaultyDisk, InjectedFault, crc32
from repro.storage.snapshot import (
    MANIFEST_NAME,
    POOL_DIR_NAME,
    ManifestEntry,
    canonical,
    load_manifest,
)

KV_COLUMNS = 5


@pytest.fixture
def registry():
    reg = MetricsRegistry()
    previous = set_registry(reg)
    yield reg
    set_registry(previous)


def snapshot_counters(registry) -> dict[str, float]:
    names = ("files_written", "files_reused", "bytes_written", "bytes_checksummed")
    return {name: registry.counter(f"storage.snapshot.{name}") for name in names}


def pool_files(root) -> set[str]:
    pool = root / POOL_DIR_NAME
    return {p.relative_to(root).as_posix() for p in pool.rglob("*") if p.is_file()}


def pool_entries(root) -> set[str]:
    manifest = load_manifest(DiskIO(), root)
    return {e.path for e in manifest.files if e.path.startswith(POOL_DIR_NAME + "/")}


def rows_of(db, table="kv") -> list:
    return db.sql(f"SELECT * FROM {table} ORDER BY k").rows


# ---------------------------------------------------------------------- #
# The 100k-row table: 7 row groups x 5 columns = 35 segments
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def kv_directory(tmp_path_factory):
    """A durable 100,000-row ``kv`` table, checkpointed and closed."""
    root = tmp_path_factory.mktemp("pool") / "kv"
    config = StoreConfig(rowgroup_size=16384, bulk_load_threshold=1, delta_close_rows=256)
    db = Database.open(str(root), default_config=config)
    db.sql("CREATE TABLE kv (k INT NOT NULL, grp INT, v INT, price FLOAT, tag VARCHAR)")
    db.bulk_load(
        "kv",
        [(i, i % 97, (i * 7) % 1000, i * 0.25, f"tag{i % 50}") for i in range(100_000)],
    )
    db.save(str(root))
    db.close()
    return root


@pytest.fixture
def kv(kv_directory, tmp_path):
    root = tmp_path / "kv"
    shutil.copytree(kv_directory, root)
    db = Database.open(str(root))
    yield db, root
    db.close()


class TestCheckpointWritesWhatChanged:
    def test_insert_only_checkpoint_rewrites_no_segment(self, kv, registry):
        db, root = kv
        before = pool_entries(root)
        assert len(before) == 35 == len(pool_files(root))
        for i in range(100):
            db.sql(f"INSERT INTO kv VALUES ({1_000_000 + i}, 1, 2, 0.5, 'fresh')")
        db.save(str(root))
        manifest = load_manifest(DiskIO(), root)
        counters = snapshot_counters(registry)
        assert counters["files_reused"] == 35
        # Everything written is one of the fresh files: the open delta
        # store, the delete bitmap, meta.json and catalog.json.
        assert counters["files_written"] == len(manifest.files) - 35 == 4
        assert pool_entries(root) == before == pool_files(root)
        fresh = [e for e in manifest.files if not e.path.startswith(POOL_DIR_NAME)]
        assert all(e.path.startswith(manifest.directory + "/") for e in fresh)
        assert counters["bytes_written"] == sum(e.size for e in fresh)
        assert counters["bytes_checksummed"] == counters["bytes_written"]
        assert counters["bytes_written"] < 16 * 1024  # 100 rows, not 100,000

    def test_tuple_mover_run_writes_one_groups_segments(self, kv, registry):
        """The run writes its group's segments itself (and logs their
        names); the checkpoint after it writes none."""
        db, root = kv
        before = pool_entries(root)
        for start in range(0, 300, 50):  # closes one 256-row delta store
            values = ", ".join(
                f"({2_000_000 + start + i}, 3, 4, 1.5, 'moved')" for i in range(50)
            )
            db.sql(f"INSERT INTO kv VALUES {values}")
        result = db.run_tuple_mover("kv")
        assert result.row_groups_created == 1
        assert registry.counter("storage.wal.blobs_written") == KV_COLUMNS
        db.save(str(root))
        manifest = load_manifest(DiskIO(), root)
        counters = snapshot_counters(registry)
        assert counters["files_reused"] == 35 + KV_COLUMNS
        new_blobs = pool_entries(root) - before
        assert len(new_blobs) == KV_COLUMNS
        assert {name.rsplit("/", 1)[1].split(".")[0] for name in new_blobs} == {"g7"}
        assert counters["files_written"] == len(manifest.files) - 40
        assert pool_files(root) == pool_entries(root) and len(pool_files(root)) == 40

    def test_open_verifies_every_listed_byte(self, kv_directory, tmp_path, registry):
        root = tmp_path / "kv"
        shutil.copytree(kv_directory, root)
        manifest = load_manifest(DiskIO(), root)
        Database.load(str(root)).close()
        assert registry.counter("storage.snapshot.bytes_checksummed") == sum(
            e.size for e in manifest.files
        )
        assert registry.counter("storage.snapshot.files_written") == 0


# ---------------------------------------------------------------------- #
# A small two-table database for re-encoding, crash and layout tests
# ---------------------------------------------------------------------- #
def build_small(root) -> Database:
    config = StoreConfig(rowgroup_size=32, bulk_load_threshold=20, delta_close_rows=16)
    db = Database.open(str(root), default_config=config)
    db.sql("CREATE TABLE kv (k INT NOT NULL, tag VARCHAR, v FLOAT)")
    db.bulk_load("kv", [(i, f"r{i % 3}", 1.5 * i) for i in range(96)])
    db.sql("CREATE TABLE notes (k INT, txt VARCHAR) USING rowstore")
    db.insert("notes", [(1, "alpha"), (2, None)])
    db.save(str(root))
    return db


def mutate(db: Database) -> None:
    """A new row group (20 inserted rows close a 16-row delta store, the
    tuple mover compresses it), deletes, an open delta store, a heap change."""
    for start in range(0, 20, 4):
        values = ", ".join(f"({1000 + start + i}, 'new', 2.5)" for i in range(4))
        db.sql(f"INSERT INTO kv VALUES {values}")
    db.sql("DELETE FROM kv WHERE k < 5")
    db.run_tuple_mover("kv")
    db.insert("notes", [(3, "gamma")])


def state_of(db: Database) -> list:
    return [rows_of(db), db.sql("SELECT * FROM notes ORDER BY k").rows]


@pytest.fixture
def small(tmp_path):
    root = tmp_path / "db"
    db = build_small(root)
    yield db, root
    db.close()


class TestReencodingAndPaths:
    def test_archival_and_rebuild_write_new_blobs_and_old_ones_go(self, small, registry):
        db, root = small
        original = pool_entries(root)
        assert len(original) == 9  # 3 row groups x 3 columns
        expected = rows_of(db)

        db.set_archival("kv", True)  # writes (and logs) the new blobs
        assert registry.counter("storage.wal.blobs_written") == 9
        db.save(str(root))
        archived = pool_entries(root)
        assert snapshot_counters(registry)["files_reused"] == 9
        assert len(archived) == 9 and not (archived & original)
        assert pool_files(root) == archived  # the old blobs are gone

        db.rebuild("kv")
        db.save(str(root))
        rebuilt = pool_entries(root)
        assert not (rebuilt & archived)
        assert pool_files(root) == rebuilt
        assert Database.check(str(root)).ok
        reopened = Database.load(str(root))
        assert rows_of(reopened) == expected
        reopened.close()

    def test_saving_to_a_second_path_writes_everything(self, small, tmp_path, registry):
        db, root = small
        db.insert("notes", [(9, "dirty")])
        db.save(str(root))
        assert snapshot_counters(registry)["files_reused"] == 9
        other = tmp_path / "elsewhere"
        db.save(str(other))
        assert snapshot_counters(registry)["files_reused"] == 9  # none added
        assert len(pool_files(other)) == 9
        # What was remembered belonged to the first path, and is dropped:
        # going back there writes every blob again too.
        db.insert("notes", [(10, "dirtier")])
        db.save(str(root))
        assert snapshot_counters(registry)["files_reused"] == 9
        assert Database.check(str(root)).ok and Database.check(str(other)).ok

    def test_a_root_emptied_behind_our_back_is_written_in_full(self, small, registry):
        db, root = small
        shutil.rmtree(root / POOL_DIR_NAME)
        (root / MANIFEST_NAME).unlink()
        db.save(str(root), force=True)
        assert snapshot_counters(registry)["files_reused"] == 0
        assert Database.check(str(root)).ok

    def test_a_missing_blob_is_rewritten_by_the_next_save(self, small, registry):
        db, root = small
        victim = sorted(pool_files(root))[0]
        (root / victim).unlink()
        report = Database.check(str(root))
        assert not report.ok
        assert [(v.path, v.status) for v in report.verdicts if not v.ok] == [
            (victim, "missing")
        ]
        with pytest.raises(CorruptBlobError, match=victim.rsplit("/", 1)[1]):
            Database.load(str(root))
        db.save(str(root), force=True)
        assert snapshot_counters(registry)["files_reused"] == 8
        assert Database.check(str(root)).ok


    def test_a_same_size_wrong_file_where_a_change_writes_is_replaced(
        self, small, tmp_path, registry
    ):
        """A logged change keeps a blob already at its path only when it
        is the listed bytes, not when its size matches."""
        db, root = small
        expected = rows_of(db)
        # The same change on a copy names the blobs the original will write.
        twin = tmp_path / "twin"
        shutil.copytree(root, twin)
        other = Database.open(str(twin))
        before = pool_files(twin)
        other.set_archival("kv", True)
        written = {path: (twin / path).read_bytes() for path in pool_files(twin) - before}
        other.close()
        assert len(written) == 9
        for path, data in written.items():
            (root / path).parent.mkdir(parents=True, exist_ok=True)
            (root / path).write_bytes(bytes(b ^ 0xFF for b in data))
        blobs_written = registry.counter("storage.wal.blobs_written")
        db.set_archival("kv", True)
        assert registry.counter("storage.wal.blobs_written") - blobs_written == 9
        assert {path: (root / path).read_bytes() for path in written} == written
        db.close()  # no checkpoint: the reopen replays the logged change
        reopened = Database.open(str(root))
        assert rows_of(reopened) == expected
        reopened.close()


class _OpLogDisk(FaultyDisk):
    """Records the write point at which every rename happened."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.renames: list[tuple[int, str]] = []

    def rename(self, src, dst):
        self.renames.append((self.ops, str(dst)))
        super().rename(src, dst)


class TestCrashesAroundThePool:
    def _reopened_and_mutated(self, committed, work) -> Database:
        shutil.rmtree(work, ignore_errors=True)
        shutil.copytree(committed, work)
        db = Database.load(str(work))
        mutate(db)
        return db

    def test_crash_between_last_pool_write_and_manifest_rename(
        self, small, tmp_path, registry
    ):
        """The last pool write is the tuple mover's (the save writes no
        blob): a crash anywhere in the save leaves its blobs named by the
        log, not the manifest, until a checkpoint names them."""
        seeded, committed = small
        state_a = state_of(seeded)
        seeded.close()
        work = tmp_path / "work"

        probe = _OpLogDisk()
        db = self._reopened_and_mutated(committed, work)
        db.save(str(work), disk=probe)
        state_b = state_of(db)
        db.close()
        assert state_b != state_a
        assert not [dst for _op, dst in probe.renames if dst.endswith(".seg")]
        manifest_rename = next(op for op, dst in probe.renames if dst.endswith(MANIFEST_NAME))
        assert manifest_rename == probe.ops - 1

        for crash_at in range(manifest_rename + 1):
            db = self._reopened_and_mutated(committed, work)
            with pytest.raises(InjectedFault):
                db.save(str(work), disk=FaultyDisk(crash_after_ops=crash_at))
            db.close()
            # The mover's blobs are there, named by the log's tail.
            report = Database.check(str(work))
            assert report.ok
            pending = {v.path for v in report.verdicts if v.status == "pending"}
            assert pending == pool_files(work) - pool_entries(work) and len(pending) == 3
            assert not [v for v in report.verdicts if v.status == "orphan"]
            rolled_back = registry.counter("storage.recovery.snapshots_rolled_back")
            # The old snapshot opens, and the log it never truncated
            # replays the statements the lost checkpoint covered.
            reopened = Database.load(str(work))
            assert load_manifest(DiskIO(), work).snapshot_id == 1
            assert state_of(reopened) == state_b
            reopened.close()
            assert pool_files(work) - pool_entries(work) == pending
            assert (
                registry.counter("storage.recovery.snapshots_rolled_back")
                == rolled_back + 1
            )
            assert not list(work.rglob("*.tmp"))
            # Without its log the directory is exactly the old snapshot.
            shutil.rmtree(work / "wal")
            snapshot_only = Database.load(str(work))
            assert state_of(snapshot_only) == state_a
            snapshot_only.close()
            assert pool_files(work) == pool_entries(work)  # no log pins them now

    def test_dropped_manifest_rename_removes_no_blob_of_the_previous_manifest(
        self, small, registry
    ):
        db, root = small
        state_a = state_of(db)
        previous = pool_entries(root)
        # Re-encode every segment: the manifest this save *tries* to
        # commit names none of the previous blobs.
        db.set_archival("kv", True)
        disk = FaultyDisk(drop_rename_of=MANIFEST_NAME)
        db.save(str(root), disk=disk)
        assert disk.dropped_renames == [str(root / MANIFEST_NAME)]
        assert pool_entries(root) == previous  # still the old manifest
        assert previous <= pool_files(root)
        assert Database.check(str(root)).ok
        # Opening what is on disk: the old snapshot (plus, for a durable
        # database, the WAL tail the un-truncated log still holds).
        reopened = Database.load(str(root))
        assert state_of(reopened) == state_a
        reopened.close()
        # The next save that does commit collects them.
        db.save(str(root), force=True)
        assert not (pool_files(root) & previous)
        assert pool_files(root) == pool_entries(root)

    def test_stray_tmp_files_in_pool_and_snapshot_directories_are_collected(
        self, small
    ):
        db, root = small
        db.close()
        manifest = load_manifest(DiskIO(), root)
        strays = [
            root / POOL_DIR_NAME / "kv" / "rowgroups" / "g0.k.00000000.seg.tmp",
            root / manifest.directory / "kv" / "meta.json.tmp",
            root / "MANIFEST.json.tmp",
        ]
        for stray in strays:
            stray.write_bytes(b"torn")
        assert Database.check(str(root)).ok
        Database.load(str(root)).close()
        assert not any(stray.exists() for stray in strays)


# ---------------------------------------------------------------------- #
# format_version 1: everything inside snap_<id>/, paths relative to it
# ---------------------------------------------------------------------- #
def downgrade_to_v1(root) -> None:
    """Rewrite a saved directory into the layout the previous format
    wrote: every file under ``snap_<id>/`` and a version-1 manifest, its
    checksums CRC-32C as that build's were."""
    manifest = load_manifest(DiskIO(), root)
    files = []
    for entry in manifest.files:
        relpath = manifest.relpath_of(entry.path)
        target = root / manifest.directory / relpath
        if target != root / entry.path:
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.move(root / entry.path, target)
        crc = crc32c_scalar(target.read_bytes())
        files.append({"path": relpath, "size": entry.size, "crc32c": f"{crc:08x}"})
    shutil.rmtree(root / POOL_DIR_NAME, ignore_errors=True)
    body = {
        "format_version": 1,
        "snapshot_id": manifest.snapshot_id,
        "directory": manifest.directory,
        "checkpoint_lsn": manifest.checkpoint_lsn,
        "files": files,
    }
    body["manifest_crc32c"] = f"{crc32c_scalar(canonical(body)):08x}"
    (root / MANIFEST_NAME).write_text(json.dumps(body, indent=1, sort_keys=True) + "\n")


class TestVersion1Directories:
    def test_v1_directory_is_refused_naming_the_layout(self, small):
        db, root = small
        db.close()
        downgrade_to_v1(root)
        with pytest.raises(RecoveryError, match="format_version 1"):
            Database.open(str(root))
        report = Database.check(str(root))
        assert not report.ok
        assert report.manifest_status == "corrupt" and "snap_<id>/" in report.detail

    def test_v1_backup_image_restores_but_is_refused_on_open(self, small, tmp_path):
        db, root = small
        db.sql("INSERT INTO kv VALUES (5000, 'tail', 0.5)")  # WAL past the checkpoint
        db.backup(str(tmp_path / "bk"))
        db.close()
        # Turn the image into what the previous format's backup held.
        image = tmp_path / "bk" / IMAGE_DIR_NAME
        manifest = load_manifest(DiskIO(), image)
        downgrade_to_v1(image)
        backup = load_backup_manifest(DiskIO(), tmp_path / "bk")
        relisted = [e for e in backup.files if not e.path.startswith(IMAGE_DIR_NAME + "/")]
        for entry in manifest.files:
            path = f"{manifest.directory}/{manifest.relpath_of(entry.path)}"
            data = (image / path).read_bytes()
            relisted.append(ManifestEntry(f"{IMAGE_DIR_NAME}/{path}", len(data), crc32(data)))
        data = (image / MANIFEST_NAME).read_bytes()
        relisted.append(ManifestEntry(f"{IMAGE_DIR_NAME}/{MANIFEST_NAME}", len(data), crc32(data)))
        backup.files = relisted
        (tmp_path / "bk" / BACKUP_MANIFEST_NAME).write_bytes(backup.to_json())

        restore_backup(tmp_path / "bk", tmp_path / "dest")
        with pytest.raises(RecoveryError, match="format_version 1"):
            Database.load(str(tmp_path / "dest"))


class TestHotBackupBetweenIncrementalCheckpoints:
    def test_restores_bit_identically(self, small, tmp_path, registry):
        db, root = small
        mutate(db)
        db.save(str(root))  # incremental checkpoint 2
        assert snapshot_counters(registry)["files_reused"] == 9 + 3  # the mover's too
        db.sql("INSERT INTO kv VALUES (7000, 'tail', 7.5)")  # WAL tail

        job = prepare_backup(db, tmp_path / "bk")
        expected = state_of(db)
        # Writers and checkpoints keep coming while the copy is pending:
        # the checkpoint is deferred, so nothing the backup's manifest
        # names can be collected under it.
        db.sql("INSERT INTO kv VALUES (7001, 'after the cut', 8.5)")
        db.set_archival("kv", True)  # would orphan every blob the backup names
        db.save(str(root))
        assert registry.counter("backup.checkpoints_deferred") == 1
        captured = load_manifest(DiskIO(), root)
        source_bytes = {e.path: (root / e.path).read_bytes() for e in captured.files}
        job.run()

        db.save(str(root))  # checkpoint 3: now the old blobs do go
        assert not (pool_files(root) & set(source_bytes))

        restore_backup(tmp_path / "bk", tmp_path / "dest")
        dest = tmp_path / "dest"
        assert (dest / MANIFEST_NAME).read_bytes() == captured.to_json()
        for path, data in source_bytes.items():
            assert (dest / path).read_bytes() == data, path
        restored = Database.load(str(dest))
        assert state_of(restored) == expected
        restored.close()
