"""Crash-consistency suite for the snapshot persistence protocol.

Drives :meth:`Database.save` through a :class:`FaultyDisk` that simulates
a crash at *every* write point (every file write and every rename), then
reopens the directory and asserts — by full table scans — that the
database is *exactly* the pre-save or post-save state, never a hybrid.
Also exercises torn writes, silently dropped renames, single-byte on-disk
corruption (every manifest-listed file must be detected by name), bit
flips on read, recovery metrics, and stale-file garbage collection.

``REPRO_FAULT_SEED`` (CI matrix) seeds the randomized choices: torn-write
lengths and corruption offsets/bits, so different runs exercise different
byte positions without losing determinism within a run.
"""

import os
import random
import shutil

import pytest

from repro import Database, StoreConfig
from repro.cli import Shell
from repro.errors import CorruptBlobError, RecoveryError, StorageError
from repro.observability import MetricsRegistry
from repro.observability.registry import set_registry
from repro.storage.diskio import DiskIO, FaultyDisk, InjectedFault
from repro.storage.snapshot import FORMAT_NAME, MANIFEST_NAME, load_manifest

SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))

_QUERIES = (
    "SELECT * FROM sales ORDER BY id",
    "SELECT COUNT(*) AS n FROM sales",
    "SELECT region, COUNT(*) AS n FROM sales GROUP BY region ORDER BY region",
    "SELECT * FROM notes ORDER BY k",
)


def build_db() -> Database:
    """State A: mixed rowgroups + open/closed deltas + deletes + rowstore."""
    db = Database(
        StoreConfig(rowgroup_size=32, bulk_load_threshold=20, delta_close_rows=16)
    )
    db.sql("CREATE TABLE sales (id INT NOT NULL, region VARCHAR, amount FLOAT)")
    db.bulk_load("sales", [(i, f"r{i % 3}", 1.5 * i) for i in range(80)])
    db.insert("sales", [(1000 + i, "fresh", 9.9) for i in range(8)])
    db.sql("DELETE FROM sales WHERE id < 4")
    db.sql("CREATE TABLE notes (k INT, txt VARCHAR) USING rowstore")
    db.insert("notes", [(1, "alpha"), (2, None), (3, "gamma")])
    db.table("notes").create_index("by_k", ["k"])
    return db


def mutate(db: Database) -> None:
    """State A -> state B: changes every persisted file family."""
    db.sql("INSERT INTO sales VALUES (2000, 'newer', 1.0), (2001, 'newer', 2.0)")
    db.sql("DELETE FROM sales WHERE region = 'r0'")
    db.run_tuple_mover("sales", include_open=True)  # reshapes deltas/rowgroups
    db.insert("sales", [(3000, "post-mover", 4.2)])
    db.insert("notes", [(4, "delta")])


def state_of(db: Database) -> list:
    return [db.sql(query).rows for query in _QUERIES]


def count_save_ops(db: Database, target, scratch) -> int:
    """Write points of a save over a copy of ``target``: what the sweep
    crashes (a save that makes its directory also syncs the parent)."""
    probe = scratch / "op-probe"
    shutil.copytree(target, probe)
    disk = FaultyDisk()
    db.save(str(probe), disk=disk)
    return disk.ops


@pytest.fixture
def saved(tmp_path):
    """(db at state B, target dir committed at state A, state_a, state_b)."""
    db = build_db()
    target = tmp_path / "db"
    db.save(str(target))
    state_a = state_of(db)
    mutate(db)
    state_b = state_of(db)
    assert state_a != state_b
    return db, target, state_a, state_b


class TestCrashAtEveryWritePoint:
    def _sweep(self, saved, tmp_path, torn_bytes_for):
        db, target, state_a, state_b = saved
        total = count_save_ops(db, target, tmp_path)
        assert total >= 20, "expected a multi-file save to exercise"
        for crash_at in range(total):
            workdir = tmp_path / "crash"
            shutil.copytree(target, workdir)
            disk = FaultyDisk(
                crash_after_ops=crash_at, torn_write_bytes=torn_bytes_for(crash_at)
            )
            with pytest.raises(InjectedFault):
                db.save(str(workdir), disk=disk)
            # The crashed directory still verifies: the committed
            # snapshot is untouched.
            assert Database.check(str(workdir)).ok
            observed = state_of(Database.load(str(workdir)))
            assert observed in (state_a, state_b), (
                f"hybrid database state after crash at write point "
                f"{crash_at}/{total}"
            )
            # Crashes strictly before the manifest rename must yield the
            # pre-save state (the rename is the one and only commit point).
            assert observed == state_a
            shutil.rmtree(workdir)
        # The uninterrupted save yields exactly the post-save state.
        db.save(str(target), disk=FaultyDisk(crash_after_ops=total + 1))
        assert state_of(Database.load(str(target))) == state_b

    def test_clean_crash_every_point(self, saved, tmp_path):
        self._sweep(saved, tmp_path, torn_bytes_for=lambda _: None)

    def test_torn_write_crash_every_point(self, saved, tmp_path):
        rng = random.Random(SEED)
        self._sweep(saved, tmp_path, torn_bytes_for=lambda _: rng.randrange(1, 64))

    def test_load_rolls_back_interrupted_snapshot(self, saved, tmp_path):
        db, target, state_a, _ = saved
        workdir = tmp_path / "interrupted"
        shutil.copytree(target, workdir)
        with pytest.raises(InjectedFault):
            db.save(str(workdir), disk=FaultyDisk(crash_after_ops=5))
        snap_dirs = [p.name for p in workdir.iterdir() if p.name.startswith("snap_")]
        assert len(snap_dirs) == 2  # committed + interrupted
        assert state_of(Database.load(str(workdir))) == state_a
        # Recovery garbage-collected the interrupted snapshot directory.
        snap_dirs = [p.name for p in workdir.iterdir() if p.name.startswith("snap_")]
        assert snap_dirs == ["snap_000001"]


class TestDroppedRenames:
    def test_dropped_data_rename_detected_at_load(self, saved, tmp_path):
        db, target, _, _ = saved
        disk = FaultyDisk(drop_rename_of=".seg")
        db.save(str(target), disk=disk)  # "succeeds" with lost renames
        assert disk.dropped_renames
        with pytest.raises(StorageError) as excinfo:
            Database.load(str(target))
        assert ".seg" in str(excinfo.value)
        report = Database.check(str(target))
        assert not report.ok
        assert any(v.status == "missing" for v in report.verdicts)

    def test_dropped_manifest_rename_keeps_presave_state(self, saved, tmp_path):
        db, target, state_a, _ = saved
        disk = FaultyDisk(drop_rename_of=MANIFEST_NAME)
        db.save(str(target), disk=disk)
        assert disk.dropped_renames == [str(target / MANIFEST_NAME)]
        manifest = load_manifest(DiskIO(), target)
        assert manifest is not None and manifest.snapshot_id == 1
        assert state_of(Database.load(str(target))) == state_a


class TestOnDiskCorruption:
    def test_every_manifest_file_detects_single_byte_flip(self, saved, tmp_path):
        """For every file the manifest lists, a one-byte corruption at
        seeded offsets (always including first and last byte) is detected
        at both load and check time, with the offending path named."""
        db, target, _, _ = saved
        db.save(str(target))
        manifest = load_manifest(DiskIO(), target)
        assert manifest is not None and len(manifest.files) >= 10
        rng = random.Random(SEED)
        for entry in manifest.files:
            path = target / entry.path
            pristine = path.read_bytes()
            offsets = {0, entry.size - 1, rng.randrange(entry.size)}
            for offset in offsets:
                corrupted = bytearray(pristine)
                corrupted[offset] ^= 1 << rng.randrange(8)
                path.write_bytes(bytes(corrupted))
                with pytest.raises(StorageError) as excinfo:
                    Database.load(str(target))
                assert entry.path in str(excinfo.value).replace(os.sep, "/")
                report = Database.check(str(target))
                assert not report.ok
                bad = [v for v in report.verdicts if not v.ok]
                assert [v.path for v in bad] == [entry.path]
                assert bad[0].status in ("checksum-mismatch", "size-mismatch")
            path.write_bytes(pristine)
        assert Database.check(str(target)).ok  # restored clean

    def test_corrupt_manifest_is_detected(self, saved, tmp_path):
        db, target, _, _ = saved
        manifest_path = target / MANIFEST_NAME
        data = bytearray(manifest_path.read_bytes())
        data[len(data) // 2] ^= 0x10
        manifest_path.write_bytes(bytes(data))
        with pytest.raises(StorageError):
            Database.load(str(target))
        assert Database.check(str(target)).manifest_status == "corrupt"

    def test_truncated_file_detected(self, saved, tmp_path):
        db, target, _, _ = saved
        manifest = load_manifest(DiskIO(), target)
        entry = next(e for e in manifest.files if e.path.endswith(".rows"))
        path = target / entry.path
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(StorageError, match="size mismatch"):
            Database.load(str(target))

    def test_bit_flip_on_read_detected(self, saved, tmp_path):
        _, target, _, _ = saved
        rng = random.Random(SEED)
        disk = FaultyDisk(flip_bit_on_read=(".seg", rng.randrange(1 << 16), rng.randrange(8)))
        with pytest.raises(CorruptBlobError, match=r"\.seg"):
            Database.load(str(target), disk=disk)


class TestRecoveryObservability:
    def test_counters_report_verification_and_rollback(self, saved, tmp_path):
        db, target, state_a, _ = saved
        with pytest.raises(InjectedFault):
            db.save(str(target), disk=FaultyDisk(crash_after_ops=3))
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            Database.load(str(target))
        finally:
            set_registry(previous)
        manifest = load_manifest(DiskIO(), target)
        assert registry.counter("storage.recovery.files_verified") == len(
            manifest.files
        )
        assert registry.counter("storage.recovery.checksum_failures") == 0
        assert registry.counter("storage.recovery.snapshots_rolled_back") == 1

    def test_checksum_failure_counter(self, saved, tmp_path):
        _, target, _, _ = saved
        manifest = load_manifest(DiskIO(), target)
        path = target / manifest.files[0].path
        data = bytearray(path.read_bytes())
        data[0] ^= 1
        path.write_bytes(bytes(data))
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            with pytest.raises(StorageError):
                Database.load(str(target))
        finally:
            set_registry(previous)
        assert registry.counter("storage.recovery.checksum_failures") == 1


class TestStaleFileCollection:
    def test_resave_leaves_no_orphan_files(self, saved, tmp_path):
        """Re-saving after the tuple mover merged deltas must not leave
        orphaned delta_*.rows / g*.seg files from the previous save."""
        db, target, _, state_b = saved
        db.save(str(target))
        manifest = load_manifest(DiskIO(), target)
        on_disk = {
            p.relative_to(target).as_posix()
            for p in target.rglob("*")
            if p.is_file()
        }
        listed = {e.path for e in manifest.files}
        assert on_disk == listed | {MANIFEST_NAME, FORMAT_NAME}
        # The old snapshot (with its pre-mover delta files) is gone.
        assert not (target / "snap_000001").exists()
        assert state_of(Database.load(str(target))) == state_b


class TestLegacyLayout:
    def test_pre_manifest_directory_is_refused(self, saved, tmp_path):
        """Directories written before the snapshot protocol (data files at
        the root, no manifest) have no checksums: loading one is refused
        with an error that names the layout, not read unverified."""
        db, target, state_a, _ = saved
        legacy = tmp_path / "legacy"
        shutil.copytree(target / "snap_000001", legacy)
        assert (legacy / "catalog.json").exists()
        with pytest.raises(RecoveryError, match="pre-manifest layout"):
            Database.load(str(legacy))
        with pytest.raises(RecoveryError, match="pre-manifest layout"):
            Database.open(str(legacy))  # nor silently started over

    def test_empty_directory_is_recovery_error(self, tmp_path):
        (tmp_path / "void").mkdir()
        with pytest.raises(RecoveryError, match="no database"):
            Database.load(str(tmp_path / "void"))


class TestCheckCommand:
    def test_shell_check_meta_command(self, saved, tmp_path):
        _, target, _, _ = saved
        shell = Shell()
        out = shell.run_meta(f"\\check {target}")
        assert any("result: ok" in line for line in out)
        assert shell.run_meta("\\check") == ["usage: \\check <directory>"]

    def test_cli_check_exit_codes(self, saved, tmp_path, capsys):
        from repro.cli import main

        _, target, _, _ = saved
        assert main(["check", str(target)]) == 0
        assert "result: ok" in capsys.readouterr().out
        manifest = load_manifest(DiskIO(), target)
        victim = target / manifest.files[0].path
        data = bytearray(victim.read_bytes())
        data[0] ^= 0xFF
        victim.write_bytes(bytes(data))
        assert main(["check", str(target)]) == 1
        assert "FAILED" in capsys.readouterr().out
        assert main(["check"]) == 2
