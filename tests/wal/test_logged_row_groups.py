"""Changes that create compressed row groups log the blobs they wrote.

A bulk load that compresses, the tuple mover, REBUILD and an archival
switch write their segment blobs into the pool (each fsynced, their
directories synced) and then append one ROW_GROUPS record naming them.
Here: the record is small and replay reads the blobs back without
compressing; a crash at every write point of a durable bulk load and of
a tuple-mover run reopens to the state before or after the statement,
and the open collects what the crash orphaned; a rolled-back load leaves
no blob after the next checkpoint; a checkpoint does not collect the
blobs of a statement still writing them.
"""

from __future__ import annotations

import threading
from pathlib import Path

import pytest

from repro import Database, StoreConfig
from repro.concurrency import ConcurrentDatabase
from repro.storage import persist
from repro.storage.diskio import DiskIO, FaultyDisk, InjectedFault
from repro.storage.loader import BulkLoader
from repro.storage.snapshot import POOL_DIR_NAME, load_manifest
from repro.wal.log import WAL_DIR_NAME, log_records, read_log
from repro.wal.record import WalRecordType, logged_blobs, scan_segment

CONFIG = StoreConfig(rowgroup_size=64, bulk_load_threshold=16, delta_close_rows=16)
CREATE = "CREATE TABLE t (k INT NOT NULL, tag VARCHAR, v FLOAT)"
LOAD = [(i, f"tag{i % 5}", i * 0.5) for i in range(150)]  # 3 row groups
TRICKLE = [(1000 + i, "late", -0.0 if i % 3 else 1.25) for i in range(20)]  # a closed delta


def pool_files(root: Path) -> set[str]:
    return {p.relative_to(root).as_posix() for p in (root / POOL_DIR_NAME).rglob("*") if p.is_file()}


def manifest_paths(root: Path) -> set[str]:
    manifest = load_manifest(DiskIO(), root)
    return set() if manifest is None else {entry.path for entry in manifest.files}


def records(root: Path, rtype: WalRecordType) -> list:
    found = []
    for path in sorted((root / WAL_DIR_NAME).glob("seg_*.wal")):
        scan = scan_segment(path.read_bytes(), int(path.stem.split("_")[1]))
        found += [record for record in scan.records if record.rtype is rtype]
    return found


def state(db: Database) -> tuple:
    index = db.table("t").columnstore
    rows = db.sql("SELECT k, tag, v FROM t").rows
    return sorted(rows, key=repr), index.delta_rows, len(index.directory)


def open_db(root: Path, disk=None) -> Database:
    return Database.open(str(root), disk=disk, durability="per-commit", default_config=CONFIG)


# ---------------------------------------------------------------------- #
# The record and its replay
# ---------------------------------------------------------------------- #
def test_a_load_logs_the_blobs_it_wrote_and_replay_installs_them(tmp_path, monkeypatch):
    root = tmp_path / "db"
    db = open_db(root)
    db.sql(CREATE)
    db.bulk_load("t", LOAD)
    want = state(db)
    db.close()
    [record] = records(root, WalRecordType.ROW_GROUPS)
    assert not records(root, WalRecordType.BULK_LOAD)
    blobs = logged_blobs([record])
    assert len(blobs) == 3 * 3 and set(blobs) == pool_files(root)

    def no_compressing(*_args, **_kwargs):
        raise AssertionError("replay compressed")

    monkeypatch.setattr(BulkLoader, "compress", no_compressing)
    reopened = open_db(root)
    assert state(reopened) == want
    monkeypatch.undo()
    rows = [reopened.table("t").schema.coerce_row(row) for row in LOAD]
    assert len(record.payload) < len(persist.serialize_rows(reopened.table("t").schema, rows)) / 2
    reopened.save(str(root))  # the checkpoint writes no segment again
    assert pool_files(root) == set(blobs) <= manifest_paths(root)
    reopened.close()


@pytest.mark.parametrize("change", ["mover", "rebuild", "archival on", "archival off"])
def test_maintenance_replays_from_its_blobs(tmp_path, monkeypatch, change):
    root = tmp_path / "db"
    db = open_db(root)
    db.sql(CREATE)
    db.bulk_load("t", LOAD)
    db.insert("t", TRICKLE)
    db.sql("DELETE FROM t WHERE k % 7 = 0")
    if change == "archival off":
        db.set_archival("t", True)
    db.save(str(root))
    {
        "mover": lambda: db.run_tuple_mover("t"),
        "rebuild": lambda: db.rebuild("t"),
        "archival on": lambda: db.set_archival("t", True),
        "archival off": lambda: db.set_archival("t", False),
    }[change]()
    want = state(db)
    db.close()
    monkeypatch.setattr(BulkLoader, "compress", lambda *a, **k: pytest.fail("replay compressed"))
    reopened = open_db(root)
    assert state(reopened) == want
    reopened.close()


# ---------------------------------------------------------------------- #
# A crash at every write point
# ---------------------------------------------------------------------- #
def _prepare(root: Path, disk: FaultyDisk, statement: str) -> Database:
    db = open_db(root, disk)
    db.sql(CREATE)
    if statement == "mover":
        db.bulk_load("t", LOAD)
        db.save(str(root), disk=disk)
        db.insert("t", TRICKLE)
    return db


def _run(db: Database, statement: str) -> None:
    if statement == "load":
        db.bulk_load("t", LOAD)
    else:
        db.run_tuple_mover("t")


def _expected(tmp_path: Path, statement: str) -> tuple[tuple, tuple, int]:
    """States before and after the statement, and its write points."""
    disk = FaultyDisk(lose_unsynced_on_crash=True)
    db = _prepare(tmp_path / "probe", disk, statement)
    before, start = state(db), disk.ops
    _run(db, statement)
    after, ops = state(db), disk.ops - start
    db.close()
    assert before != after
    return before, after, ops


@pytest.mark.parametrize("statement", ["load", "mover"])
def test_a_crash_at_every_write_point_recovers_before_or_after(tmp_path, statement):
    before, after, ops = _expected(tmp_path, statement)
    # Blob writes (content + rename each), the directory syncs, the
    # record's append and its fsync.
    assert ops >= 2 * 3 + 2
    outcomes = set()
    for crash_at in range(ops + 1):
        root = tmp_path / f"crash{crash_at}"
        disk = FaultyDisk(lose_unsynced_on_crash=True)
        db = _prepare(root, disk, statement)
        disk.crash_after_ops = disk.ops + crash_at
        try:
            _run(db, statement)
        except InjectedFault:
            pass
        else:
            assert crash_at == ops
        recovered = open_db(root)
        got = state(recovered)
        assert got in (before, after), crash_at
        outcomes.add(got == after)
        recovered.close()
        # The open collected every blob the crash orphaned: what the pool
        # holds, the manifest or the log names.
        named = manifest_paths(root) | set(logged_blobs(log_records(read_log(DiskIO(), root / WAL_DIR_NAME))))
        assert pool_files(root) <= named, crash_at
        assert not list(root.rglob("*.tmp"))
        assert Database.check(str(root)).ok
    assert outcomes == {False, True}


# ---------------------------------------------------------------------- #
# Garbage collection
# ---------------------------------------------------------------------- #
def test_a_rolled_back_load_leaves_no_blob_after_the_next_checkpoint(tmp_path):
    root = tmp_path / "db"
    db = open_db(root)
    db.sql(CREATE)
    db.save(str(root))
    db.begin()
    db.bulk_load("t", LOAD)
    written = pool_files(root)
    assert len(written) == 9
    db.rollback()
    assert db.sql("SELECT COUNT(*) FROM t").scalar() == 0
    db.save(str(root), force=True)
    assert pool_files(root) == set()
    db.close()
    reopened = open_db(root)
    assert reopened.sql("SELECT COUNT(*) FROM t").scalar() == 0
    reopened.close()


def test_a_checkpoint_waits_for_a_load_in_another_sessions_transaction(tmp_path):
    root = tmp_path / "db"
    cdb = ConcurrentDatabase(open_db(root))
    writer, other = cdb.session("writer"), cdb.session("other")
    writer.sql(CREATE)
    writer.sql("BEGIN")
    cdb.db.bulk_load("t", LOAD)  # inside the writer's transaction
    saved = threading.Event()
    checkpoint = threading.Thread(target=lambda: (cdb.save(str(root)), saved.set()))
    checkpoint.start()
    try:
        assert not saved.wait(0.3)  # the transaction holds the write lock
        assert pool_files(root) and other.sql("SELECT COUNT(*) FROM t").scalar() == 0
    finally:
        writer.sql("COMMIT")
        checkpoint.join(10)
    assert saved.is_set() and not checkpoint.is_alive()
    assert pool_files(root) <= manifest_paths(root) and len(pool_files(root)) == 9
    cdb.close()
    reopened = open_db(root)
    assert reopened.sql("SELECT COUNT(*) FROM t").scalar() == len(LOAD)
    reopened.close()


class _PausingDisk(DiskIO):
    """Holds the second pool blob write until released."""

    def __init__(self) -> None:
        self.blobs = 0
        self.paused, self.release = threading.Event(), threading.Event()

    def _write_bytes(self, path, data):
        if POOL_DIR_NAME in Path(path).parts and WAL_DIR_NAME not in Path(path).parts:
            self.blobs += 1
            if self.blobs == 2:
                self.paused.set()
                assert self.release.wait(10)
        super()._write_bytes(path, data)


def test_a_checkpoint_keeps_the_blobs_a_statement_is_writing(tmp_path):
    root = tmp_path / "db"
    disk = _PausingDisk()
    cdb = ConcurrentDatabase(open_db(root, disk))
    cdb.sql(CREATE)
    cdb.sql("CREATE TABLE other (k INT)")
    # Bulk loads run on the engine directly, beside the sessions' locks.
    load = threading.Thread(target=lambda: cdb.db.bulk_load("t", LOAD))
    load.start()
    try:
        assert disk.paused.wait(10)
        cdb.sql("INSERT INTO other VALUES (1)")
        cdb.save(str(root))  # collects the pool while the load is writing
        assert len(pool_files(root)) == 1  # the blob written so far stayed
    finally:
        disk.release.set()
        load.join(10)
    assert not load.is_alive()
    cdb.close()
    reopened = open_db(root)
    assert reopened.sql("SELECT COUNT(*) FROM t").scalar() == len(LOAD)
    reopened.close()


class _FailingDisk(DiskIO):
    """Fails the second pool blob write with an I/O error; records the
    directories it syncs."""

    def __init__(self) -> None:
        self.blobs = 0
        self.synced: list[Path] = []

    def _write_bytes(self, path, data):
        if POOL_DIR_NAME in Path(path).parts:
            self.blobs += 1
            if self.blobs == 2:
                raise OSError("no space left on device")
        super()._write_bytes(path, data)

    def sync_dir(self, path):
        self.synced.append(Path(path))
        super().sync_dir(path)


def test_a_load_whose_blob_write_fails_leaves_nothing_pinned(tmp_path):
    root = tmp_path / "db"
    disk = _FailingDisk()
    db = open_db(root, disk)
    db.sql(CREATE)
    with pytest.raises(OSError, match="no space"):
        db.bulk_load("t", LOAD)
    # The directories leading to the blobs were made durable before the
    # first blob went in, so the next load need not sync them again.
    resolved = root.resolve()
    assert {resolved / POOL_DIR_NAME / "t", resolved / POOL_DIR_NAME, resolved} <= {
        path.resolve() for path in disk.synced
    }
    assert len(pool_files(root)) == 1  # the blob written before the failure
    db.save(str(root))  # the failed statement pins nothing: it is collected
    assert pool_files(root) == set()
    assert db.sql("SELECT COUNT(*) FROM t").scalar() == 0
    db.bulk_load("t", LOAD)  # the third write onwards succeeds
    db.close()
    reopened = open_db(root)
    assert reopened.sql("SELECT COUNT(*) FROM t").scalar() == len(LOAD)
    reopened.close()


def test_creating_a_database_collects_nothing_already_in_the_directory(tmp_path):
    """Only a directory that holds a database is collected at open."""
    stray = tmp_path / POOL_DIR_NAME / "notes.txt"
    stray.parent.mkdir()
    stray.write_text("not ours")
    db = open_db(tmp_path)
    db.sql(CREATE)
    db.close()
    assert stray.read_text() == "not ours"
