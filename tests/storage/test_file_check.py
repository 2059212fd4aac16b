"""One check holds a listed file to its manifest entry, and one envelope
writes and reads every manifest.

A snapshot manifest, a backup manifest and a log's ROW_GROUPS records
all name files by path, size and CRC-32. Open, ``repro check`` (the
snapshot, pending pool blobs and archived blobs), the backup copy and
its read-back, restore and replay hold a file to its entry through
``snapshot.check_file``, so they agree on what is damaged and say how.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro import Database, StoreConfig
from repro.backup import ARCHIVE_DIR_NAME, restore_backup
from repro.backup.manifest import BackupManifest, load_backup_manifest
from repro.errors import BackupError, RestoreError
from repro.storage import compat
from repro.storage.diskio import DiskIO
from repro.storage.snapshot import (
    FileVerdict,
    POOL_DIR_NAME,
    Manifest,
    ManifestEntry,
    canonical,
    check_file,
    load_manifest,
)

OLD_FORMAT = Path(__file__).parent / "old_format"


class CountingDisk(DiskIO):
    """A disk that counts the reads of each file."""

    def __init__(self) -> None:
        super().__init__()
        self.reads: dict[Path, int] = {}

    def read_file(self, path):
        self.reads[Path(path)] = self.reads.get(Path(path), 0) + 1
        return super().read_file(path)


def _flip(path: Path, offset: int | None = None) -> None:
    data = bytearray(path.read_bytes())
    data[len(data) // 2 if offset is None else offset] ^= 0x10
    path.write_bytes(bytes(data))


# ---------------------------------------------------------------------- #
# The three callers that disagreed
# ---------------------------------------------------------------------- #
@pytest.fixture
def archive_only(tmp_path):
    """A backup of the empty table, then a 3,000-row load that a REBUILD
    replaces: the load's blobs are left only in the archive."""
    root = tmp_path / "db"
    db = Database.open(str(root), default_config=StoreConfig(bulk_load_threshold=100))
    db.sql("CREATE TABLE t (k INT NOT NULL, v INT)")
    db.save(str(root))
    db.backup(str(tmp_path / "bk"))
    db.bulk_load("t", [(i, i % 7) for i in range(3_000)])
    db.save(str(root))
    db.rebuild("t")
    db.save(str(root))
    db.close()
    live = {p.relative_to(root).as_posix() for p in (root / POOL_DIR_NAME).rglob("*.seg")}
    archive = root / ARCHIVE_DIR_NAME
    only = sorted(
        p.relative_to(archive).as_posix()
        for p in (archive / POOL_DIR_NAME).rglob("*.seg")
        if p.relative_to(archive).as_posix() not in live
    )
    assert only
    return root, tmp_path / "bk", only[0]


def test_repro_check_checksums_an_archive_only_blob(archive_only, tmp_path):
    root, backup, victim = archive_only
    assert Database.check(str(root)).ok
    blob = root / ARCHIVE_DIR_NAME / victim
    data = blob.read_bytes()
    blob.unlink()  # the archive's name was a hard link to the pool's inode
    blob.write_bytes(data)
    _flip(blob)
    report = Database.check(str(root))
    assert not report.ok
    bad = [v for v in report.archive_verdicts if not v.ok]
    assert [(v.segment, v.status) for v in bad] == [(victim, "checksum-mismatch")]
    assert report.render()[-1].startswith("result: FAILED")
    with pytest.raises(RestoreError, match=r"checksum mismatch"):
        restore_backup(backup, tmp_path / "out", archive=root / ARCHIVE_DIR_NAME)


def test_restore_reads_each_image_file_once(tmp_path):
    root = tmp_path / "db"
    db = Database.open(str(root), default_config=StoreConfig(bulk_load_threshold=10))
    db.sql("CREATE TABLE t (k INT NOT NULL, v VARCHAR)")
    db.bulk_load("t", [(i, f"v{i % 3}") for i in range(40)])
    db.save(str(root))
    db.insert("t", [(99, "after")])
    db.backup(str(tmp_path / "bk"))
    db.close()
    disk = CountingDisk()
    restore_backup(tmp_path / "bk", tmp_path / "out", disk=disk)
    image = [e.path for e in load_backup_manifest(DiskIO(), tmp_path / "bk").files]
    image = [p for p in image if p.startswith("image/")]
    assert image
    assert {p: disk.reads.get(tmp_path / "bk" / p, 0) for p in image} == {p: 1 for p in image}
    db = Database.open(str(tmp_path / "out"))
    assert db.sql("SELECT COUNT(*) FROM t").rows == [(41,)]
    db.close()


def test_a_backup_of_a_source_missing_a_listed_file_names_it(tmp_path):
    root = tmp_path / "db"
    db = Database.open(str(root))
    db.sql("CREATE TABLE t (k INT)")
    db.insert("t", [(1,)])
    db.save(str(root))
    listed = next(
        e.path for e in load_manifest(DiskIO(), root).files if e.path.endswith("catalog.json")
    )
    (root / listed).unlink()
    with pytest.raises(BackupError, match=rf"{listed} failed verification \[missing\]"):
        db.backup(str(tmp_path / "bk"))
    db.close()


# ---------------------------------------------------------------------- #
# The one check
# ---------------------------------------------------------------------- #
def test_check_file_statuses(tmp_path):
    data = b"segment bytes"
    (tmp_path / "f").write_bytes(data)
    entry = ManifestEntry.of("f", data)
    assert check_file(DiskIO(), tmp_path, entry) == (data, FileVerdict("f", "ok"))
    assert check_file(DiskIO(), tmp_path, ManifestEntry.of("g", data)) == (
        None,
        FileVerdict("g", "missing"),
    )
    found, short = check_file(DiskIO(), tmp_path, ManifestEntry("f", len(data) + 1, entry.crc))
    assert (found, short.status) == (None, "size-mismatch")
    assert str(short) == f"size mismatch (expected {len(data) + 1} bytes, found {len(data)})"
    _flip(tmp_path / "f")
    found, flipped = check_file(DiskIO(), tmp_path, entry)
    assert (found, flipped.status, str(flipped)) == (None, "checksum-mismatch", "checksum mismatch")


def test_replay_names_the_problem_with_a_logged_blob(tmp_path):
    root = tmp_path / "db"
    db = Database.open(str(root), default_config=StoreConfig(bulk_load_threshold=10))
    db.sql("CREATE TABLE t (k INT NOT NULL)")
    db.bulk_load("t", [(i,) for i in range(40)])
    db.close()
    blob = next((root / POOL_DIR_NAME).rglob("*.seg"))
    _flip(blob)
    with pytest.raises(Exception, match=r"logged blob failed verification \[checksum mismatch\]"):
        Database.open(str(root))
    blob.unlink()
    with pytest.raises(Exception, match=r"logged blob failed verification \[missing\]"):
        Database.open(str(root))


# ---------------------------------------------------------------------- #
# The one envelope
# ---------------------------------------------------------------------- #
MANIFEST_BYTES = (
    b'{\n "checkpoint_lsn": 12,\n "files": [\n  {\n   "crc32": "0000dead",\n'
    b'   "path": "snap_000007/catalog.json",\n   "size": 3\n  },\n  {\n'
    b'   "crc32": "89abcdef",\n   "path": "segments/t/rowgroups/g0.a.89abcdef.seg",\n'
    b'   "size": 4096\n  }\n ],\n "format_version": 3,\n "manifest_crc32": "ff9d402f",\n'
    b' "snapshot_id": 7\n}\n'
)
BACKUP_BYTES = (
    b'{\n "backup_lsn": 5,\n "checkpoint_lsn": 3,\n "epoch": null,\n "files": [\n  {\n'
    b'   "crc32": "00000002",\n   "path": "image/MANIFEST.json",\n   "size": 1\n  }\n ],\n'
    b' "format_version": 1,\n "manifest_crc32": "be158b31",\n "snapshot_id": 2\n}\n'
)


def _manifest() -> Manifest:
    return Manifest(
        snapshot_id=7,
        files=[
            ManifestEntry("snap_000007/catalog.json", 3, 0xDEAD),
            ManifestEntry("segments/t/rowgroups/g0.a.89abcdef.seg", 4096, 0x89ABCDEF),
        ],
        checkpoint_lsn=12,
    )


def _backup_manifest() -> BackupManifest:
    return BackupManifest(
        backup_lsn=5,
        checkpoint_lsn=3,
        snapshot_id=2,
        epoch=None,
        files=[ManifestEntry("image/MANIFEST.json", 1, 2)],
    )


def test_manifest_bytes_are_pinned():
    assert _manifest().to_json() == MANIFEST_BYTES
    assert Manifest.from_json(MANIFEST_BYTES, "m") == _manifest()


def test_backup_manifest_bytes_are_pinned():
    assert _backup_manifest().to_json() == BACKUP_BYTES
    assert BackupManifest.from_json(BACKUP_BYTES, "b") == _backup_manifest()


def _as_listed(manifest) -> tuple:
    """A manifest's fields, its entries as (path, size, checksum)."""
    entries = [(e.path, e.size, e.crc) for e in manifest.files]
    return (dataclasses.replace(manifest, files=[]), entries)


def _crc32c_sealed(body: dict) -> bytes:
    """``body`` as an earlier build wrote it: every entry's checksum and
    its own under the CRC-32C keys."""
    body = {**body, "files": [{"crc32c": e.pop("crc32"), **e} for e in body["files"]]}
    body["manifest_crc32c"] = f"{compat.crc32c_scalar(canonical(body)):08x}"
    return (json.dumps(body, indent=1, sort_keys=True) + "\n").encode("utf-8")


def test_crc32c_sealed_manifests_read_back_through_compat(tmp_path):
    snapshot_body = json.loads(MANIFEST_BYTES)
    del snapshot_body["manifest_crc32"]
    snapshot_body["format_version"] = 2
    manifest = compat.read_manifest(_crc32c_sealed(snapshot_body), "m")
    assert _as_listed(manifest) == _as_listed(_manifest())
    assert all(isinstance(e, compat.Crc32cEntry) for e in manifest.files)

    backup_body = json.loads(BACKUP_BYTES)
    del backup_body["manifest_crc32"]
    (tmp_path / "BACKUP_MANIFEST.json").write_bytes(_crc32c_sealed(backup_body))
    backup = compat.load_backup_manifest(DiskIO(), tmp_path)
    assert _as_listed(backup) == _as_listed(_backup_manifest())
    assert all(isinstance(e, compat.Crc32cEntry) for e in backup.files)
    with pytest.raises(BackupError, match="unreadable backup manifest"):
        load_backup_manifest(DiskIO(), tmp_path)  # this build's reader takes CRC-32 only


def test_the_old_format_backup_is_crc32c_sealed_and_verifies():
    raw = json.loads((OLD_FORMAT / "backup" / "BACKUP_MANIFEST.json").read_text())
    assert "manifest_crc32c" in raw and all("crc32c" in e for e in raw["files"])
    manifest = compat.load_backup_manifest(DiskIO(), OLD_FORMAT / "backup")
    assert manifest.files and all(isinstance(e, compat.Crc32cEntry) for e in manifest.files)
    assert all(
        check_file(DiskIO(), OLD_FORMAT / "backup", entry)[1].status == "ok"
        for entry in manifest.files
    )
