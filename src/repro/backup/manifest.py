"""The backup image format: layout constants and the commit record.

A backup directory looks like::

    <dest>/BACKUP_MANIFEST.json     the commit record (atomic rename, last)
    <dest>/image/MANIFEST.json      verbatim copy of the source manifest
    <dest>/image/<path>             every file that manifest names, at
                                    its path relative to the source root
                                    (segments/..., snap_000007/...)
    <dest>/wal/seg_<lsn>.wal        the covered WAL prefix, clipped at
                                    the backup LSN

``BACKUP_MANIFEST.json`` mirrors the snapshot-manifest protocol
(:mod:`repro.storage.snapshot`): it lists every file with its byte size
and CRC-32C, carries a checksum over itself, and is written *last* via
write-temp/fsync/atomic-rename. A backup without a valid manifest is by
definition torn — restore refuses it with
:class:`~repro.errors.BackupError` — so a crash at any point during the
copy can never produce something restorable-as-valid.

The nested ``image/`` layout is deliberate: a backup directory is not a
database directory and cannot be opened in place. Restore
(:mod:`repro.backup.restore`) lays the image down at the destination,
clips the WAL at the recovery target, and only then removes its
``RESTORE_IN_PROGRESS`` marker — the restore-side commit point.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import BackupError
from ..storage.diskio import DiskIO, crc32c
from ..storage.snapshot import ManifestEntry, self_checksum

BACKUP_MANIFEST_NAME = "BACKUP_MANIFEST.json"
BACKUP_FORMAT_VERSION = 1

#: Written first by restore, removed last: while present the destination
#: is not a committed database and must refuse to open.
RESTORE_MARKER_NAME = "RESTORE_IN_PROGRESS"

#: Subdirectory of a backup holding the snapshot image (manifest + blobs).
IMAGE_DIR_NAME = "image"

#: Subdirectory of a backup holding the covered WAL prefix.
WAL_SUBDIR_NAME = "wal"


@dataclass
class BackupManifest:
    """The commit record of one backup."""

    backup_lsn: int
    checkpoint_lsn: int
    snapshot_id: int | None = None
    epoch: int | None = None
    files: list[ManifestEntry] = field(default_factory=list)

    def to_json(self) -> bytes:
        body = {
            "format_version": BACKUP_FORMAT_VERSION,
            "backup_lsn": self.backup_lsn,
            "checkpoint_lsn": self.checkpoint_lsn,
            "snapshot_id": self.snapshot_id,
            "epoch": self.epoch,
            "files": [entry.to_json() for entry in self.files],
        }
        body["manifest_crc32c"] = f"{self_checksum(body):08x}"
        return (json.dumps(body, indent=1, sort_keys=True) + "\n").encode("utf-8")

    @classmethod
    def from_json(cls, payload: bytes, source: str) -> "BackupManifest":
        try:
            body = json.loads(payload.decode("utf-8"))
            if body["format_version"] != BACKUP_FORMAT_VERSION:
                raise BackupError(
                    f"{source}: unsupported backup format_version "
                    f"{body['format_version']}"
                )
            recorded = int(body["manifest_crc32c"], 16)
            del body["manifest_crc32c"]
            if recorded != self_checksum(body):
                raise BackupError(f"{source}: backup manifest self-checksum mismatch")
            return cls(
                backup_lsn=int(body["backup_lsn"]),
                checkpoint_lsn=int(body["checkpoint_lsn"]),
                snapshot_id=(
                    int(body["snapshot_id"]) if body["snapshot_id"] is not None else None
                ),
                epoch=int(body["epoch"]) if body["epoch"] is not None else None,
                files=[ManifestEntry.from_json(entry) for entry in body["files"]],
            )
        except BackupError:
            raise
        except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
            raise BackupError(f"{source}: unreadable backup manifest ({exc})") from exc


def load_backup_manifest(disk: DiskIO, root: Path) -> BackupManifest:
    """The committed manifest of a backup directory.

    Raises :class:`BackupError` when the manifest is absent (a torn or
    never-completed backup) or unreadable.
    """
    path = Path(root) / BACKUP_MANIFEST_NAME
    if not disk.exists(path):
        raise BackupError(
            f"{root}: no {BACKUP_MANIFEST_NAME} — not a completed backup "
            "(torn or never finished)"
        )
    return BackupManifest.from_json(disk.read_file(path), source=str(path))


def verify_backup(disk: DiskIO, root: Path) -> BackupManifest:
    """Fully verify a backup image: manifest plus every listed file.

    Checks existence, byte size, and CRC-32C of each file against the
    manifest. Raises :class:`BackupError` naming every offending path;
    returns the manifest when the image is intact.
    """
    root = Path(root)
    manifest = load_backup_manifest(disk, root)
    failures: list[str] = []
    for entry in manifest.files:
        path = root / entry.path
        if not disk.exists(path):
            failures.append(f"{entry.path} [missing]")
            continue
        data = disk.read_file(path)
        if len(data) != entry.size:
            failures.append(
                f"{entry.path} [size mismatch: expected {entry.size}, "
                f"got {len(data)}]"
            )
        elif crc32c(data) != entry.crc32c:
            failures.append(f"{entry.path} [checksum mismatch]")
    if failures:
        raise BackupError(
            f"backup {root} failed verification: " + "; ".join(failures)
        )
    return manifest
