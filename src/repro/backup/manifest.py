"""The backup image format: layout constants and the commit record.

A backup directory looks like::

    <dest>/BACKUP_MANIFEST.json     the commit record (atomic rename, last)
    <dest>/FORMAT                   the source's format stamp
    <dest>/image/MANIFEST.json      verbatim copy of the source manifest
    <dest>/image/<path>             every file that manifest names, at
                                    its path relative to the source root
                                    (segments/..., snap_000007/...)
    <dest>/wal/seg_<lsn>.wal        the covered WAL prefix, clipped at
                                    the backup LSN

``BACKUP_MANIFEST.json`` mirrors the snapshot-manifest protocol
(:mod:`repro.storage.snapshot`): it lists every file with its byte size
and checksum, carries a checksum over itself, and is written *last* via
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

from dataclasses import dataclass, field
from pathlib import Path

from ..errors import BackupError
from ..storage.diskio import DiskIO
from ..storage.snapshot import Envelope, ManifestEntry, check_files

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
        return BACKUP_ENVELOPE.write(self)

    @classmethod
    def from_json(cls, payload: bytes, source: str, **earlier) -> "BackupManifest":
        """``earlier`` (``seals``, ``read_entry``) reads what an earlier
        build sealed (:func:`repro.storage.compat.load_backup_manifest`)."""
        return BACKUP_ENVELOPE.read(cls, payload, source, **earlier)


BACKUP_ENVELOPE = Envelope("backup manifest", BACKUP_FORMAT_VERSION, BackupError, BackupError)


def load_backup_manifest(disk: DiskIO, root: Path, **earlier) -> BackupManifest:
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
    return BackupManifest.from_json(disk.read_file(path), str(path), **earlier)


def verified_image(
    disk: DiskIO, root: Path, manifest: BackupManifest, held: dict[str, bytes] | None = None
) -> dict[str, bytes]:
    """The bytes of every file ``manifest`` lists, by listed path, each
    held to its entry (:func:`~repro.storage.snapshot.check_files`, which
    checks ``held`` bytes in place of reading them again); raises
    :class:`BackupError` naming every one that is not."""
    files, failures = check_files(disk, root, manifest.files, held)
    if failures:
        raise BackupError(f"backup {root} failed verification: " + "; ".join(failures))
    return files


def verify_backup(
    disk: DiskIO, root: Path, manifest: BackupManifest | None = None
) -> BackupManifest:
    """Fully verify a backup image: ``manifest`` (its committed manifest,
    read when not given) plus every listed file (:func:`verified_image`);
    returns the manifest when the image is intact."""
    manifest = manifest or load_backup_manifest(disk, root)
    verified_image(disk, Path(root), manifest)
    return manifest
