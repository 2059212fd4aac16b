"""Hot backup: a consistent, checksummed image taken while writers run.

The protocol splits into a *barrier* and a *copy*:

**Barrier** (:func:`prepare_backup`, run under whatever exclusion keeps
writers out for an instant — :meth:`ConcurrentDatabase.backup` takes the
write lock, the single-caller :class:`Database` needs nothing):

1. flush the WAL — everything committed so far becomes durable;
2. capture ``backup_lsn`` (the log's last LSN) — the backup's upper
   cut line;
3. pin an MVCC reader lease — the backup's *epoch*; vacuum cannot free
   anything the pinned epoch still sees while the copy runs;
4. capture the snapshot manifest **bytes** — a later checkpoint cannot
   swap a newer manifest (with a checkpoint past ``backup_lsn``) under
   the copy's feet;
5. bump ``Database._backups_in_flight`` — checkpoints are deferred, so
   neither snapshot GC (which removes whatever a newer manifest no
   longer names) nor WAL truncation can delete files the copy is about
   to read.

**Copy** (:meth:`BackupJob.run`, outside any lock): writers keep
committing; everything they append lands *after* ``backup_lsn`` and is
simply not part of this backup. The copy CRC-verifies every source file
against the captured manifest, clips the live WAL to exactly
``(checkpoint_lsn, backup_lsn]`` re-encoded into one merged segment, and
commits by writing ``BACKUP_MANIFEST.json`` last — then reads the whole
image back (:func:`~repro.backup.manifest.verify_backup`) before
declaring success, removing the manifest again if read-back fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path, PurePosixPath

from ..errors import BackupError
from ..observability import registry as metrics
from ..storage.diskio import DiskIO, crc32c
from ..storage.snapshot import MANIFEST_NAME, Manifest
from ..wal.log import WAL_DIR_NAME, _list_segments, _segment_name
from ..wal.record import WalRecord, encode_record, scan_segment
from .manifest import (
    BACKUP_MANIFEST_NAME,
    IMAGE_DIR_NAME,
    WAL_SUBDIR_NAME,
    BackupFileEntry,
    BackupManifest,
    verify_backup,
)


@dataclass
class BackupResult:
    """What a completed backup captured."""

    dest: str
    backup_lsn: int
    checkpoint_lsn: int
    snapshot_id: int | None
    epoch: int
    files: int
    bytes: int
    wal_records: int


class BackupJob:
    """The copy phase of one backup; created by :func:`prepare_backup`."""

    def __init__(
        self,
        db,
        disk: DiskIO,
        source_root: Path,
        dest: Path,
        backup_lsn: int,
        checkpoint_lsn: int,
        snapshot_id: int | None,
        manifest_bytes: bytes | None,
        lease,
    ) -> None:
        self.db = db
        self.disk = disk
        self.source_root = source_root
        self.dest = dest
        self.backup_lsn = backup_lsn
        self.checkpoint_lsn = checkpoint_lsn
        self.snapshot_id = snapshot_id
        self.manifest_bytes = manifest_bytes
        self.lease = lease

    def run(self) -> BackupResult:
        """Copy, commit, verify. Always releases the barrier's lease and
        checkpoint deferral, even on failure."""
        try:
            return self._copy()
        except Exception:
            metrics.increment("backup.failed")
            raise
        finally:
            # An InjectedFault (a simulated power cut) unwinds through
            # here too; releasing in-memory state is moot post-"crash"
            # but keeps the source database usable when the test harness
            # continues running in the same process.
            self.lease.release()
            self.db._backups_in_flight -= 1

    # ------------------------------------------------------------------ #
    def _copy(self) -> BackupResult:
        metrics.increment("backup.started")
        if self.disk.exists(self.dest / BACKUP_MANIFEST_NAME):
            raise BackupError(
                f"{self.dest}: already holds a completed backup — refusing "
                "to overwrite it"
            )
        entries: list[BackupFileEntry] = []
        total_bytes = 0

        def put(relpath: str, data: bytes, crc: int) -> None:
            nonlocal total_bytes
            self.disk.write_file(self.dest / PurePosixPath(relpath), data)
            entries.append(BackupFileEntry(path=relpath, size=len(data), crc32c=crc))
            total_bytes += len(data)

        # -- the base image: every file the captured manifest names, at
        # the same root-relative path, verified as we read.
        if self.manifest_bytes is not None:
            src_manifest = Manifest.from_json(
                self.manifest_bytes, source=str(self.source_root / MANIFEST_NAME)
            )
            for entry in src_manifest.files:
                data = self.disk.read_file(self.source_root / PurePosixPath(entry.path))
                if len(data) != entry.size or crc32c(data) != entry.crc32c:
                    raise BackupError(
                        f"source file {entry.path} failed checksum "
                        "verification — refusing to back up a corrupt image"
                    )
                put(f"{IMAGE_DIR_NAME}/{entry.path}", data, entry.crc32c)
            put(
                f"{IMAGE_DIR_NAME}/{MANIFEST_NAME}",
                self.manifest_bytes,
                crc32c(self.manifest_bytes),
            )

        # -- the covered WAL prefix, clipped to (checkpoint, backup_lsn].
        records = _collect_live_records(
            self.disk,
            self.source_root / WAL_DIR_NAME,
            low=self.checkpoint_lsn,
            high=self.backup_lsn,
        )
        if records:
            merged = b"".join(
                encode_record(r.rtype, r.lsn, r.table, r.payload, r.txn_id)
                for r in records
            )
            put(
                f"{WAL_SUBDIR_NAME}/{_segment_name(records[0].lsn)}",
                merged,
                crc32c(merged),
            )

        # -- commit: the backup manifest is written last, then the whole
        # image is read back; only a verified backup keeps its manifest.
        manifest = BackupManifest(
            backup_lsn=self.backup_lsn,
            checkpoint_lsn=self.checkpoint_lsn,
            snapshot_id=self.snapshot_id,
            epoch=self.lease.epoch,
            files=entries,
        )
        self.disk.write_file(self.dest / BACKUP_MANIFEST_NAME, manifest.to_json())
        try:
            verify_backup(self.disk, self.dest)
        except BackupError:
            self.disk.remove(self.dest / BACKUP_MANIFEST_NAME)
            raise
        metrics.increment("backup.completed")
        metrics.increment("backup.files_copied", len(entries))
        metrics.increment("backup.bytes_copied", total_bytes)
        wal = self.db.wal
        if wal is not None and wal.archiver is not None:
            wal.archiver.register_backup(
                str(self.dest),
                backup_lsn=self.backup_lsn,
                checkpoint_lsn=self.checkpoint_lsn,
                epoch=self.lease.epoch,
                snapshot_id=self.snapshot_id,
            )
        return BackupResult(
            dest=str(self.dest),
            backup_lsn=self.backup_lsn,
            checkpoint_lsn=self.checkpoint_lsn,
            snapshot_id=self.snapshot_id,
            epoch=self.lease.epoch,
            files=len(entries),
            bytes=total_bytes,
            wal_records=len(records),
        )


def prepare_backup(db, dest, disk: DiskIO | None = None, barrier_hook=None) -> BackupJob:
    """The barrier phase: capture a consistent cut of a live database.

    Must run while no writer is mid-commit (the concurrency facade holds
    the write lock; plain single-caller use needs nothing). Returns a
    :class:`BackupJob` whose :meth:`~BackupJob.run` does the long copy —
    with writers free to commit again.

    ``barrier_hook(db)``, if given, runs as the last barrier step: tests
    use it to fingerprint the exact state the pinned epoch covers.
    """
    if db.wal is None or db._wal_root is None:
        raise BackupError(
            "hot backup needs a durable database (open it with Database.open)"
        )
    disk = disk or db.wal.disk
    source_root = Path(db._wal_root)
    dest = Path(dest)
    db.wal.flush()
    backup_lsn = db.wal.last_lsn
    lease = db.mvcc.readers.pin(tag="backup")
    try:
        manifest_bytes = None
        snapshot_id = None
        checkpoint_lsn = 0
        if disk.exists(source_root / MANIFEST_NAME):
            manifest_bytes = disk.read_file(source_root / MANIFEST_NAME)
            src_manifest = Manifest.from_json(
                manifest_bytes, source=str(source_root / MANIFEST_NAME)
            )
            snapshot_id = src_manifest.snapshot_id
            checkpoint_lsn = src_manifest.checkpoint_lsn
        db._backups_in_flight += 1
    except BaseException:
        lease.release()
        raise
    try:
        if barrier_hook is not None:
            barrier_hook(db)
    except BaseException:
        lease.release()
        db._backups_in_flight -= 1
        raise
    return BackupJob(
        db=db,
        disk=disk,
        source_root=source_root,
        dest=dest,
        backup_lsn=backup_lsn,
        checkpoint_lsn=checkpoint_lsn,
        snapshot_id=snapshot_id,
        manifest_bytes=manifest_bytes,
        lease=lease,
    )


def backup_database(db, dest, disk: DiskIO | None = None, barrier_hook=None) -> BackupResult:
    """Barrier + copy in one call (the single-caller convenience)."""
    return prepare_backup(db, dest, disk=disk, barrier_hook=barrier_hook).run()


def _collect_live_records(
    disk: DiskIO, wal_dir: Path, low: int, high: int
) -> list[WalRecord]:
    """Records with ``low < lsn <= high`` from the live WAL directory.

    Segments are read while writers may be appending: a frame that is
    mid-append when we read shows up as a torn tail *past* ``high`` (the
    barrier flushed everything up to ``high`` before the copy started),
    so scan damage is tolerated as long as every needed LSN was
    recovered. A missing needed LSN is a hard error — the backup would
    be unrestorable.
    """
    if high <= low:
        return []
    found: dict[int, WalRecord] = {}
    for first_lsn, name in _list_segments(disk, wal_dir):
        if first_lsn > high:
            continue
        scan = scan_segment(disk.read_file(wal_dir / name), first_lsn, source=name)
        for record in scan.records:
            if low < record.lsn <= high:
                found[record.lsn] = record
    missing = [lsn for lsn in range(low + 1, high + 1) if lsn not in found]
    if missing:
        raise BackupError(
            f"WAL records {missing[0]}..{missing[-1]} needed by the backup "
            "are missing from the live log"
        )
    return [found[lsn] for lsn in range(low + 1, high + 1)]
