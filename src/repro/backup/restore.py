"""Point-in-time restore: lay down a backup, replay to a commit boundary.

Restore is file-layout work, not engine work: it writes a *database
directory* that :meth:`Database.load` then recovers through the one
replay path the engine already trusts. The destination's WAL is
physically clipped at the recovery target, so a plain ``load`` replays
exactly to the requested point — there is no "replay up to N" parameter
to get wrong.

**Targets** must be *commit boundaries*: the LSN of an auto-committed
statement record, of a ``TXN_COMMIT``/``TXN_ABORT`` marker, or the
backup's own checkpoint LSN. Any other LSN lands mid-transaction; replay
of such a prefix would silently drop the transaction (its commit marker
is beyond the clip), so the target is rejected with
:class:`~repro.errors.RestoreTargetError` naming the enclosing
transaction and the nearest valid boundaries on both sides.

The segment blobs the replayed records name come from the backup's
image or, for records past its cut, from the archive, which holds them
beside its segments; a restore never reads the source's pool.

A backup carries its source's format stamp, which restore reads first: a
newer format is refused before anything is written, and a stamped
backup's destination is stamped. A backup without one (an earlier
build's) and the archive are read through :mod:`repro.storage.compat`;
the destination of an unstamped backup is laid down unstamped, so its
first open upgrades it.

**Crash safety** mirrors the backup side, inverted: a
``RESTORE_IN_PROGRESS`` marker is the *first* file written and the
*last* removed. While it exists the destination is not a committed
database — :meth:`Database.load` refuses it and ``repro check`` reports
it — so a crash at any write point leaves something clearly
uncommitted, never a silently short database.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from ..errors import RestoreError, RestoreTargetError
from ..observability import registry as metrics
from ..storage import compat
from ..storage.compat import logged_blobs, scan_segment
from ..storage.diskio import DiskIO
from ..storage.snapshot import MANIFEST_NAME, FileVerdict, check_file, read_stamp, write_stamp
from ..wal.log import WAL_DIR_NAME, _segment_image, judge_log, log_records, read_log
from ..wal.record import TXN_MARKER_TYPES, AUTO_COMMIT_TXN, WalRecord, WalRecordType
from .manifest import (
    BACKUP_MANIFEST_NAME,
    IMAGE_DIR_NAME,
    RESTORE_MARKER_NAME,
    WAL_SUBDIR_NAME,
    verified_image,
)


@dataclass
class RestoreResult:
    """What a completed restore produced."""

    dest: str
    target_lsn: int
    backup_lsn: int
    checkpoint_lsn: int
    records: int  # WAL records laid down for replay
    epoch: int | None  # known only when the target is the backup cut


# ---------------------------------------------------------------------- #
# Commit boundaries and target resolution
# ---------------------------------------------------------------------- #
def is_commit_boundary(record: WalRecord) -> bool:
    """Is the state *after* this record a committed point?"""
    if record.rtype in (WalRecordType.TXN_COMMIT, WalRecordType.TXN_ABORT):
        return True
    return (
        record.txn_id == AUTO_COMMIT_TXN
        and record.rtype not in TXN_MARKER_TYPES
    )


def commit_boundaries(records: list[WalRecord], checkpoint_lsn: int) -> list[int]:
    """Every valid recovery target, ascending (the checkpoint included)."""
    return [checkpoint_lsn] + [r.lsn for r in records if is_commit_boundary(r)]


def resolve_target(
    records: list[WalRecord],
    checkpoint_lsn: int,
    to_lsn: int | None = None,
    to_txn: int | None = None,
) -> int:
    """Map a requested target onto a commit boundary, or reject it.

    ``records`` is the contiguous history available for replay (LSNs
    ``checkpoint_lsn + 1 ..``). With neither ``to_lsn`` nor ``to_txn``
    the newest boundary wins (records of a transaction still in flight
    at the end of history are dropped, exactly like crash recovery).
    """
    if to_lsn is not None and to_txn is not None:
        raise RestoreTargetError("give either --to-lsn or --to-txn, not both")
    bounds = commit_boundaries(records, checkpoint_lsn)
    if to_txn is not None:
        for record in records:
            if (
                record.rtype is WalRecordType.TXN_COMMIT
                and record.txn_id == to_txn
            ):
                return record.lsn
        raise RestoreTargetError(
            f"transaction {to_txn} has no COMMIT in the available history — "
            "it aborted, never finished, or lies beyond the archive",
            target=to_txn,
        )
    if to_lsn is None:
        return bounds[-1]
    if to_lsn in set(bounds):
        return to_lsn
    last_available = records[-1].lsn if records else checkpoint_lsn
    if to_lsn < checkpoint_lsn:
        raise RestoreTargetError(
            f"LSN {to_lsn} predates this backup's base image (checkpoint "
            f"LSN {checkpoint_lsn}) — restore from an older backup",
            target=to_lsn,
            next_boundary=checkpoint_lsn,
        )
    if to_lsn > last_available:
        raise RestoreTargetError(
            f"LSN {to_lsn} is beyond the end of available history (last "
            f"available LSN is {last_available}) — archive more segments or "
            "pick an earlier target",
            target=to_lsn,
            previous_boundary=bounds[-1],
        )
    previous = max(b for b in bounds if b < to_lsn)
    following = min((b for b in bounds if b > to_lsn), default=None)
    record = next(r for r in records if r.lsn == to_lsn)
    raise RestoreTargetError(
        f"LSN {to_lsn} is not a commit boundary: record {record.rtype.name} "
        f"is inside transaction {record.txn_id} — nearest boundaries are "
        f"{previous} (before) and {following} (after)",
        target=to_lsn,
        previous_boundary=previous,
        next_boundary=following,
    )


# ---------------------------------------------------------------------- #
# The restore itself
# ---------------------------------------------------------------------- #
def restore_backup(
    backup_root,
    dest,
    disk: DiskIO | None = None,
    to_lsn: int | None = None,
    to_txn: int | None = None,
    archive=None,
) -> RestoreResult:
    """Restore ``backup_root`` into the fresh directory ``dest``.

    ``archive`` (a WAL-archive directory) extends the reachable history
    past the backup's own cut; without it, targets beyond ``backup_lsn``
    are unreachable. Fully verifies the backup image first — a torn
    backup raises :class:`~repro.errors.BackupError` before a single
    byte lands in ``dest``.
    """
    disk = disk or DiskIO()
    backup_root = Path(backup_root)
    dest = Path(dest)
    stamp = read_stamp(disk, backup_root)
    manifest = compat.load_backup_manifest(disk, backup_root)
    files = verified_image(disk, backup_root, manifest)

    # -- assemble the available history: the archive, then the backup's
    # own log over it (both hold the same record at an LSN they share).
    archived = [] if archive is None else _sealed_records(disk, Path(archive))
    backed_up = _sealed_records(disk, backup_root / WAL_SUBDIR_NAME)
    by_lsn = {r.lsn: r for r in archived + backed_up}

    # Only the contiguous prefix is replayable: a gap (an unarchived
    # segment) makes everything past it unreachable.
    ordered: list[WalRecord] = []
    lsn = manifest.checkpoint_lsn + 1
    while lsn in by_lsn:
        ordered.append(by_lsn[lsn])
        lsn += 1

    target = resolve_target(
        ordered, manifest.checkpoint_lsn, to_lsn=to_lsn, to_txn=to_txn
    )
    clipped = [r for r in ordered if r.lsn <= target]

    # -- lay the destination down under the in-progress marker.
    _claim_destination(disk, dest, backup_root, target)
    if stamp:
        write_stamp(disk, dest)
    prefix = f"{IMAGE_DIR_NAME}/"
    image = {path.removeprefix(prefix): data for path, data in files.items() if path.startswith(prefix)}
    for path, data in image.items():
        disk.write_file(dest / path, data)
    _lay_down_blobs(disk, dest, clipped, archive, image)
    disk.mkdir(dest / WAL_DIR_NAME)
    if clipped:
        segment_name, merged = _segment_image(clipped)
        disk.write_file(dest / WAL_DIR_NAME / segment_name, merged)
        # Read-back: the laid-down log must scan clean up to the target
        # before the restore may commit.
        check = scan_segment(
            disk.read_file(dest / WAL_DIR_NAME / segment_name),
            clipped[0].lsn,
            source=segment_name,
        )
        if check.damage is not None or (
            check.records and check.records[-1].lsn != target
        ):
            raise RestoreError(
                f"{dest}: restored WAL failed read-back verification"
            )
    if manifest.snapshot_id is not None and not disk.exists(dest / MANIFEST_NAME):
        raise RestoreError(f"{dest}: restored image failed read-back verification")

    # -- commit: removing the marker is what makes dest a database, so
    # every directory laid down must be durable before it goes (a file's
    # write syncs its own directory, not the entries leading to it).
    _sync_tree(disk, dest)
    disk.remove(dest / RESTORE_MARKER_NAME)
    metrics.increment("restore.records_restored", len(clipped))
    metrics.increment("restore.completed")
    return RestoreResult(
        dest=str(dest),
        target_lsn=target,
        backup_lsn=manifest.backup_lsn,
        checkpoint_lsn=manifest.checkpoint_lsn,
        records=len(clipped),
        epoch=manifest.epoch if target == manifest.backup_lsn else None,
    )


def _sealed_records(disk: DiskIO, root: Path) -> list[WalRecord]:
    """The records of a backup's log or an archive, refused when the
    sealed-log rule finds a segment damaged (a gap only ends the history
    a restore can reach)."""
    log = read_log(disk, root, compat)
    for verdict in judge_log(log, sealed=True):
        if verdict.status == "corrupt":
            raise RestoreError(
                f"{root / verdict.segment}: {verdict.detail} — refusing to "
                "replay damaged history"
            )
    return log_records(log)


def _lay_down_blobs(
    disk: DiskIO, dest: Path, records: list[WalRecord], archive, image: dict[str, bytes]
) -> None:
    """Every blob the restored log names, from the archive unless the
    image laid it down already."""
    for path, (lsn, entry) in logged_blobs(records).items():
        if path in image:
            continue
        data, verdict = (
            check_file(disk, Path(archive), entry)
            if archive is not None
            else (None, FileVerdict(path, "missing", "no archive given"))
        )
        if data is None:
            raise RestoreError(
                f"segment blob {path} named by LSN {lsn} is in neither the backup "
                f"nor the archive, or is damaged there [{verdict}]"
            )
        disk.write_file(dest / path, data)


def _sync_tree(disk: DiskIO, directory: Path) -> None:
    """Sync every directory under ``directory``, then it: deepest first."""
    for name in disk.listdir(directory):
        if disk.is_dir(directory / name):
            _sync_tree(disk, directory / name)
    disk.sync_dir(directory)


def _claim_destination(
    disk: DiskIO, dest: Path, backup_root: Path, target: int
) -> None:
    """Make ``dest`` ours: empty, or a previous *uncommitted* restore.

    A directory that holds anything but a marked-in-progress restore is
    refused — restore never overwrites a committed database.
    """
    existing = disk.listdir(dest)
    # Stray ``*.tmp`` files are write-temp leftovers (a crash can land
    # between a temp write and its rename) — they never name committed
    # state, so a dest holding only those is still claimable.
    committed = [name for name in existing if not name.endswith(".tmp")]
    if committed and not disk.exists(dest / RESTORE_MARKER_NAME):
        raise RestoreError(
            f"{dest} is not empty and is not an interrupted restore — "
            "refusing to overwrite it"
        )
    for name in existing:
        if name != RESTORE_MARKER_NAME:
            disk.remove_tree(dest / name)
    marker = json.dumps(
        {"backup": str(backup_root), "target_lsn": target}, sort_keys=True
    ).encode("utf-8")
    disk.make_dirs(dest)
    disk.write_file(dest / RESTORE_MARKER_NAME, marker)
