"""WAL archiving: sealed segments copied aside for point-in-time recovery.

The live WAL is a *recovery* log: checkpoints truncate everything a
snapshot covers, so on its own it can only replay forward from the last
checkpoint. The archive turns it into a *history* log: every sealed
segment is CRC-verified and copied into ``<root>/wal_archive/`` — on
rotation (so the archive tracks the log as it grows) and, as a
backstop, before checkpoint truncation deletes a segment
(archive-before-delete: with an archiver attached, no segment ever
leaves the live log without provably existing in the archive first).

Retention is bounded by the oldest registered backup: a backup registers
itself in ``backups.json`` on completion, and :meth:`WalArchiver.prune`
removes archived segments every record of which is at or below the
oldest backup's checkpoint LSN — those effects are baked into every
backup's base image, so no restore can need them. With no registered
backup nothing is pruned: the operator may be archiving ahead of their
first backup.

This is the same log-shipping machinery a read replica would consume
(ROADMAP "scale-out"): an archive directory on shared storage *is* a
replication feed with file-level granularity.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..errors import WalCorruptError
from ..observability import registry as metrics
from ..storage.diskio import DiskIO
from ..wal.log import _SEGMENT_RE, WalVerdict, _list_segments
from ..wal.record import scan_segment

#: Default archive location, a sibling of the ``wal/`` directory.
ARCHIVE_DIR_NAME = "wal_archive"

#: The retention registry: which backups still need which segments.
BACKUPS_REGISTRY_NAME = "backups.json"


class WalArchiver:
    """Copies sealed WAL segments into an archive directory.

    Attached to a :class:`~repro.wal.log.WriteAheadLog` via
    ``set_archiver``; also used standalone by restore to read the
    archive back. All writes go through the same
    write-temp/fsync/atomic-rename protocol as snapshots, so a crash
    mid-archive leaves at most a ``*.tmp`` stray, never a half segment
    under a real name.
    """

    def __init__(self, disk: DiskIO, root: Path) -> None:
        self.disk = disk
        self.root = Path(root)
        # (name, size) -> last LSN, so status() does not rescan segments.
        self._last_lsn_cache: dict[tuple[str, int], int] = {}

    # ------------------------------------------------------------------ #
    # Archiving
    # ------------------------------------------------------------------ #
    def archive_segment(self, disk: DiskIO, src: Path, first_lsn: int) -> bool:
        """CRC-verify one sealed segment and copy it into the archive.

        Idempotent: a segment already archived with identical bytes is
        skipped. Raises :class:`~repro.errors.WalCorruptError` when the
        *source* fails its scan (archiving damage would launder it into
        the history), and returns False when the written copy fails
        read-back verification (the bad copy is removed so a retry can
        succeed).
        """
        src = Path(src)
        data = disk.read_file(src)
        scan = scan_segment(data, first_lsn, source=src.name)
        if scan.damage is not None:
            raise WalCorruptError(
                f"refusing to archive damaged segment: {scan.damage.detail}",
                segment=src.name,
                offset=scan.damage.offset,
            )
        dest = self.root / src.name
        if self.disk.exists(dest) and self.disk.read_file(dest) == data:
            return True  # already archived, byte-identical
        self.disk.write_file(dest, data)
        if self.disk.read_file(dest) != data:  # pragma: no cover - lying disk
            self.disk.remove(dest)
            return False
        if scan.records:
            self._last_lsn_cache[(src.name, len(data))] = scan.records[-1].lsn
        metrics.increment("wal.archive.segments_archived")
        metrics.increment("wal.archive.bytes", len(data))
        return True

    # ------------------------------------------------------------------ #
    # Reading the archive back
    # ------------------------------------------------------------------ #
    def archived_segments(self) -> list[tuple[int, str]]:
        """(first_lsn, name) of every archived segment, in LSN order."""
        return _list_segments(self.disk, self.root)

    def segment_spans(self) -> list[tuple[str, int, int]]:
        """(name, first_lsn, last_lsn) per archived segment, LSN order.

        Consecutive segments imply each other's bounds (LSNs are
        contiguous), so only the newest segment needs a scan — and that
        scan is cached by (name, size).
        """
        listed = self.archived_segments()
        spans: list[tuple[str, int, int]] = []
        for index, (first_lsn, name) in enumerate(listed):
            if index + 1 < len(listed):
                last = listed[index + 1][0] - 1
            else:
                last = self._scan_last_lsn(name, first_lsn)
            spans.append((name, first_lsn, last))
        return spans

    def _scan_last_lsn(self, name: str, first_lsn: int) -> int:
        path = self.root / name
        size = self.disk.file_size(path)
        cached = self._last_lsn_cache.get((name, size))
        if cached is not None:
            return cached
        scan = scan_segment(self.disk.read_file(path), first_lsn, source=name)
        last = scan.records[-1].lsn if scan.records else first_lsn - 1
        self._last_lsn_cache[(name, size)] = last
        return last

    def last_archived_lsn(self) -> int:
        """The newest archived LSN, 0 when the archive is empty."""
        spans = self.segment_spans()
        return spans[-1][2] if spans else 0

    # ------------------------------------------------------------------ #
    # Retention: bounded by the oldest registered backup
    # ------------------------------------------------------------------ #
    def register_backup(
        self,
        dest: str,
        backup_lsn: int,
        checkpoint_lsn: int,
        epoch: int | None = None,
        snapshot_id: int | None = None,
    ) -> None:
        """Record a completed backup in the retention registry."""
        backups = self.registered_backups()
        backups.append(
            {
                "dest": str(dest),
                "backup_lsn": int(backup_lsn),
                "checkpoint_lsn": int(checkpoint_lsn),
                "epoch": epoch,
                "snapshot_id": snapshot_id,
            }
        )
        payload = json.dumps(
            {"format_version": 1, "backups": backups}, indent=1, sort_keys=True
        ).encode("utf-8")
        self.disk.write_file(self.root / BACKUPS_REGISTRY_NAME, payload)

    def registered_backups(self) -> list[dict]:
        path = self.root / BACKUPS_REGISTRY_NAME
        if not self.disk.exists(path):
            return []
        try:
            body = json.loads(self.disk.read_file(path).decode("utf-8"))
            return list(body["backups"])
        except (ValueError, KeyError, TypeError, UnicodeDecodeError):
            # An unreadable registry must not license pruning: behave as
            # if no backup were registered (keep everything).
            return []

    def retention_floor(self) -> int | None:
        """Oldest checkpoint LSN any registered backup still builds on.

        Segments whose every record is at or below this are baked into
        every backup's base image. ``None`` (no registered backups)
        means nothing may be pruned.
        """
        backups = self.registered_backups()
        if not backups:
            return None
        return min(int(b["checkpoint_lsn"]) for b in backups)

    def prune(self) -> int:
        """Remove archived segments no registered backup can ever need."""
        floor = self.retention_floor()
        if floor is None:
            return 0
        pruned = 0
        for name, _first, last in self.segment_spans():
            if last <= floor:
                self.disk.remove(self.root / name)
                pruned += 1
        if pruned:
            metrics.increment("wal.archive.segments_pruned", pruned)
        return pruned

    # ------------------------------------------------------------------ #
    # Status (the shell's \wal, `repro check`)
    # ------------------------------------------------------------------ #
    def status(self, live_segments: list[str] | None = None) -> dict:
        spans = self.segment_spans()
        archived_names = {name for name, _f, _l in spans}
        pending = [
            name for name in (live_segments or []) if name not in archived_names
        ]
        return {
            "dir": str(self.root),
            "archived_segments": len(spans),
            "pending_segments": len(pending),
            "last_archived_lsn": spans[-1][2] if spans else 0,
            "registered_backups": len(self.registered_backups()),
        }


def check_archive(disk: DiskIO, root: Path) -> list[WalVerdict]:
    """Offline verdicts for an archive directory (`repro check`).

    Verifies each archived segment's CRCs and completeness, LSN
    contiguity across the archive, and — against the retention
    registry — that the archive still starts early enough to serve
    point-in-time targets past each registered backup.
    """
    root = Path(root)
    verdicts: list[WalVerdict] = []
    listed = _list_segments(disk, root)
    previous_last: int | None = None
    first_archived: int | None = None
    for first_lsn, name in listed:
        if previous_last is not None and first_lsn != previous_last + 1:
            verdicts.append(
                WalVerdict(
                    name,
                    "archive-gap",
                    f"starts at LSN {first_lsn}, previous archived segment "
                    f"ended at {previous_last} — restore targets in between "
                    "are unreachable",
                )
            )
        data = disk.read_file(root / name)
        scan = scan_segment(data, first_lsn, source=name)
        if scan.damage is not None:
            # Archived segments are sealed copies: *any* damage —
            # including what the live log would tolerate as a torn
            # tail — makes the copy unusable for restore.
            verdicts.append(
                WalVerdict(
                    name,
                    "corrupt",
                    f"byte {scan.damage.offset}: {scan.damage.detail}",
                )
            )
        else:
            first = scan.records[0].lsn if scan.records else first_lsn
            last = scan.records[-1].lsn if scan.records else first_lsn - 1
            verdicts.append(
                WalVerdict(
                    name, "ok", f"LSN {first}..{last}, {len(scan.records)} records"
                )
            )
            if first_archived is None:
                first_archived = first
            previous_last = last
            continue
        previous_last = None  # damage breaks the chain; report once
    archiver = WalArchiver(disk, root)
    if first_archived is not None:
        for backup in archiver.registered_backups():
            needed = int(backup["backup_lsn"]) + 1
            if first_archived > needed:
                verdicts.append(
                    WalVerdict(
                        "(archive)",
                        "archive-gap",
                        f"backup {backup['dest']} ends at LSN "
                        f"{backup['backup_lsn']} but the oldest archived "
                        f"record is {first_archived} — restore targets "
                        f"{needed}..{first_archived - 1} are unreachable",
                    )
                )
    return verdicts
