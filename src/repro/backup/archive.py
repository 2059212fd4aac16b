"""WAL archiving: sealed segments copied aside for point-in-time recovery.

The live WAL is a *recovery* log: checkpoints truncate everything a
snapshot covers, so on its own it can only replay forward from the last
checkpoint. The archive turns it into a *history* log: every sealed
segment is CRC-verified and copied into ``<root>/wal_archive/`` — on
rotation (so the archive tracks the log as it grows) and, as a
backstop, before checkpoint truncation deletes a segment
(archive-before-delete: with an archiver attached, no segment ever
leaves the live log without provably existing in the archive first).

A ROW_GROUPS record names the segment blobs its change wrote into the
pool. Archiving its segment first links each blob (a hard link, so no
byte is written again; a copy across devices) to the same path under
the archive — ``wal_archive/segments/...`` — and syncs the directories
that holds, so a restore replaying the archive never needs the live
pool (:func:`~repro.wal.record.logged_blobs` says which blobs a log
needs, for the archive as for every other holder of a log).

Retention is bounded by the oldest registered backup: a backup registers
itself in ``backups.json`` on completion, and :meth:`WalArchiver.prune`
removes archived segments every record of which is at or below the
oldest backup's checkpoint LSN — those effects are baked into every
backup's base image, so no restore can need them. With no registered
backup nothing is pruned: the operator may be archiving ahead of their
first backup.

Archived segments are never rewritten, so an archive may hold segments
an earlier build wrote (before its directory's first open upgraded it):
the archive is read through :mod:`repro.storage.compat`, which reads
every format.

This is the same log-shipping machinery a read replica would consume
(ROADMAP "scale-out"): an archive directory on shared storage *is* a
replication feed with file-level granularity.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..errors import WalCorruptError
from ..observability import registry as metrics
from ..storage import compat
from ..storage.compat import logged_blobs, scan_segment
from ..storage.diskio import DiskIO
from ..storage.snapshot import POOL_DIR_NAME, check_file, sweep
from ..wal.log import WalVerdict, _list_segments, judge_log, log_records, read_log
from ..wal.record import WalRecord

#: Default archive location, a sibling of the ``wal/`` directory.
ARCHIVE_DIR_NAME = "wal_archive"

#: The retention registry: which backups still need which segments.
BACKUPS_REGISTRY_NAME = "backups.json"


class WalArchiver:
    """Copies sealed WAL segments into an archive directory.

    Attached to a :class:`~repro.wal.log.WriteAheadLog` via
    ``set_archiver`` (a restore reads the archive with
    :func:`~repro.wal.log.read_log`). All writes go through the same
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
        # The archive's own entry first: a checkpoint deletes the live
        # segment once this returns, so what holds the copy must be there
        # after a power cut too.
        self.disk.make_dirs(self.root)
        # The blobs next: an archived record never names a blob the
        # archive lacks. They sit beside the log in the database root.
        self._link_blobs(disk, src.parent.parent, scan.records)
        self.disk.write_file(dest, data)
        if self.disk.read_file(dest) != data:  # pragma: no cover - lying disk
            self.disk.remove(dest)
            return False
        if scan.records:
            self._last_lsn_cache[(src.name, len(data))] = scan.records[-1].lsn
        metrics.increment("wal.archive.segments_archived")
        metrics.increment("wal.archive.bytes", len(data))
        return True

    def _link_blobs(self, disk: DiskIO, source_root: Path, records: list[WalRecord]) -> None:
        """Link every blob ``records`` name into the archive, unless it
        holds the listed bytes already; a source blob that is not the
        listed file is refused, as a damaged segment is."""
        synced: set[Path] = set()
        for _lsn, entry in logged_blobs(records).values():
            if check_file(disk, self.root, entry)[0] is not None:
                continue
            source, verdict = check_file(disk, source_root, entry)
            if source is None:
                raise WalCorruptError(
                    f"refusing to archive blob {entry.path}: it failed verification [{verdict}]"
                )
            dest = self.root / entry.path
            disk.link_file(source_root / entry.path, dest)
            synced.update(parent for parent in dest.parents if self.root in parent.parents)
        for directory in sorted(synced, key=lambda path: len(path.parts), reverse=True):
            disk.sync_dir(directory)

    # ------------------------------------------------------------------ #
    # Reading the archive back
    # ------------------------------------------------------------------ #
    def segment_spans(self) -> list[tuple[str, int, int]]:
        """(name, first_lsn, last_lsn) per archived segment, LSN order.

        Consecutive segments imply each other's bounds (LSNs are
        contiguous), so only the newest segment needs a scan — and that
        scan is cached by (name, size).
        """
        listed = _list_segments(self.disk.listdir(self.root))
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
            self._prune_blobs()
        return pruned

    def _prune_blobs(self) -> None:
        """Remove archived blobs no archived record names any more."""
        named = logged_blobs(log_records(read_log(self.disk, self.root, compat)))
        sweep(self.disk, self.root / POOL_DIR_NAME, POOL_DIR_NAME, named.__contains__)

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

    Judges the archive as a sealed log (:func:`~repro.wal.log.judge_log`:
    any damage is corruption, a gap an ``archive-gap``), names every blob
    an archived record needs that the archive lacks, and checks against
    the retention registry that the archive still starts early enough to
    serve point-in-time targets past each registered backup.
    """
    root = Path(root)
    log = read_log(disk, root, compat)
    verdicts = judge_log(log, sealed=True)
    for path, (lsn, entry) in logged_blobs(log_records(log)).items():
        data, verdict = check_file(disk, root, entry)
        if data is None:
            detail = "; ".join(filter(None, (f"a blob archived record {lsn} names", verdict.detail)))
            verdicts.append(WalVerdict(path, verdict.status, detail))
    first_archived = next((s.first_lsn for s in log if s.scan.records), None)
    if first_archived is not None:
        for backup in WalArchiver(disk, root).registered_backups():
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
