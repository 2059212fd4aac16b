"""The write-ahead log: segmented appends, group commit, recovery.

Layout: a ``wal/`` directory next to the snapshot directories, holding
append-only segment files named ``seg_<first-lsn>.wal``. Records are
framed by :mod:`repro.wal.record`; every byte flows through the
injectable :class:`~repro.storage.diskio.DiskIO`, so the crash sweeps
drive the WAL with the same :class:`FaultyDisk` as the snapshot layer.

**Durability modes** (the knob the paper's transactional integration
turns into policy):

``per-commit``
    every committed statement fsyncs the segment before returning —
    nothing committed is ever lost, one fsync per statement.
``group``
    commits accumulate and one fsync covers the whole batch (every
    ``group_commit_size`` commits, at checkpoints, or on an explicit
    :meth:`WriteAheadLog.flush`). Amortizes fsync across writers at the
    cost of a bounded window of recent commits on a power cut.
``off``
    never fsync on commit (the OS flushes when it pleases); the log
    still orders and frames records, so crash recovery replays whatever
    reached the disk — always a committed prefix, possibly short.

**Reading a log directory** is one walk and one rule, shared by recovery,
``repro check``, the archive check, backup and restore:
:func:`read_log` reads and scans every segment once, and
:func:`judge_log` turns what it found into verdicts (:class:`WalVerdict`).
**Recovery** (:meth:`WriteAheadLog.attach`) refuses with
:class:`~repro.errors.WalCorruptError` on the first verdict that is not
ok, truncates the torn final record the verdicts name (an interrupted
append — the statement never committed), and returns the records past
the snapshot's checkpoint LSN for replay; :func:`check_wal` returns the
same verdicts, so ``repro check`` passes exactly the logs that open.

**Append handle**: the tail segment's descriptor stays open until
rotation, checkpoint truncation or :meth:`WriteAheadLog.close`.

**Checkpoints**: :meth:`Database.save` records the WAL's last LSN in the
snapshot manifest, then :meth:`truncate_covered` deletes every segment
whose records the snapshot now covers (archiving it first, with the pool
blobs its records name), and only then are the blobs no record the live
log holds names collected. A covered segment the archiver cannot take
stays, and so does every segment after it, so the live log never has a
hole. A crash in between leaves stale segments whose records replay
skips (their LSNs are ≤ the checkpoint) and which the next checkpoint
collects.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from ..errors import WalCorruptError
from ..observability import registry as metrics
from ..storage.diskio import DiskIO
from ..storage.snapshot import ManifestEntry
from . import record
from .record import SegmentScan, WalRecord, WalRecordType, encode_record

WAL_DIR_NAME = "wal"
DEFAULT_SEGMENT_BYTES = 256 * 1024
DEFAULT_GROUP_COMMIT_SIZE = 8

DURABILITY_MODES = ("per-commit", "group", "off")
_DURABILITY_ALIASES = {"fsync-per-commit": "per-commit", "fsync": "per-commit"}

_SEGMENT_RE = re.compile(r"^seg_(\d{12,})\.wal$")


def normalize_durability(mode: str) -> str:
    mode = _DURABILITY_ALIASES.get(mode, mode)
    if mode not in DURABILITY_MODES:
        raise ValueError(
            f"unknown durability mode {mode!r} (choose from "
            f"{', '.join(DURABILITY_MODES)})"
        )
    return mode


def _segment_name(first_lsn: int) -> str:
    return f"seg_{first_lsn:012d}.wal"


@dataclass
class _Segment:
    """One live segment: its path, first LSN, and current byte size."""

    path: Path
    first_lsn: int
    size: int
    last_lsn: int  # last LSN written to this segment (first_lsn - 1 if empty)


@dataclass
class WalRecovery:
    """What :meth:`WriteAheadLog.attach` found on disk."""

    replay_records: list[WalRecord] = field(default_factory=list)
    # The pool blobs the live log names (record.logged_blobs).
    blobs: dict[str, tuple[int, ManifestEntry]] = field(default_factory=dict)
    last_lsn: int = 0


class WriteAheadLog:
    """Append-only segmented redo log with group commit.

    Thread-safe: appends and commits serialize on an internal lock, and a
    commit whose records another writer's fsync already covered returns
    without syncing again (the classic group-commit piggyback).
    """

    def __init__(
        self,
        disk: DiskIO,
        root: Path,
        durability: str = "group",
        group_commit_size: int = DEFAULT_GROUP_COMMIT_SIZE,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        last_lsn: int = 0,
        segments: list[_Segment] | None = None,
    ) -> None:
        self.disk = disk
        self.root = Path(root)
        self.durability = normalize_durability(durability)
        self.group_commit_size = max(1, group_commit_size)
        self.segment_bytes = segment_bytes
        self._lock = threading.RLock()
        self._last_lsn = last_lsn
        self._durable_lsn = last_lsn
        self._pending_commits = 0
        self._segments: list[_Segment] = list(segments or [])
        # Optional WAL archiver (repro.backup.archive.WalArchiver):
        # sealed segments are copied into the archive on rotation and
        # before checkpoint truncation deletes them, which is what makes
        # point-in-time recovery past the latest backup possible.
        self.archiver = None

    # ------------------------------------------------------------------ #
    # Opening / recovery
    # ------------------------------------------------------------------ #
    @classmethod
    def attach(
        cls,
        disk: DiskIO,
        root: Path,
        checkpoint_lsn: int = 0,
        durability: str = "group",
        group_commit_size: int = DEFAULT_GROUP_COMMIT_SIZE,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        reader=record,
    ) -> tuple["WriteAheadLog", WalRecovery]:
        """Open (or create) the log at ``root`` and recover its tail.

        Walks the log once (:func:`read_log`, ``reader`` as there, which
        also names the blobs the log holds), raises
        :class:`WalCorruptError` on the first verdict of
        :func:`judge_log` that is not ok, truncates the torn tail it
        names, and returns the log (positioned to append after the last
        valid record) plus the records with LSN > ``checkpoint_lsn`` that
        the caller must replay.
        """
        root = Path(root)
        log = read_log(disk, root, reader)
        verdicts = judge_log(log, checkpoint_lsn)
        refused = next((v for v in verdicts if not v.ok), None)
        if refused is not None:
            raise WalCorruptError(refused.detail, segment=refused.segment)
        if verdicts and verdicts[-1].status == "torn-tail":
            path, good_bytes = root / log[-1].name, log[-1].scan.good_bytes
            if good_bytes:  # rewrite the valid prefix atomically
                disk.write_file(path, disk.read_file(path)[:good_bytes])
            else:
                disk.remove(path)
            metrics.increment("storage.wal.replay.torn_tails_truncated")
        all_records = log_records(log)
        last_lsn = max(checkpoint_lsn, all_records[-1].lsn if all_records else 0)
        recovery = WalRecovery(
            replay_records=[r for r in all_records if r.lsn > checkpoint_lsn],
            blobs=reader.logged_blobs(all_records),
            last_lsn=last_lsn,
        )
        live_segments = [
            _Segment(root / s.name, s.first_lsn, s.scan.good_bytes, s.last_lsn)
            for s in log
            if s.scan.good_bytes > 0
        ]
        wal = cls(
            disk,
            root,
            durability=durability,
            group_commit_size=group_commit_size,
            segment_bytes=segment_bytes,
            last_lsn=last_lsn,
            segments=live_segments,
        )
        return wal, recovery

    # ------------------------------------------------------------------ #
    # Appending / committing
    # ------------------------------------------------------------------ #
    def log_statement(
        self, rtype: WalRecordType, table: str, payload: bytes, txn_id: int = 0
    ) -> int:
        """Append one statement's redo record and commit it.

        This is the facade's single entry point for auto-committed
        statements: the append and the commit happen under one lock
        acquisition, so concurrent writers' statements never interleave
        inside a commit boundary. Records inside an explicit transaction
        use :meth:`append` alone — durability waits for the TXN_COMMIT.
        """
        with self._lock:
            lsn = self.append(rtype, table, payload, txn_id)
            self.commit()
            return lsn

    def append(
        self, rtype: WalRecordType, table: str, payload: bytes, txn_id: int = 0
    ) -> int:
        """Append one record (no durability yet); returns its LSN."""
        with self._lock:
            lsn = self._last_lsn + 1
            frame = encode_record(rtype, lsn, table, payload, txn_id)
            segment = self._segment_for_append(lsn, len(frame))
            created = segment.size == 0
            if created:
                self.disk.make_dirs(self.root)
            self.disk.append_file(segment.path, frame)
            if created:
                # The append created the segment file; persist its
                # directory entry now. Without this a power cut could
                # unlink the file on a metadata-lazy filesystem no
                # matter how many times its *contents* were fsynced.
                self.disk.sync_dir(self.root)
            segment.size += len(frame)
            segment.last_lsn = lsn
            self._last_lsn = lsn
            metrics.increment("storage.wal.records_appended")
            metrics.increment("storage.wal.bytes_appended", len(frame))
            return lsn

    def _segment_for_append(self, lsn: int, frame_bytes: int) -> _Segment:
        tail = self._segments[-1] if self._segments else None
        if tail is not None and (
            tail.size == 0 or tail.size + frame_bytes <= self.segment_bytes
        ):
            return tail
        # Rotate: the previous segment must be durable before records
        # start landing in a new one, or a crash could lose the middle of
        # the log while keeping its end.
        if tail is not None and self._durable_lsn < tail.last_lsn:
            self._fsync_tail()
        if tail is not None:
            self.disk.close_file(tail.path)
            # The outgoing tail is sealed: archive it now so the archive
            # tracks rotation instead of lagging until the next
            # checkpoint truncation.
            self._archive(tail)
        segment = _Segment(
            path=self.root / _segment_name(lsn), first_lsn=lsn, size=0, last_lsn=lsn - 1
        )
        self._segments.append(segment)
        metrics.increment("storage.wal.segments_created")
        return segment

    def commit(self) -> None:
        """Make everything appended so far durable per the current mode."""
        with self._lock:
            metrics.increment("storage.wal.commits")
            if self._durable_lsn >= self._last_lsn:
                return  # piggybacked on an earlier writer's fsync
            self._pending_commits += 1
            if self.durability == "off":
                return
            if (
                self.durability == "per-commit"
                or self._pending_commits >= self.group_commit_size
            ):
                self._flush_pending()

    def flush(self) -> None:
        """Force-fsync all pending records regardless of mode."""
        with self._lock:
            if self._durable_lsn < self._last_lsn:
                self._flush_pending()

    def _flush_pending(self) -> None:
        batch = max(1, self._pending_commits)
        self._fsync_tail()
        if batch > 1:
            metrics.increment("storage.wal.group_commit.batched_commits", batch)
        metrics.get_registry().max_gauge(
            "storage.wal.group_commit.max_batch", batch
        )
        self._pending_commits = 0

    def _fsync_tail(self) -> None:
        """fsync every segment holding non-durable records."""
        for segment in self._segments:
            if segment.last_lsn > self._durable_lsn and segment.size > 0:
                self.disk.sync_file(segment.path)
                metrics.increment("storage.wal.fsyncs")
        self._durable_lsn = self._last_lsn

    # ------------------------------------------------------------------ #
    # Archiving
    # ------------------------------------------------------------------ #
    def set_archiver(self, archiver) -> None:
        """Attach a segment archiver and catch up on sealed segments.

        ``archiver`` is duck-typed (see
        :class:`repro.backup.archive.WalArchiver`): it must offer
        ``archive_segment(disk, path, first_lsn)`` and ``prune()``.
        Catch-up covers segments sealed while no archiver was attached —
        e.g. rotation immediately followed by a crash, before the
        rotation hook could run.
        """
        with self._lock:
            self.archiver = archiver
            for segment in self._segments[:-1]:
                if segment.size > 0:
                    self._archive(segment)

    def _archive(self, segment: _Segment) -> bool:
        """Copy one sealed segment into the archive (best-effort).

        Returns True when the segment is (now) safely archived. A real
        I/O failure or a CRC failure in the source must not fail the
        commit path that triggered the rotation — the segment simply
        stays pending (and, in :meth:`truncate_covered`, stays live) and
        ``wal.archive.failures`` counts the miss. An
        :class:`~repro.storage.diskio.InjectedFault` is a simulated
        power cut and propagates like one.
        """
        if self.archiver is None or segment.size == 0:
            return True
        try:
            return self.archiver.archive_segment(
                self.disk, segment.path, segment.first_lsn
            )
        except (OSError, WalCorruptError):
            metrics.increment("wal.archive.failures")
            return False

    def set_durability(self, mode: str) -> None:
        """Switch durability mode; tightening the mode flushes first."""
        mode = normalize_durability(mode)
        with self._lock:
            self.durability = mode
            if mode != "off":
                self.flush()

    def close(self) -> None:
        self.flush()
        for segment in self._segments:
            self.disk.close_file(segment.path)

    # ------------------------------------------------------------------ #
    # Checkpointing
    # ------------------------------------------------------------------ #
    def truncate_covered(self, checkpoint_lsn: int) -> int:
        """Delete segments every record of which is ≤ ``checkpoint_lsn``,
        oldest first, up to the first one the archiver cannot take.

        Called after a snapshot whose manifest records ``checkpoint_lsn``
        committed; returns how many segments were removed. Removal is
        safe at any point after the manifest rename — replay skips
        covered records anyway — so a crash mid-truncation only leaves
        stale segments for the next checkpoint to collect.
        """
        removed = 0
        with self._lock:
            kept: list[_Segment] = []
            for segment in self._segments:
                if kept or segment.last_lsn > checkpoint_lsn:
                    # Behind a kept segment every later one stays too: a
                    # live log with a hole in it would not open.
                    kept.append(segment)
                elif segment.size == 0:
                    self.disk.remove(segment.path)
                elif self._archive(segment):
                    # Archive-before-delete: with an archiver attached a
                    # covered segment may only vanish from the live log
                    # once the archive provably holds it — otherwise it
                    # stays live and the next checkpoint retries.
                    self.disk.remove(segment.path)
                    removed += 1
                else:
                    kept.append(segment)
            self._segments = kept
            if removed:
                metrics.increment("storage.wal.segments_deleted", removed)
            metrics.increment("storage.wal.checkpoints")
            if self.archiver is not None:
                try:
                    self.archiver.prune()
                except OSError:  # pragma: no cover - platform dependent
                    metrics.increment("wal.archive.failures")
        return removed

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def last_lsn(self) -> int:
        return self._last_lsn

    @property
    def durable_lsn(self) -> int:
        return self._durable_lsn

    @property
    def first_live_lsn(self) -> int:
        """The oldest LSN the live segments still hold (one past the last
        when they hold none)."""
        with self._lock:
            held = [s.first_lsn for s in self._segments if s.size > 0]
            return min(held, default=self._last_lsn + 1)

    def status(self) -> dict:
        """A point-in-time summary (the shell's ``\\wal`` command)."""
        with self._lock:
            status = {
                "durability": self.durability,
                "group_commit_size": self.group_commit_size,
                "last_lsn": self._last_lsn,
                "durable_lsn": self._durable_lsn,
                "pending_commits": self._pending_commits,
                "segments": len([s for s in self._segments if s.size > 0]),
                "bytes": sum(s.size for s in self._segments),
            }
            if self.archiver is not None:
                live = [
                    s.path.name for s in self._segments if s.size > 0
                ]
                status["archive"] = self.archiver.status(live_segments=live)
            return status


# ---------------------------------------------------------------------- #
# Shared helpers
# ---------------------------------------------------------------------- #
def _list_segments(names: list[str]) -> list[tuple[int, str]]:
    """(first_lsn, file name) of every segment among ``names``, in LSN order."""
    return sorted((int(m.group(1)), name) for name in names if (m := _SEGMENT_RE.match(name)))


class LoggedSegment(NamedTuple):
    """One segment of a walked log: its file name, the LSN its name says
    it starts at, and what its scan found."""

    name: str
    first_lsn: int
    scan: SegmentScan

    @property
    def last_lsn(self) -> int:
        return self.scan.records[-1].lsn if self.scan.records else self.first_lsn - 1


def read_log(
    disk: DiskIO, root: Path, reader=record, images: dict[str, bytes] | None = None
) -> list[LoggedSegment]:
    """Every segment at ``root`` (a live log, an archive or a backup's
    log) in LSN order, each read once and scanned by ``reader``: a module
    with ``scan_segment`` and ``logged_blobs``, :mod:`repro.wal.record`,
    or :mod:`repro.storage.compat` for a log an earlier build wrote. The
    only reader of a log directory; it decides nothing. ``images`` (file
    name -> bytes) is a log already read and checked: its segments are
    walked in place of the directory's."""
    root = Path(root)
    if images is None:
        names, read = disk.listdir(root), lambda name: disk.read_file(root / name)
    else:
        names, read = list(images), images.__getitem__
    return [
        LoggedSegment(name, first_lsn, reader.scan_segment(read(name), first_lsn, name))
        for first_lsn, name in _list_segments(names)
    ]


def log_records(log: list[LoggedSegment]) -> list[WalRecord]:
    """Every record a walked log holds, up to any damage in each segment."""
    return [found for segment in log for found in segment.scan.records]


def _segment_image(records: list[WalRecord]) -> tuple[str, bytes]:
    """File name and bytes of one segment holding ``records`` (LSN-
    consecutive, at least one): a backup's or a restore's clipped log."""
    data = b"".join(
        encode_record(r.rtype, r.lsn, r.table, r.payload, r.txn_id) for r in records
    )
    return _segment_name(records[0].lsn), data


# ---------------------------------------------------------------------- #
# Offline integrity checking (`repro check <dir>` / `\check`)
# ---------------------------------------------------------------------- #
@dataclass
class WalVerdict:
    """Verdict for one WAL segment (or the log as a whole)."""

    segment: str
    # ok | stale | torn-tail | corrupt | lsn-gap | checkpoint-gap, and
    # for a sealed archive archive-gap (check_archive adds a blob's
    # missing, size-mismatch or checksum-mismatch)
    status: str
    detail: str = ""

    @property
    def ok(self) -> bool:
        # A torn tail is recoverable by design (recovery truncates it);
        # stale segments are covered by the checkpoint and merely await
        # collection. Neither loses committed data.
        return self.status in ("ok", "stale", "torn-tail")


def judge_log(
    log: list[LoggedSegment], checkpoint_lsn: int = 0, sealed: bool = False
) -> list[WalVerdict]:
    """The one rule for what a walked log means: a verdict per segment,
    one more before each segment that does not start where the previous
    one ended, and for a live log one for the whole log when the records
    past ``checkpoint_lsn`` do not start right after it.

    In a live log only the final segment may end in a torn append (an
    interrupted write, which recovery truncates); anywhere else, or in a
    ``sealed`` log (an archive or a backup, whose copies were complete),
    any damage is ``corrupt`` and a gap is ``archive-gap``. Damage ends
    the chain, so the segment after it is not also reported as a gap.
    """
    verdicts: list[WalVerdict] = []
    previous: int | None = None
    for index, segment in enumerate(log):
        name, scan = segment.name, segment.scan
        if previous is not None and segment.first_lsn != previous + 1:
            gap = f"starts at LSN {segment.first_lsn} but the previous segment ended at {previous}"
            verdicts.append(
                WalVerdict(name, "archive-gap", f"{gap} — restore targets in between are unreachable")
                if sealed
                else WalVerdict(name, "lsn-gap", f"{gap} — missing segment?")
            )
        previous = segment.last_lsn if scan.damage is None else None
        if scan.damage is not None:
            where = f"byte {scan.damage.offset}: {scan.damage.detail}"
            if scan.damage.kind == "corrupt" or sealed or index != len(log) - 1:
                verdicts.append(WalVerdict(name, "corrupt", where))
            else:
                verdicts.append(WalVerdict(name, "torn-tail", f"{where} (recovery will truncate)"))
        elif not scan.records:
            verdicts.append(WalVerdict(name, "ok", "empty segment"))
        else:
            span = f"LSN {segment.first_lsn}..{segment.last_lsn}"
            if sealed or segment.last_lsn > checkpoint_lsn:
                verdicts.append(WalVerdict(name, "ok", f"{span}, {len(scan.records)} records"))
            else:
                verdicts.append(WalVerdict(name, "stale", f"{span} covered by checkpoint"))
    oldest = next((s.first_lsn for s in log if s.scan.records), None)
    if (
        not sealed
        and all(v.ok for v in verdicts)
        and oldest is not None
        and log[-1].last_lsn > checkpoint_lsn
        and oldest > checkpoint_lsn + 1
    ):
        verdicts.append(
            WalVerdict(
                "(log)",
                "checkpoint-gap",
                f"manifest checkpoint is LSN {checkpoint_lsn} but the "
                f"oldest log record is {oldest} — records "
                f"{checkpoint_lsn + 1}..{oldest - 1} are missing",
            )
        )
    return verdicts


def check_wal(disk: DiskIO, root: Path, checkpoint_lsn: int) -> list[WalVerdict]:
    """The verdicts :meth:`WriteAheadLog.attach` would act on, for the
    log at ``root``, without mutating anything; never raises."""
    return judge_log(read_log(disk, root), checkpoint_lsn)
