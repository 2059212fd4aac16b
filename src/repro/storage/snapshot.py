"""Checksummed manifest snapshots: the crash-safe save/load protocol.

A saved database directory looks like::

    <root>/MANIFEST.json          the commit record (atomic rename, last)
    <root>/snap_000003/...        all data files of snapshot 3
    <root>/snap_000004/...        a newer snapshot, or an interrupted save

Every save writes its files into a **fresh** snapshot directory (ids
strictly increase, so an interrupted save can never collide with or
overwrite committed data), then commits by atomically renaming
``MANIFEST.json`` into place. The manifest records the snapshot id and,
for every file, its byte size and CRC-32C — the manifest also carries a
checksum over itself. A save is therefore all-or-nothing:

* crash before the manifest rename -> the old manifest still points at
  the old, untouched snapshot directory; the half-written new directory
  is garbage-collected on the next open;
* crash after the rename -> the new snapshot is complete (every data
  file was fsynced and renamed before the manifest was written).

Opening verifies the size and checksum of every listed file before any
byte is deserialized, raising :class:`~repro.errors.CorruptBlobError`
naming each offending path. Recovery activity reports into the metrics
registry under the stable ``storage.recovery.*`` counters.

Pre-manifest directories (``catalog.json`` at the root, a layout no
writer has produced since manifests were introduced) carry no checksums
and are refused: opening one raises :class:`~repro.errors.RecoveryError`
naming the layout, and ``repro check`` reports it as ``missing``.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath

from ..errors import CorruptBlobError, RecoveryError
from ..observability import registry as metrics
from .diskio import DiskIO, crc32c

MANIFEST_NAME = "MANIFEST.json"
MANIFEST_VERSION = 1

_SNAP_DIR_RE = re.compile(r"^snap_(\d{6,})$")


def _snapshot_dir_name(snapshot_id: int) -> str:
    return f"snap_{snapshot_id:06d}"


# ---------------------------------------------------------------------- #
# Manifest
# ---------------------------------------------------------------------- #
@dataclass
class ManifestEntry:
    """One file of a snapshot: path relative to the snapshot directory."""

    path: str
    size: int
    crc32c: int


@dataclass
class Manifest:
    snapshot_id: int
    files: list[ManifestEntry] = field(default_factory=list)
    # Last WAL LSN whose effects this snapshot contains: replay-on-open
    # skips records at or below it, and the checkpoint truncates segments
    # it fully covers. 0 means "no WAL" (or a pre-WAL manifest).
    checkpoint_lsn: int = 0

    @property
    def directory(self) -> str:
        return _snapshot_dir_name(self.snapshot_id)

    def to_json(self) -> bytes:
        body = {
            "format_version": MANIFEST_VERSION,
            "snapshot_id": self.snapshot_id,
            "directory": self.directory,
            "checkpoint_lsn": self.checkpoint_lsn,
            "files": [
                {"path": e.path, "size": e.size, "crc32c": f"{e.crc32c:08x}"}
                for e in self.files
            ],
        }
        body["manifest_crc32c"] = f"{_self_checksum(body):08x}"
        return (json.dumps(body, indent=1, sort_keys=True) + "\n").encode("utf-8")

    @classmethod
    def from_json(cls, payload: bytes, source: str) -> "Manifest":
        try:
            body = json.loads(payload.decode("utf-8"))
            if body["format_version"] != MANIFEST_VERSION:
                raise RecoveryError(
                    f"{source}: unsupported manifest format_version "
                    f"{body['format_version']}"
                )
            recorded = int(body["manifest_crc32c"], 16)
            del body["manifest_crc32c"]
            if recorded != _self_checksum(body):
                raise CorruptBlobError("manifest self-checksum mismatch", path=source)
            files = [
                ManifestEntry(
                    path=str(entry["path"]),
                    size=int(entry["size"]),
                    crc32c=int(entry["crc32c"], 16),
                )
                for entry in body["files"]
            ]
            return cls(
                snapshot_id=int(body["snapshot_id"]),
                files=files,
                checkpoint_lsn=int(body.get("checkpoint_lsn", 0)),
            )
        except (RecoveryError, CorruptBlobError):
            raise
        except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
            raise RecoveryError(f"{source}: unreadable manifest ({exc})") from exc


def _self_checksum(body: dict) -> int:
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return crc32c(canonical.encode("utf-8"))


def load_manifest(disk: DiskIO, root: Path) -> Manifest | None:
    """The committed manifest of ``root``, or ``None`` if there is none."""
    path = Path(root) / MANIFEST_NAME
    if not disk.exists(path):
        return None
    return Manifest.from_json(disk.read_file(path), source=str(path))


# ---------------------------------------------------------------------- #
# Writing a snapshot
# ---------------------------------------------------------------------- #
class SnapshotWriter:
    """Accumulates one snapshot's files, then commits them atomically.

    ``write`` puts each file into the new snapshot directory (via
    write-temp/fsync/rename) and records its size and checksum;
    ``commit`` writes the manifest — the single atomic commit point —
    and garbage-collects superseded snapshot directories.
    """

    def __init__(self, disk: DiskIO, root: Path) -> None:
        self.disk = disk
        self.root = Path(root)
        self.disk.mkdir(self.root)
        self.snapshot_id = self._next_snapshot_id()
        self._dir = self.root / _snapshot_dir_name(self.snapshot_id)
        self._entries: list[ManifestEntry] = []
        # True once commit() verified the manifest rename actually stuck
        # (callers gate destructive follow-ups — WAL truncation — on it).
        self.committed = False

    def _next_snapshot_id(self) -> int:
        # Strictly greater than the committed snapshot AND any leftover
        # snapshot directory, so an interrupted save never collides.
        latest = 0
        try:
            manifest = load_manifest(self.disk, self.root)
        except (RecoveryError, CorruptBlobError):
            manifest = None  # a corrupt manifest must not block re-saving
        if manifest is not None:
            latest = manifest.snapshot_id
        for name in self.disk.listdir(self.root):
            match = _SNAP_DIR_RE.match(name)
            if match:
                latest = max(latest, int(match.group(1)))
        return latest + 1

    def write(self, relpath: str, data: bytes) -> None:
        """Write one file (path relative to the snapshot directory)."""
        rel = PurePosixPath(relpath)
        self.disk.write_file(self._dir / rel, data)
        self._entries.append(
            ManifestEntry(path=str(rel), size=len(data), crc32c=crc32c(data))
        )

    def commit(self, checkpoint_lsn: int = 0) -> Manifest:
        manifest = Manifest(
            snapshot_id=self.snapshot_id,
            files=list(self._entries),
            checkpoint_lsn=checkpoint_lsn,
        )
        # The snap_<id>/ directory entry must be durable *before* the
        # manifest names it: file writes fsync their own parent (the
        # snapshot directory) but not the root, so without this a power
        # cut right after the manifest rename could commit a manifest
        # pointing at a directory whose entry never reached the platter.
        self.disk.sync_dir(self.root)
        self.disk.write_file(self.root / MANIFEST_NAME, manifest.to_json())
        # Garbage collection is destructive, so read the manifest back
        # and only collect once it provably points at this snapshot — if
        # the rename was lost (dropped-rename fault, lying disk), the
        # previous snapshot is still the live one and must survive.
        try:
            committed = load_manifest(self.disk, self.root)
        except (RecoveryError, CorruptBlobError):
            committed = None
        if committed is not None and committed.snapshot_id == self.snapshot_id:
            self.committed = True
            collect_garbage(self.disk, self.root, keep_id=self.snapshot_id)
        return manifest


def collect_garbage(disk: DiskIO, root: Path, keep_id: int | None) -> int:
    """Remove snapshot directories other than ``keep_id`` and stray
    ``*.tmp`` files at the root; returns how many snapshots were removed."""
    root = Path(root)
    removed = 0
    for name in disk.listdir(root):
        match = _SNAP_DIR_RE.match(name)
        if match and (keep_id is None or int(match.group(1)) != keep_id):
            disk.remove_tree(root / name)
            removed += 1
        elif name.endswith(".tmp"):
            disk.remove(root / name)
    return removed


# ---------------------------------------------------------------------- #
# Reading a snapshot
# ---------------------------------------------------------------------- #
class SnapshotReader:
    """Verified, in-memory view of one committed snapshot."""

    def __init__(self, manifest: Manifest, files: dict[str, bytes]) -> None:
        self.manifest = manifest
        self._files = files

    def read(self, relpath: str) -> bytes:
        try:
            return self._files[str(PurePosixPath(relpath))]
        except KeyError:
            raise RecoveryError(
                f"file {relpath!r} is not part of snapshot "
                f"{self.manifest.snapshot_id}"
            ) from None

    def exists(self, relpath: str) -> bool:
        return str(PurePosixPath(relpath)) in self._files


def _no_manifest_detail(disk: DiskIO, root: Path) -> str:
    """Why ``root`` (which has no manifest) is not an openable database."""
    if disk.exists(root / "catalog.json"):
        return (
            f"a root-level catalog.json without {MANIFEST_NAME} is the "
            "pre-manifest layout, which has no checksums and is no longer read"
        )
    return f"no {MANIFEST_NAME} here"


def open_snapshot(disk: DiskIO, root: Path) -> SnapshotReader:
    """Open the committed snapshot of ``root``: locate the newest complete
    manifest, verify every checksum, and roll back interrupted saves.

    Raises :class:`RecoveryError` if no manifest exists (naming the
    pre-manifest layout when that is what the directory holds) and
    :class:`CorruptBlobError` naming every file whose size or checksum
    does not match the manifest.
    """
    root = Path(root)
    manifest = load_manifest(disk, root)
    if manifest is None:
        raise RecoveryError(
            f"no database found at {root}: {_no_manifest_detail(disk, root)}"
        )
    files: dict[str, bytes] = {}
    failures: list[str] = []
    snap_dir = root / manifest.directory
    for entry in manifest.files:
        problem = None
        path = snap_dir / PurePosixPath(entry.path)
        if not disk.exists(path):
            problem = "missing"
        else:
            data = disk.read_file(path)
            if len(data) != entry.size:
                problem = f"size mismatch (expected {entry.size}, got {len(data)})"
            elif crc32c(data) != entry.crc32c:
                problem = "checksum mismatch"
            else:
                files[entry.path] = data
        if problem is None:
            metrics.increment("storage.recovery.files_verified")
        else:
            metrics.increment("storage.recovery.checksum_failures")
            failures.append(f"{path} [{problem}]")
    if failures:
        raise CorruptBlobError(
            f"snapshot {manifest.snapshot_id} failed verification: "
            + "; ".join(failures)
        )
    # Interrupted newer/older saves are now provably irrelevant: roll
    # them back (remove their directories and stray temp files).
    rolled_back = collect_garbage(disk, root, keep_id=manifest.snapshot_id)
    if rolled_back:
        metrics.increment("storage.recovery.snapshots_rolled_back", rolled_back)
    return SnapshotReader(manifest, files)


# ---------------------------------------------------------------------- #
# Integrity checking (CLI `repro check <dir>` / `\check`)
# ---------------------------------------------------------------------- #
@dataclass
class FileVerdict:
    path: str
    status: str  # ok | missing | size-mismatch | checksum-mismatch | undecodable
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass
class IntegrityReport:
    root: str
    manifest_status: str  # ok | missing | corrupt | wal-only | restore-in-progress
    snapshot_id: int | None = None
    verdicts: list[FileVerdict] = field(default_factory=list)
    detail: str = ""
    checkpoint_lsn: int = 0
    wal_verdicts: list = field(default_factory=list)  # list[WalVerdict]
    archive_verdicts: list = field(default_factory=list)  # list[WalVerdict]

    @property
    def ok(self) -> bool:
        snapshot_ok = self.manifest_status in ("ok", "wal-only") and all(
            v.ok for v in self.verdicts
        )
        return (
            snapshot_ok
            and all(v.ok for v in self.wal_verdicts)
            and all(v.ok for v in self.archive_verdicts)
        )

    def render(self) -> list[str]:
        lines = [f"integrity check of {self.root}"]
        if self.manifest_status == "ok":
            lines.append(
                f"manifest: ok (snapshot {self.snapshot_id}, "
                f"{len(self.verdicts)} files, checkpoint LSN "
                f"{self.checkpoint_lsn})"
            )
        else:
            lines.append(f"manifest: {self.manifest_status} {self.detail}".rstrip())
        for verdict in self.verdicts:
            line = f"  {verdict.path}: {verdict.status}"
            if verdict.detail:
                line += f" ({verdict.detail})"
            lines.append(line)
        if self.wal_verdicts:
            lines.append(f"wal: {len(self.wal_verdicts)} segment verdicts")
            for verdict in self.wal_verdicts:
                line = f"  wal/{verdict.segment}: {verdict.status}"
                if verdict.detail:
                    line += f" ({verdict.detail})"
                lines.append(line)
        if self.archive_verdicts:
            lines.append(
                f"archive: {len(self.archive_verdicts)} verdicts"
            )
            for verdict in self.archive_verdicts:
                line = f"  wal_archive/{verdict.segment}: {verdict.status}"
                if verdict.detail:
                    line += f" ({verdict.detail})"
                lines.append(line)
        bad = (
            sum(not v.ok for v in self.verdicts)
            + sum(not v.ok for v in self.wal_verdicts)
            + sum(not v.ok for v in self.archive_verdicts)
        )
        lines.append(
            "result: ok"
            if self.ok
            else f"result: FAILED ({bad} bad file{'s' if bad != 1 else ''})"
        )
        return lines


def check_database(disk: DiskIO, root: Path) -> IntegrityReport:
    """Scan a saved database and report a per-file verdict.

    Never raises for corruption — corruption is the *result*. Verifies
    manifest self-checksum, per-file existence/size/CRC-32C, and that
    every segment blob structurally decodes.
    """
    from ..backup.archive import ARCHIVE_DIR_NAME, check_archive
    from ..backup.manifest import RESTORE_MARKER_NAME
    from ..wal.log import WAL_DIR_NAME, check_wal

    root = Path(root)
    if disk.exists(root / RESTORE_MARKER_NAME):
        return IntegrityReport(
            root=str(root),
            manifest_status="restore-in-progress",
            detail=f"({RESTORE_MARKER_NAME} marker present: an interrupted "
            "restore — this directory is not a committed database)",
        )
    wal_dir = root / WAL_DIR_NAME
    has_wal = disk.is_dir(wal_dir)
    if not disk.exists(root / MANIFEST_NAME):
        if has_wal:
            # A database that crashed before its first checkpoint: the
            # whole state lives in the log.
            return IntegrityReport(
                root=str(root),
                manifest_status="wal-only",
                detail="(no snapshot yet: all state is in the log)",
                wal_verdicts=check_wal(disk, wal_dir, checkpoint_lsn=0),
            )
        return IntegrityReport(
            root=str(root),
            manifest_status="missing",
            detail=f"({_no_manifest_detail(disk, root)})",
        )
    try:
        manifest = load_manifest(disk, root)
    except (RecoveryError, CorruptBlobError) as exc:
        return IntegrityReport(
            root=str(root), manifest_status="corrupt", detail=f"({exc})"
        )
    assert manifest is not None
    report = IntegrityReport(
        root=str(root),
        manifest_status="ok",
        snapshot_id=manifest.snapshot_id,
        checkpoint_lsn=manifest.checkpoint_lsn,
    )
    snap_dir = root / manifest.directory
    for entry in manifest.files:
        path = snap_dir / PurePosixPath(entry.path)
        if not disk.exists(path):
            verdict = FileVerdict(entry.path, "missing")
        else:
            data = disk.read_file(path)
            if len(data) != entry.size:
                verdict = FileVerdict(
                    entry.path,
                    "size-mismatch",
                    f"expected {entry.size} bytes, found {len(data)}",
                )
            elif crc32c(data) != entry.crc32c:
                verdict = FileVerdict(entry.path, "checksum-mismatch")
            else:
                verdict = _decode_verdict(entry.path, data)
        if verdict.ok:
            metrics.increment("storage.recovery.files_verified")
        else:
            metrics.increment("storage.recovery.checksum_failures")
        report.verdicts.append(verdict)
    if has_wal:
        report.wal_verdicts = check_wal(
            disk, wal_dir, checkpoint_lsn=manifest.checkpoint_lsn
        )
    if disk.is_dir(root / ARCHIVE_DIR_NAME):
        report.archive_verdicts = check_archive(disk, root / ARCHIVE_DIR_NAME)
    return report


def _decode_verdict(relpath: str, data: bytes) -> FileVerdict:
    """Structural decode check for self-describing file types."""
    from ..errors import EncodingError
    from . import blob

    if relpath.endswith(".seg"):
        try:
            blob.deserialize_segment(data)
        except EncodingError as exc:
            return FileVerdict(relpath, "undecodable", str(exc))
    elif relpath.endswith(".json"):
        try:
            json.loads(data.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            return FileVerdict(relpath, "undecodable", str(exc))
    return FileVerdict(relpath, "ok")
