"""Checksummed manifest snapshots: the crash-safe save/load protocol.

A saved database directory looks like::

    <root>/MANIFEST.json          the commit record (atomic rename, last)
    <root>/segments/<table>/rowgroups/g<id>.<col>.<crc32c>.seg
                                  the segment pool: immutable blobs,
                                  written once, shared by every snapshot
    <root>/snap_000004/...        what snapshot 4 wrote fresh: catalog,
                                  delta stores, delete bitmaps, heaps

Compressed segments never change after they are built, so a save writes
a segment blob only when this root does not hold it yet: the pool is
what the paper calls the blob store, the manifest is its directory, and
a checkpoint costs what changed — delta stores, delete bitmaps, small
metadata, the manifest. A blob's name carries the CRC-32C of its bytes,
so a re-encoded segment (archival, REBUILD) gets a new name and never
overwrites the blob a committed manifest still points at.

The manifest (``format_version`` 2) lists every file of the snapshot by
its path relative to the root — pool blobs and fresh files alike — with
its byte size and CRC-32C, and carries a checksum over itself. Fresh
files go into a **new** snapshot directory (ids strictly increase, so an
interrupted save never collides with committed data) and the save
commits by atomically renaming ``MANIFEST.json`` into place; every pool
blob and directory entry it names is durable before that rename. A save
is therefore all-or-nothing:

* crash before the manifest rename -> the old manifest still names only
  files nothing has touched; whatever the interrupted save wrote is
  unreferenced and collected on the next open;
* crash after the rename -> the new snapshot is complete.

Garbage collection is one rule, applied only after a manifest has been
read back and verified: under the pool and the snapshot directories,
remove every file the committed manifest does not name (and stray
``*.tmp`` files at the root). Nothing a committed manifest names is
removed before a newer manifest is committed.

Opening verifies the size and checksum of every listed file before any
byte is deserialized, raising :class:`~repro.errors.CorruptBlobError`
naming each offending path. Recovery activity reports into the metrics
registry under the stable ``storage.recovery.*`` counters; what a save
wrote, reused and checksummed under ``storage.snapshot.*``.

``format_version`` 1 manifests (every file inside ``snap_<id>/``, paths
relative to it) are still read — their paths are prefixed with their
directory — and never written; the first save rewrites such a root in
the pool layout. Pre-manifest directories (``catalog.json`` at the root)
carry no checksums and are refused: opening one raises
:class:`~repro.errors.RecoveryError` naming the layout, and ``repro
check`` reports it as ``missing``.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath

from ..errors import CorruptBlobError, RecoveryError
from ..observability import registry as metrics
from .blob import deserialize_segment, serialize_segment
from .diskio import DiskIO, crc32c
from .segment import ColumnSegment

MANIFEST_NAME = "MANIFEST.json"
MANIFEST_VERSION = 2
POOL_DIR_NAME = "segments"

_SNAP_DIR_RE = re.compile(r"^snap_(\d{6,})$")
_POOL_PREFIX = POOL_DIR_NAME + "/"
_SEGMENT_SUFFIX = ".seg"
_POOL_SUFFIX_LENGTH = len(".00000000" + _SEGMENT_SUFFIX)


def _snapshot_dir_name(snapshot_id: int) -> str:
    return f"snap_{snapshot_id:06d}"


def _pool_path(relpath: str, crc: int) -> str:
    """Where the segment blob a snapshot knows as ``relpath`` lives in
    the pool: its name with the blob's checksum in it."""
    return f"{_POOL_PREFIX}{relpath[: -len(_SEGMENT_SUFFIX)]}.{crc:08x}{_SEGMENT_SUFFIX}"


# ---------------------------------------------------------------------- #
# Manifest
# ---------------------------------------------------------------------- #
@dataclass
class ManifestEntry:
    """One file of a snapshot: path relative to the database root."""

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
        """The directory holding the files this snapshot wrote fresh."""
        return _snapshot_dir_name(self.snapshot_id)

    def relpath_of(self, path: str) -> str:
        """The name the persistence layer knows a listed file by: its
        path inside the snapshot directory, or for a pool blob the same
        without the pool prefix and the checksum."""
        if path.startswith(_POOL_PREFIX):
            return path[len(_POOL_PREFIX) : -_POOL_SUFFIX_LENGTH] + _SEGMENT_SUFFIX
        return path[len(self.directory) + 1 :]

    def to_json(self) -> bytes:
        body = {
            "format_version": MANIFEST_VERSION,
            "snapshot_id": self.snapshot_id,
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
            if body["format_version"] not in (1, MANIFEST_VERSION):
                raise RecoveryError(
                    f"{source}: unsupported manifest format_version "
                    f"{body['format_version']}"
                )
            recorded = int(body["manifest_crc32c"], 16)
            del body["manifest_crc32c"]
            if recorded != _self_checksum(body):
                raise CorruptBlobError("manifest self-checksum mismatch", path=source)
            # Version 1 listed paths relative to its snapshot directory.
            prefix = f"{body['directory']}/" if body["format_version"] == 1 else ""
            files = [
                ManifestEntry(
                    path=prefix + str(entry["path"]),
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
# Which blob holds which segment
# ---------------------------------------------------------------------- #
class StoredSegments:
    """The pool blob of one root that each live segment object was last
    written to or loaded from.

    Segments are immutable, so object identity is content identity: a
    save hands the previous save's (or the load's) record to its writer
    and keeps the writer's, which covers exactly the segments that save
    saw — retired segments drop out with the record they were in.
    """

    def __init__(self, root: Path) -> None:
        self.root = str(Path(root).resolve())
        # Keyed by id(); the segment rides along so the id stays its own.
        self._by_id: dict[int, tuple[ColumnSegment, ManifestEntry]] = {}

    def get(self, segment: ColumnSegment) -> ManifestEntry | None:
        held = self._by_id.get(id(segment))
        return held[1] if held is not None else None

    def put(self, segment: ColumnSegment, entry: ManifestEntry) -> None:
        self._by_id[id(segment)] = (segment, entry)


# ---------------------------------------------------------------------- #
# Writing a snapshot
# ---------------------------------------------------------------------- #
class SnapshotWriter:
    """Accumulates one snapshot's files, then commits them atomically.

    ``write`` puts a file into the new snapshot directory and
    ``write_segment`` puts a segment blob into the pool unless ``stored``
    says this root already holds it (both via write-temp/fsync/rename,
    both recorded with size and checksum); ``commit`` writes the
    manifest — the single atomic commit point — and collects whatever
    the committed manifest no longer names.
    """

    def __init__(
        self, disk: DiskIO, root: Path, stored: StoredSegments | None = None
    ) -> None:
        self.disk = disk
        self.root = Path(root)
        self.disk.mkdir(self.root)
        try:
            previous = load_manifest(self.disk, self.root)
        except (RecoveryError, CorruptBlobError):
            previous = None  # a corrupt manifest must not block re-saving
        self.snapshot_id = self._next_snapshot_id(previous)
        self._directory = _snapshot_dir_name(self.snapshot_id)
        # Created up front: every interrupted save leaves a directory
        # for the next open to roll back and count.
        self.disk.mkdir(self.root / self._directory)
        #: What this save wrote or reused, for the next save to this root.
        self.stored = StoredSegments(self.root)
        # A remembered blob is reused only while the committed manifest
        # still names it: a root that was emptied, replaced or left
        # behind by an interrupted save gets its blobs written again.
        same_root = stored is not None and stored.root == self.stored.root
        self._stored = stored if same_root else StoredSegments(self.root)
        self._committed_paths = (
            {entry.path for entry in previous.files} if previous is not None else set()
        )
        self._entries: list[ManifestEntry] = []
        # Directories whose entries commit() must make durable: always
        # the root (it holds snap_<id>/), plus what leads to new blobs.
        self._unsynced_dirs = {PurePosixPath(".")}
        # True once commit() verified the manifest rename actually stuck
        # (callers gate destructive follow-ups — WAL truncation — on it).
        self.committed = False

    def _next_snapshot_id(self, previous: Manifest | None) -> int:
        # Strictly greater than the committed snapshot AND any leftover
        # snapshot directory, so an interrupted save never collides.
        latest = previous.snapshot_id if previous is not None else 0
        for name in self.disk.listdir(self.root):
            match = _SNAP_DIR_RE.match(name)
            if match:
                latest = max(latest, int(match.group(1)))
        return latest + 1

    def _put(self, path: str, data: bytes, crc: int) -> ManifestEntry:
        self.disk.write_file(self.root / PurePosixPath(path), data)
        metrics.increment("storage.snapshot.files_written")
        metrics.increment("storage.snapshot.bytes_written", len(data))
        metrics.increment("storage.snapshot.bytes_checksummed", len(data))
        entry = ManifestEntry(path=path, size=len(data), crc32c=crc)
        self._entries.append(entry)
        return entry

    def write(self, relpath: str, data: bytes) -> None:
        """Write one file (path relative to the snapshot directory)."""
        self._put(f"{self._directory}/{PurePosixPath(relpath)}", data, crc32c(data))

    def write_segment(self, relpath: str, segment: ColumnSegment) -> None:
        """List a segment under ``relpath``, writing its blob into the
        pool only if this root does not already hold it."""
        entry = self._stored.get(segment)
        if (
            entry is not None
            and entry.path in self._committed_paths
            and self.disk.file_size(self.root / entry.path) == entry.size
        ):
            metrics.increment("storage.snapshot.files_reused")
            self._entries.append(entry)
        else:
            data = serialize_segment(segment)
            crc = crc32c(data)
            entry = self._put(_pool_path(relpath, crc), data, crc)
            # write_file synced the blob's own directory; the entries
            # that lead to it are synced in commit().
            self._unsynced_dirs.update(PurePosixPath(entry.path).parent.parents)
        self.stored.put(segment, entry)

    def commit(self, checkpoint_lsn: int = 0) -> Manifest:
        manifest = Manifest(
            snapshot_id=self.snapshot_id,
            files=list(self._entries),
            checkpoint_lsn=checkpoint_lsn,
        )
        # Every directory entry on the way to a listed file must be
        # durable *before* the manifest names the file. A file write
        # fsyncs its own parent only, so sync the pool directories new
        # blobs went under and the root (which holds the snap_<id>/ and
        # pool entries), deepest first — without this a power cut right
        # after the manifest rename could commit a manifest naming files
        # whose directory never reached the platter.
        for directory in sorted(self._unsynced_dirs, reverse=True):
            self.disk.sync_dir(self.root / directory)
        self.disk.write_file(self.root / MANIFEST_NAME, manifest.to_json())
        # Garbage collection is destructive, so read the manifest back
        # and only collect once it provably is this snapshot's — if the
        # rename was lost (dropped-rename fault, lying disk), the
        # previous manifest is still the live one and every file it
        # names must survive.
        try:
            committed = load_manifest(self.disk, self.root)
        except (RecoveryError, CorruptBlobError):
            committed = None
        if committed is not None and committed.snapshot_id == self.snapshot_id:
            self.committed = True
            collect_garbage(self.disk, self.root, committed)
        return manifest


def collect_garbage(disk: DiskIO, root: Path, manifest: Manifest | None) -> int:
    """Remove every file under the pool and the snapshot directories
    that ``manifest`` does not name, the directories that empties, and
    stray ``*.tmp`` files at the root; returns how many snapshot
    directories went."""
    root = Path(root)
    keep = {entry.path for entry in manifest.files} if manifest is not None else set()
    snapshots_removed = 0
    for name in disk.listdir(root):
        if name == POOL_DIR_NAME:
            _sweep(disk, root / name, name, keep)
        elif _SNAP_DIR_RE.match(name):
            snapshots_removed += not _sweep(disk, root / name, name, keep)
        elif name.endswith(".tmp"):
            disk.remove(root / name)
    return snapshots_removed


def _sweep(disk: DiskIO, path: Path, relpath: str, keep: set[str]) -> bool:
    """Remove ``path`` unless ``keep`` names it or something under it;
    returns whether it stayed."""
    if not disk.is_dir(path):
        if relpath not in keep:
            disk.remove(path)
        return relpath in keep
    stayed = [
        _sweep(disk, path / name, f"{relpath}/{name}", keep)
        for name in disk.listdir(path)
    ]
    if not any(stayed):
        disk.remove_tree(path)
    return any(stayed)


# ---------------------------------------------------------------------- #
# Reading a snapshot
# ---------------------------------------------------------------------- #
class SnapshotReader:
    """Verified, in-memory view of one committed snapshot, keyed by the
    names the persistence layer wrote the files under."""

    def __init__(
        self, manifest: Manifest, files: dict[str, bytes], stored: StoredSegments
    ) -> None:
        self.manifest = manifest
        self._files = files
        self._entries = {manifest.relpath_of(e.path): e for e in manifest.files}
        #: The pool blob each segment handed out came from.
        self.stored = stored

    def read(self, relpath: str) -> bytes:
        try:
            return self._files[str(PurePosixPath(relpath))]
        except KeyError:
            raise RecoveryError(
                f"file {relpath!r} is not part of snapshot "
                f"{self.manifest.snapshot_id}"
            ) from None

    def read_segment(self, relpath: str) -> ColumnSegment:
        """Deserialize the segment listed under ``relpath``, remembering
        its pool blob so the next save to this root does not rewrite it."""
        segment = deserialize_segment(self.read(relpath))
        entry = self._entries[str(PurePosixPath(relpath))]
        if entry.path.startswith(_POOL_PREFIX):
            self.stored.put(segment, entry)
        return segment

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


def _verify(disk: DiskIO, root: Path, entry: ManifestEntry) -> tuple[bytes | None, str, str]:
    """Read one listed file and hold it to its manifest entry:
    ``(data, "ok", "")``, or ``(None, status, detail)`` with the status
    ``repro check`` reports."""
    path = root / PurePosixPath(entry.path)
    if not disk.exists(path):
        return None, "missing", ""
    data = disk.read_file(path)
    if len(data) != entry.size:
        return None, "size-mismatch", f"expected {entry.size} bytes, found {len(data)}"
    metrics.increment("storage.snapshot.bytes_checksummed", len(data))
    if crc32c(data) != entry.crc32c:
        return None, "checksum-mismatch", ""
    return data, "ok", ""


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
    for entry in manifest.files:
        data, status, detail = _verify(disk, root, entry)
        if data is not None:
            files[manifest.relpath_of(entry.path)] = data
            metrics.increment("storage.recovery.files_verified")
        else:
            metrics.increment("storage.recovery.checksum_failures")
            problem = status.replace("-", " ") + (f" ({detail})" if detail else "")
            failures.append(f"{root / PurePosixPath(entry.path)} [{problem}]")
    if failures:
        raise CorruptBlobError(
            f"snapshot {manifest.snapshot_id} failed verification: "
            + "; ".join(failures)
        )
    # Whatever the manifest does not name is now provably the residue of
    # interrupted saves: roll them back.
    rolled_back = collect_garbage(disk, root, manifest)
    if rolled_back:
        metrics.increment("storage.recovery.snapshots_rolled_back", rolled_back)
    return SnapshotReader(manifest, files, StoredSegments(root))


# ---------------------------------------------------------------------- #
# Integrity checking (CLI `repro check <dir>` / `\check`)
# ---------------------------------------------------------------------- #
@dataclass
class FileVerdict:
    path: str
    # ok | orphan | missing | size-mismatch | checksum-mismatch | undecodable
    status: str
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status in ("ok", "orphan")


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
                f"{sum(v.status != 'orphan' for v in self.verdicts)} files, "
                "checkpoint LSN "
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
    for entry in manifest.files:
        data, status, detail = _verify(disk, root, entry)
        if data is None:
            verdict = FileVerdict(entry.path, status, detail)
        else:
            verdict = _decode_verdict(entry.path, data)
        if verdict.ok:
            metrics.increment("storage.recovery.files_verified")
        else:
            metrics.increment("storage.recovery.checksum_failures")
        report.verdicts.append(verdict)
    # Pool blobs no manifest entry names: what an interrupted save left
    # for the next open to collect. Reported, not an error.
    named = {entry.path for entry in manifest.files}
    report.verdicts.extend(
        FileVerdict(path, "orphan", "not named by the manifest")
        for path in _files_under(disk, root / POOL_DIR_NAME, POOL_DIR_NAME)
        if path not in named
    )
    if has_wal:
        report.wal_verdicts = check_wal(
            disk, wal_dir, checkpoint_lsn=manifest.checkpoint_lsn
        )
    if disk.is_dir(root / ARCHIVE_DIR_NAME):
        report.archive_verdicts = check_archive(disk, root / ARCHIVE_DIR_NAME)
    return report


def _files_under(disk: DiskIO, path: Path, relpath: str) -> list[str]:
    """Root-relative paths of every file under the directory ``path``."""
    found: list[str] = []
    for name in disk.listdir(path):
        if disk.is_dir(path / name):
            found.extend(_files_under(disk, path / name, f"{relpath}/{name}"))
        else:
            found.append(f"{relpath}/{name}")
    return found


def _decode_verdict(relpath: str, data: bytes) -> FileVerdict:
    """Structural decode check for self-describing file types."""
    from ..errors import EncodingError

    if relpath.endswith(_SEGMENT_SUFFIX):
        try:
            deserialize_segment(data)
        except EncodingError as exc:
            return FileVerdict(relpath, "undecodable", str(exc))
    elif relpath.endswith(".json"):
        try:
            json.loads(data.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            return FileVerdict(relpath, "undecodable", str(exc))
    return FileVerdict(relpath, "ok")
