"""Checksummed manifest snapshots: the crash-safe save/load protocol.

A saved database directory looks like::

    <root>/FORMAT                 the on-disk format the directory holds
    <root>/MANIFEST.json          the commit record (atomic rename, last)
    <root>/segments/<table>/rowgroups/g<id>.<col>.<crc32>.seg
                                  the segment pool: immutable blobs,
                                  written once, shared by every snapshot
    <root>/snap_000004/...        what snapshot 4 wrote fresh: catalog,
                                  delta stores, delete bitmaps, heaps

Compressed segments never change after they are built, so a save writes
a segment blob only when this root does not hold it yet: the pool is
what the paper calls the blob store, the manifest is its directory, and
a checkpoint costs what changed — delta stores, delete bitmaps, small
metadata, the manifest. A blob's name carries the checksum of its bytes,
so a re-encoded segment (archival, REBUILD) gets a new name and never
overwrites the blob a committed manifest still points at.

``FORMAT`` holds one JSON object, ``{"format": N}``: the on-disk format
of everything in the directory, written when the directory is made
(:func:`write_stamp`). Everything that opens or reads a directory reads
it first (:func:`read_stamp`): a number above :data:`FORMAT_VERSION` is
refused before anything else is read, and a directory without one (format
0) was written by an earlier build, which :mod:`repro.storage.compat`
reads and the first open upgrades.

The manifest (``format_version`` 3) lists every file of the snapshot by
its path relative to the root — pool blobs and fresh files alike — with
its byte size and CRC-32 (:func:`~repro.storage.diskio.crc32`), and
carries a checksum over itself. Fresh
files go into a **new** snapshot directory (ids strictly increase, so an
interrupted save never collides with committed data) and the save
commits by atomically renaming ``MANIFEST.json`` into place; every pool
blob and directory entry it names is durable before that rename. A save
is therefore all-or-nothing:

* crash before the manifest rename -> the old manifest still names only
  files nothing has touched; whatever the interrupted save wrote is
  unreferenced and collected on the next open;
* crash after the rename -> the new snapshot is complete.

Changes that create compressed row groups write their blobs into the
pool themselves, before their write-ahead log record names them
(:meth:`repro.db.durability.Durability.write_row_groups`); a checkpoint
then reuses those blobs as it reuses the manifest's.

Garbage collection is one rule, applied only after a manifest has been
read back and verified (the checkpoint after its commit, the open after
:func:`open_snapshot`, :func:`collect_garbage` either way): under the
pool and the snapshot directories, remove every file the committed
manifest does not name (and stray ``*.tmp`` files at the root), except a
pool blob a record the live log still holds names, or that a statement
is still writing (``pinned``). Nothing a committed manifest names is
removed before a newer manifest is committed.

Opening verifies the size and checksum of every listed file before any
byte is deserialized, raising :class:`~repro.errors.CorruptBlobError`
naming each offending path. Recovery activity reports into the metrics
registry under the stable ``storage.recovery.*`` counters; what a save
wrote, reused and checksummed under ``storage.snapshot.*``.

Older layouts are refused, each with a
:class:`~repro.errors.RecoveryError` naming it: ``format_version`` 1
manifests (every file inside ``snap_<id>/``, no segment pool) and
pre-manifest directories (``catalog.json`` at the root, no checksums);
``repro check`` reports the latter as ``missing``.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, fields
from pathlib import Path, PurePosixPath
from typing import Callable

from ..errors import CorruptBlobError, RecoveryError
from ..observability import registry as metrics
from .blob import deserialize_segment, serialize_segment
from .diskio import DiskIO, crc32
from .segment import ColumnSegment

FORMAT_NAME = "FORMAT"
#: The on-disk format this build writes and reads: manifests of
#: ``format_version`` 3, CRC-32 checksums everywhere, archives in zlib.
FORMAT_VERSION = 1
STAMP = (json.dumps({"format": FORMAT_VERSION}) + "\n").encode("utf-8")
MANIFEST_NAME = "MANIFEST.json"
MANIFEST_VERSION = 3
POOL_DIR_NAME = "segments"

_SNAP_DIR_RE = re.compile(r"^snap_(\d{6,})$")
_CRC_HEX_RE = re.compile(r"[0-9a-f]{8}")
_POOL_PREFIX = POOL_DIR_NAME + "/"
_SEGMENT_SUFFIX = ".seg"
_POOL_SUFFIX_LENGTH = len(".00000000" + _SEGMENT_SUFFIX)


def _snapshot_dir_name(snapshot_id: int) -> str:
    return f"snap_{snapshot_id:06d}"


# ---------------------------------------------------------------------- #
# The format stamp
# ---------------------------------------------------------------------- #
def read_stamp(disk: DiskIO, root: Path) -> int:
    """The format ``root`` holds: its stamp's number, 0 when it has none
    (an earlier build wrote it). A number above this build's is refused,
    naming both."""
    path = Path(root) / FORMAT_NAME
    return stamp_format(disk.read_file(path) if disk.exists(path) else None, root)


def stamp_format(data: bytes | None, root: Path) -> int:
    """The format number the stamp bytes ``data`` of ``root`` name (0 for
    no stamp), refused when above this build's (:func:`read_stamp`)."""
    if data is None:
        return 0
    path = Path(root) / FORMAT_NAME
    try:
        number = int(json.loads(data.decode("utf-8"))["format"])
    except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
        raise RecoveryError(f"{path}: unreadable format stamp ({exc})") from exc
    if number > FORMAT_VERSION:
        raise RecoveryError(
            f"{root} holds on-disk format {number}, and this build reads "
            f"format {FORMAT_VERSION} and earlier"
        )
    return number


def write_stamp(disk: DiskIO, root: Path) -> None:
    """Stamp ``root`` with this build's format (durable on return)."""
    disk.make_dirs(Path(root))
    disk.write_file(Path(root) / FORMAT_NAME, STAMP)


# ---------------------------------------------------------------------- #
# Manifest
# ---------------------------------------------------------------------- #
def _stored_crc(text: str) -> int:
    """A checksum as written: eight lowercase hex digits (an upper-case
    digit is a flipped bit ``int`` would not see)."""
    if not _CRC_HEX_RE.fullmatch(text):
        raise ValueError(f"checksum {text!r} is not eight lowercase hex digits")
    return int(text, 16)


@dataclass
class ManifestEntry:
    """One file a manifest lists — a snapshot's, a backup's or a logged
    row group's — by its path relative to the directory the manifest
    commits, with its size and CRC-32."""

    path: str
    size: int
    crc: int

    @classmethod
    def of(cls, path: str, data: bytes) -> "ManifestEntry":
        return cls(path, len(data), crc32(data))

    def matches(self, data: bytes) -> bool:
        """Are ``data`` the bytes this entry lists?"""
        return len(data) == self.size and crc32(data) == self.crc

    @classmethod
    def pooled(cls, relpath: str, data: bytes) -> "ManifestEntry":
        """The pool blob holding ``data``, the segment a snapshot knows as
        ``relpath``: its name carries the blob's checksum."""
        crc = crc32(data)
        path = f"{_POOL_PREFIX}{relpath[: -len(_SEGMENT_SUFFIX)]}.{crc:08x}{_SEGMENT_SUFFIX}"
        return cls(path, len(data), crc)

    def to_json(self) -> dict:
        return {"path": self.path, "size": self.size, "crc32": f"{self.crc:08x}"}

    @classmethod
    def from_json(cls, entry: dict) -> "ManifestEntry":
        return cls(str(entry["path"]), int(entry["size"]), _stored_crc(entry["crc32"]))


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
        return MANIFEST_ENVELOPE.write(self)

    @classmethod
    def from_json(cls, payload: bytes, source: str) -> "Manifest":
        return MANIFEST_ENVELOPE.read(cls, payload, source)


def canonical(body: dict) -> bytes:
    """The bytes a manifest body's (snapshot or backup) checksum over
    itself covers."""
    return json.dumps(body, sort_keys=True, separators=(",", ":")).encode("utf-8")


#: How a manifest this build writes carries its checksum over itself:
#: the key and the checksum (an earlier build's are in compat).
SEALS: tuple[tuple[str, Callable[[bytes], int]], ...] = (("manifest_crc32", crc32),)


@dataclass(frozen=True)
class Envelope:
    """One kind of manifest as bytes, a snapshot's or a backup's: its
    dataclass's number fields, ``format_version`` and the ``files``
    list, sealed with a checksum over itself (indent 1, sorted keys).
    Reading raises ``error`` for an unreadable or unsupported one (why,
    for a ``retired`` version) and ``corrupt`` for a broken seal."""

    name: str
    version: int
    error: type[Exception]
    corrupt: type[Exception]
    retired: dict[int, str] = field(default_factory=dict)

    def write(self, manifest) -> bytes:
        body = {f.name: getattr(manifest, f.name) for f in fields(manifest)}
        body.update(format_version=self.version, files=[e.to_json() for e in manifest.files])
        key, checksum = SEALS[0]
        body[key] = f"{checksum(canonical(body)):08x}"
        return (json.dumps(body, indent=1, sort_keys=True) + "\n").encode("utf-8")

    def read(
        self,
        cls,
        payload: bytes,
        source: str,
        versions: tuple[int, ...] = (),
        seals=SEALS,
        read_entry: Callable[[dict], ManifestEntry] = ManifestEntry.from_json,
    ):
        """The ``cls`` that ``payload`` holds: its version one of
        ``versions`` (this envelope's own when empty), sealed by one of
        ``seals``, each entry read by ``read_entry``."""
        try:
            body = json.loads(payload.decode("utf-8"))
            version = body["format_version"]
            if version in self.retired:
                raise self.error(f"{source}: {self.retired[version]}")
            if version not in (versions or (self.version,)):
                raise self.error(f"{source}: unsupported {self.name} format_version {version}")
            key, checksum = next(((k, c) for k, c in seals if k in body), seals[0])
            if _stored_crc(body.pop(key)) != checksum(canonical(body)):
                raise self.corrupt(f"{source}: {self.name} self-checksum mismatch")
            numbers = {f.name: body[f.name] for f in fields(cls) if f.name != "files"}
            return cls(
                files=[read_entry(entry) for entry in body["files"]],
                **{name: None if n is None else int(n) for name, n in numbers.items()},
            )
        except (self.error, self.corrupt):
            raise
        except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
            raise self.error(f"{source}: unreadable {self.name} ({exc})") from exc


MANIFEST_ENVELOPE = Envelope(
    "manifest",
    MANIFEST_VERSION,
    RecoveryError,
    CorruptBlobError,
    {
        1: "a format_version 1 manifest is the layout with every file inside "
        "snap_<id>/ and no segment pool, which is no longer read"
    },
)


def load_manifest(
    disk: DiskIO, root: Path, read: Callable[[bytes, str], Manifest] = Manifest.from_json
) -> Manifest | None:
    """The committed manifest of ``root`` (``read`` reads it), or
    ``None`` if there is none."""
    path = Path(root) / MANIFEST_NAME
    return read(disk.read_file(path), str(path)) if disk.exists(path) else None


# ---------------------------------------------------------------------- #
# Which blob holds which segment
# ---------------------------------------------------------------------- #
class StoredSegments:
    """The pool blob of one root that each live segment object was last
    written to or loaded from.

    Segments are immutable, so object identity is content identity: a
    save hands the previous save's (or the load's) record to its writer
    and keeps the writer's, which covers exactly the segments that save
    saw — retired segments drop out with the record they were in. A blob
    ``put`` as ``logged`` was written and fsynced by a logged change (or
    read back by its replay): the log keeps it in the pool until a
    checkpoint names it, so the next save reuses it as it reuses the
    committed manifest's blobs.
    """

    def __init__(self, root: Path) -> None:
        self.root = str(Path(root).resolve())
        # Keyed by id(); the segment rides along so the id stays its own.
        self._by_id: dict[int, tuple[ColumnSegment, ManifestEntry]] = {}
        #: Paths of the logged blobs among them.
        self.logged: set[str] = set()

    def get(self, segment: ColumnSegment) -> ManifestEntry | None:
        held = self._by_id.get(id(segment))
        return held[1] if held is not None else None

    def put(self, segment: ColumnSegment, entry: ManifestEntry, logged: bool = False) -> None:
        self._by_id[id(segment)] = (segment, entry)
        if logged:
            self.logged.add(entry.path)


# ---------------------------------------------------------------------- #
# Writing a snapshot
# ---------------------------------------------------------------------- #
class SnapshotWriter:
    """Accumulates one snapshot's files, then commits them atomically.

    ``write`` puts a file into the new snapshot directory and
    ``write_segment`` puts a segment blob into the pool unless ``stored``
    says this root already holds it (both via write-temp/fsync/rename,
    both recorded with size and checksum); ``commit`` writes the
    manifest — the single atomic commit point — and reads it back. The
    caller then collects whatever the committed manifest no longer
    names (:func:`collect_garbage`).
    """

    def __init__(
        self, disk: DiskIO, root: Path, stored: StoredSegments | None = None
    ) -> None:
        self.disk = disk
        self.root = Path(root)
        self.disk.make_dirs(self.root)
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

    def _put(self, entry: ManifestEntry, data: bytes) -> ManifestEntry:
        self.disk.write_file(self.root / PurePosixPath(entry.path), data)
        # write_file synced the file's own directory; the entries that
        # lead to it are synced in commit().
        self._unsynced_dirs.update(PurePosixPath(entry.path).parent.parents)
        metrics.increment("storage.snapshot.files_written")
        metrics.increment("storage.snapshot.bytes_written", len(data))
        metrics.increment("storage.snapshot.bytes_checksummed", len(data))
        self._entries.append(entry)
        return entry

    def write(self, relpath: str, data: bytes) -> None:
        """Write one file (path relative to the snapshot directory)."""
        self._put(ManifestEntry.of(f"{self._directory}/{PurePosixPath(relpath)}", data), data)

    def write_segment(self, relpath: str, segment: ColumnSegment) -> None:
        """List a segment under ``relpath``, writing its blob into the
        pool only if this root does not already hold it."""
        entry = self._stored.get(segment)
        if (
            entry is not None
            and (entry.path in self._committed_paths or entry.path in self._stored.logged)
            and self.disk.file_size(self.root / entry.path) == entry.size
        ):
            metrics.increment("storage.snapshot.files_reused")
            self._entries.append(entry)
        else:
            data = serialize_segment(segment)
            entry = self._put(ManifestEntry.pooled(relpath, data), data)
        self.stored.put(segment, entry)

    def commit(self, checkpoint_lsn: int = 0) -> Manifest:
        """Write the manifest and read it back: ``committed`` says whether
        it is now the live one."""
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
        # Garbage collection is destructive, so read the manifest back:
        # only once it provably is this snapshot's may the caller collect
        # — if the rename was lost (dropped-rename fault, lying disk),
        # the previous manifest is still the live one and every file it
        # names must survive.
        try:
            committed = load_manifest(self.disk, self.root)
        except (RecoveryError, CorruptBlobError):
            committed = None
        if committed is not None and committed.snapshot_id == self.snapshot_id:
            self.committed = True
        return manifest


def collect_garbage(
    disk: DiskIO,
    root: Path,
    manifest: Manifest | None,
    pinned: Callable[[str], bool] | None = None,
) -> int:
    """Remove every file under the pool and the snapshot directories
    that ``manifest`` does not name, the directories that empties, and
    stray ``*.tmp`` files at the root; returns how many snapshot
    directories went.

    ``pinned(path)`` keeps a pool blob the manifest does not name: one
    the write-ahead log names, or that a statement is writing (it is
    asked for the blob's own path, also for its ``.tmp`` sibling)."""
    root = Path(root)
    named = {entry.path for entry in manifest.files} if manifest is not None else set()

    def keep(relpath: str) -> bool:
        return relpath in named or (
            pinned is not None
            and relpath.startswith(_POOL_PREFIX)
            and pinned(relpath.removesuffix(".tmp"))
        )

    snapshots_removed = 0
    for name in disk.listdir(root):
        if name == POOL_DIR_NAME:
            sweep(disk, root / name, name, keep)
        elif _SNAP_DIR_RE.match(name):
            snapshots_removed += not sweep(disk, root / name, name, keep)
        elif name.endswith(".tmp"):
            disk.remove(root / name)
    return snapshots_removed


def sweep(disk: DiskIO, path: Path, relpath: str, keep: Callable[[str], bool]) -> bool:
    """Remove ``path`` unless ``keep`` holds for it or something under
    it; returns whether it stayed."""
    if not disk.is_dir(path):
        kept = keep(relpath)
        if not kept:
            disk.remove(path)
        return kept
    stayed = [
        sweep(disk, path / name, f"{relpath}/{name}", keep)
        for name in disk.listdir(path)
    ]
    if not any(stayed):
        disk.remove_tree(path)
    return any(stayed)


# ---------------------------------------------------------------------- #
# Reading a snapshot
# ---------------------------------------------------------------------- #
class SnapshotReader:
    """Verified, in-memory view of one committed snapshot (``files`` by
    listed path), keyed by the names the persistence layer wrote the
    files under."""

    def __init__(
        self, manifest: Manifest, files: dict[str, bytes], stored: StoredSegments
    ) -> None:
        self.manifest = manifest
        self._files = {manifest.relpath_of(path): data for path, data in files.items()}
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
        data = self.read(relpath)
        segment = deserialize_segment(data)
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


@dataclass
class FileVerdict:
    """What one file is: ``ok``, ``missing``, ``size-mismatch`` or
    ``checksum-mismatch`` (:func:`check_file`), ``undecodable``, and for a
    pool blob no manifest names ``orphan`` or ``pending``
    (:func:`check_database`)."""

    path: str
    status: str
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status in ("ok", "orphan", "pending")

    def __str__(self) -> str:
        return self.status.replace("-", " ") + (f" ({self.detail})" if self.detail else "")


def check_file(
    disk: DiskIO, root: Path, entry: ManifestEntry, data: bytes | None = None
) -> tuple[bytes | None, FileVerdict]:
    """Read the file ``entry`` lists under ``root`` and hold it to the
    entry — the one check of a listed file, whichever list names it: its
    bytes (None unless they are the file listed) and its verdict. ``data``
    is the file's bytes when the caller has read them already."""
    if data is None:
        path = root / PurePosixPath(entry.path)
        if not disk.exists(path):
            return None, FileVerdict(entry.path, "missing")
        data = disk.read_file(path)
    if len(data) != entry.size:
        detail = f"expected {entry.size} bytes, found {len(data)}"
        return None, FileVerdict(entry.path, "size-mismatch", detail)
    metrics.increment("storage.snapshot.bytes_checksummed", len(data))
    if not entry.matches(data):
        return None, FileVerdict(entry.path, "checksum-mismatch")
    return data, FileVerdict(entry.path, "ok")


def check_files(
    disk: DiskIO, root: Path, entries: list[ManifestEntry], held: dict[str, bytes] | None = None
) -> tuple[dict[str, bytes], list[str]]:
    """Hold every file ``entries`` list to its entry (:func:`check_file`):
    the bytes of those that are the files listed, by listed path, and a
    ``path [problem]`` for each that is not. ``held`` maps a listed path
    to bytes the caller read already, which are checked in place of a
    second read."""
    held = held or {}
    files: dict[str, bytes] = {}
    failures: list[str] = []
    for entry in entries:
        data, verdict = check_file(disk, root, entry, held.get(entry.path))
        if data is None:
            failures.append(f"{root / PurePosixPath(entry.path)} [{verdict}]")
        else:
            files[entry.path] = data
    return files, failures


def open_snapshot(
    disk: DiskIO,
    root: Path,
    load: Callable[[DiskIO, Path], Manifest | None] = load_manifest,
    current: Callable[[str, bytes], bytes] | None = None,
) -> SnapshotReader:
    """Open the committed snapshot of ``root``: locate the newest complete
    manifest (``load`` reads it) and verify every checksum (``current``
    then rewrites, by listed path, each file an earlier build wrote).
    What interrupted saves left is the caller's to roll back
    (:func:`roll_back`).

    Raises :class:`RecoveryError` if no manifest exists (naming the
    pre-manifest layout when that is what the directory holds) and
    :class:`CorruptBlobError` naming every file whose size or checksum
    does not match the manifest.
    """
    root = Path(root)
    manifest = load(disk, root)
    if manifest is None:
        raise RecoveryError(
            f"no database found at {root}: {_no_manifest_detail(disk, root)}"
        )
    files, failures = check_files(disk, root, manifest.files)
    metrics.increment("storage.recovery.files_verified", len(files))
    if failures:
        metrics.increment("storage.recovery.checksum_failures", len(failures))
        raise CorruptBlobError(
            f"snapshot {manifest.snapshot_id} failed verification: " + "; ".join(failures)
        )
    if current is not None:
        files = {path: current(path, data) for path, data in files.items()}
    return SnapshotReader(manifest, files, StoredSegments(root))


def roll_back(
    disk: DiskIO,
    root: Path,
    manifest: Manifest | None,
    pinned: Callable[[str], bool] | None = None,
) -> None:
    """Collect what interrupted saves and statements left: whatever a
    verified manifest (or, before the first checkpoint, nothing) and
    ``pinned`` do not name (:func:`collect_garbage`)."""
    rolled_back = collect_garbage(disk, root, manifest, pinned)
    if rolled_back:
        metrics.increment("storage.recovery.snapshots_rolled_back", rolled_back)


# ---------------------------------------------------------------------- #
# Integrity checking (CLI `repro check <dir>` / `\check`)
# ---------------------------------------------------------------------- #
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
                f"{sum(v.status not in ('orphan', 'pending') for v in self.verdicts)} files, "
                "checkpoint LSN "
                f"{self.checkpoint_lsn})"
            )
        else:
            lines.append(f"manifest: {self.manifest_status} {self.detail}".rstrip())
        lines.extend(_verdict_line(v.path, v) for v in self.verdicts)
        if self.wal_verdicts:
            lines.append(f"wal: {len(self.wal_verdicts)} segment verdicts")
            lines.extend(_verdict_line(f"wal/{v.segment}", v) for v in self.wal_verdicts)
        if self.archive_verdicts:
            lines.append(f"archive: {len(self.archive_verdicts)} verdicts")
            lines.extend(_verdict_line(f"wal_archive/{v.segment}", v) for v in self.archive_verdicts)
        bad = sum(not v.ok for v in (*self.verdicts, *self.wal_verdicts, *self.archive_verdicts))
        lines.append(
            "result: ok"
            if self.ok
            else f"result: FAILED ({bad} bad file{'s' if bad != 1 else ''})"
        )
        return lines


def _verdict_line(name: str, verdict) -> str:
    return f"  {name}: {verdict.status}" + (f" ({verdict.detail})" if verdict.detail else "")


def check_database(disk: DiskIO, root: Path) -> IntegrityReport:
    """Scan a saved database and report a per-file verdict.

    Never raises for corruption — corruption is the *result*. Verifies
    manifest self-checksum, per-file existence/size/checksum, and that
    every segment blob structurally decodes. Refuses a directory stamped
    with a newer format; reads an unstamped one (an earlier build's)
    through :mod:`repro.storage.compat`, writing nothing.
    """
    from ..backup.archive import ARCHIVE_DIR_NAME, check_archive
    from ..backup.manifest import RESTORE_MARKER_NAME
    from ..wal import record
    from ..wal.log import WAL_DIR_NAME, judge_log, log_records, read_log
    from . import compat

    root = Path(root)
    if disk.exists(root / RESTORE_MARKER_NAME):
        return IntegrityReport(
            root=str(root),
            manifest_status="restore-in-progress",
            detail=f"({RESTORE_MARKER_NAME} marker present: an interrupted "
            "restore — this directory is not a committed database)",
        )
    earlier = read_stamp(disk, root) < FORMAT_VERSION
    reader = compat if earlier else record
    load, decode = (
        (compat.load_manifest, compat.deserialize_segment)
        if earlier
        else (load_manifest, deserialize_segment)
    )
    wal_dir = root / WAL_DIR_NAME
    has_wal = disk.is_dir(wal_dir)
    log = read_log(disk, wal_dir, reader)  # each segment read once
    logged = reader.logged_blobs(log_records(log))
    if not disk.exists(root / MANIFEST_NAME):
        if has_wal:
            # A database that crashed before its first checkpoint: the
            # whole state lives in the log.
            return IntegrityReport(
                root=str(root),
                manifest_status="wal-only",
                detail="(no snapshot yet: all state is in the log)",
                verdicts=_pool_verdicts(disk, root, set(), logged, 0),
                wal_verdicts=judge_log(log),
            )
        return IntegrityReport(
            root=str(root),
            manifest_status="missing",
            detail=f"({_no_manifest_detail(disk, root)})",
        )
    try:
        manifest = load(disk, root)
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
        data, verdict = check_file(disk, root, entry)
        if data is not None:
            verdict = _decode_verdict(entry.path, data, decode)
        if verdict.ok:
            metrics.increment("storage.recovery.files_verified")
        else:
            metrics.increment("storage.recovery.checksum_failures")
        report.verdicts.append(verdict)
    named = {entry.path for entry in manifest.files}
    report.verdicts.extend(
        _pool_verdicts(disk, root, named, logged, manifest.checkpoint_lsn)
    )
    report.wal_verdicts = judge_log(log, manifest.checkpoint_lsn)
    if disk.is_dir(root / ARCHIVE_DIR_NAME):
        report.archive_verdicts = check_archive(disk, root / ARCHIVE_DIR_NAME)
    return report


def _pool_verdicts(
    disk: DiskIO,
    root: Path,
    named: set[str],
    logged: dict[str, tuple[int, ManifestEntry]],
    checkpoint_lsn: int,
) -> list[FileVerdict]:
    """Verdicts on the pool blobs the manifest does not name: ``pending``
    when the log names one (its statement wrote it; a checkpoint will
    name it), checked like a listed file; ``orphan`` otherwise (what an
    interrupted save or statement left for the next open to collect).
    Neither is an error; a blob a record past the checkpoint names that
    is missing or damaged is."""
    verdicts = []
    present = set(_files_under(disk, root / POOL_DIR_NAME, POOL_DIR_NAME))
    for path in sorted(present - named):
        if path not in logged:
            verdicts.append(FileVerdict(path, "orphan", "not named by the manifest"))
            continue
        lsn, entry = logged[path]
        data, verdict = check_file(disk, root, entry)
        if data is not None:
            verdict = FileVerdict(path, "pending", f"named by log record {lsn}")
        verdicts.append(verdict)
    verdicts.extend(
        FileVerdict(path, "missing", f"named by log record {lsn}")
        for path, (lsn, _entry) in sorted(logged.items())
        if lsn > checkpoint_lsn and path not in present and path not in named
    )
    return verdicts


def _files_under(disk: DiskIO, path: Path, relpath: str) -> list[str]:
    """Root-relative paths of every file under the directory ``path``."""
    found: list[str] = []
    for name in disk.listdir(path):
        if disk.is_dir(path / name):
            found.extend(_files_under(disk, path / name, f"{relpath}/{name}"))
        else:
            found.append(f"{relpath}/{name}")
    return found


def _decode_verdict(
    relpath: str, data: bytes, decode: Callable[[bytes], ColumnSegment]
) -> FileVerdict:
    """Structural decode check for self-describing file types."""
    from ..errors import EncodingError

    if relpath.endswith(_SEGMENT_SUFFIX):
        try:
            decode(data)
        except EncodingError as exc:
            return FileVerdict(relpath, "undecodable", str(exc))
    elif relpath.endswith(".json"):
        try:
            json.loads(data.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            return FileVerdict(relpath, "undecodable", str(exc))
    return FileVerdict(relpath, "ok")
