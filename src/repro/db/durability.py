"""Durable state: the write-ahead log, checkpoints, recovery and backups.

:class:`Durability` is the one owner of what a :class:`~repro.db.Database`
keeps on disk and of what decides when that may change: the attached
:class:`~repro.wal.WriteAheadLog` and its directory, the fingerprint and
stored segments of the last checkpoint, and the hot backups holding
checkpoints back (:meth:`Durability.hold_checkpoints`, which
:mod:`repro.backup.backup` takes for the length of its copy). Recovery
(:meth:`Durability.recover`) reads the directory's format stamp first,
loads the snapshot, replays the log's committed tail through the apply
every statement runs (:data:`repro.wal.replay.CHANGES`), then attaches
the log and its archiver. A directory an earlier build wrote (no stamp)
is read through :mod:`repro.storage.compat` and upgraded once
(:meth:`Durability._upgrade`).

A change that creates compressed row groups writes their segment blobs
into the root's write-once pool and fsyncs them before its ROW_GROUPS
record is appended (:meth:`Durability.write_row_groups`); replay reads
them back (:meth:`Durability.read_row_groups`). Garbage collection keeps
a blob the live log names, or that a statement is still writing
(:meth:`Durability.pinned`), as well as every blob the manifest names.
"""

from __future__ import annotations

import json
from pathlib import Path, PurePosixPath
from typing import TYPE_CHECKING

from ..backup.archive import ARCHIVE_DIR_NAME, WalArchiver
from ..backup.manifest import RESTORE_MARKER_NAME
from ..errors import CorruptBlobError, RecoveryError, StorageError
from ..observability import registry as metrics
from ..storage import compat, persist, snapshot
from ..storage.blob import deserialize_segment, serialize_segment
from ..storage.columnstore import RowGroupChange
from ..storage.diskio import DiskIO
from ..storage.rowgroup import RowGroup
from ..storage.snapshot import (
    FORMAT_VERSION,
    MANIFEST_NAME,
    POOL_DIR_NAME,
    ManifestEntry,
    SnapshotWriter,
    StoredSegments,
    check_database,
    check_file,
    collect_garbage,
    read_stamp,
    roll_back,
    write_stamp,
)
from ..wal import record as walrecord
from ..wal import replay as walreplay
from ..wal.log import DEFAULT_GROUP_COMMIT_SIZE, WAL_DIR_NAME, WriteAheadLog
from ..wal.record import parse_row_groups, row_groups_payload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .database import Database


#: A blob pin held by a statement that has not logged its record yet.
IN_FLIGHT = 0


class Durability:
    """The durable state of one database (see the module docstring)."""

    def __init__(self, db: "Database") -> None:
        self.db = db
        # Write-ahead log, attached by recover(); statements append a
        # redo record after applying their change.
        self.wal: WriteAheadLog | None = None
        # The resolved directory the log belongs to (None without a log),
        # and the disk it is read and written through.
        self.root: str | None = None
        self.disk: DiskIO | None = None
        # Fingerprint of the state the last save/load at a path captured:
        # save() skips rewriting an unchanged snapshot.
        self._saved: tuple | None = None
        # Which pool blob of that path holds each segment (a
        # storage.snapshot.StoredSegments): save() writes only the rest.
        self._stored_segments = None
        # Hot backups currently copying: while nonzero, save() defers the
        # checkpoint so neither snapshot GC nor WAL truncation can delete
        # files a backup is reading.
        self._backups_in_flight = 0
        # Pool blob path -> LSN of the live-log record naming it, or
        # IN_FLIGHT while the statement writing it has not logged it yet.
        self._blob_lsns: dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # The log
    # ------------------------------------------------------------------ #
    def set_mode(self, mode: str) -> None:
        """Switch the WAL durability mode (per-commit / group / off)."""
        if self.wal is None:
            raise StorageError("no write-ahead log attached (use Database.open to get one)")
        self.wal.set_durability(mode)

    def close(self) -> None:
        """Flush any pending group-commit window. Safe to call twice."""
        if self.wal is not None:
            self.wal.close()

    # ------------------------------------------------------------------ #
    # Logged row groups
    # ------------------------------------------------------------------ #
    def write_row_groups(self, table: str, change: RowGroupChange) -> bytes:
        """Write the segment blobs of ``change``'s row groups into the
        pool (each fsynced; a blob the pool holds already is not written
        again when it is the listed bytes), and return the ROW_GROUPS
        payload naming them.

        Each blob is pinned before it is written, so a checkpoint running
        meanwhile does not collect it; :meth:`logged` hands the pin over
        to the record once it is appended. A write that fails drops the
        pins it took.
        """
        disk, root = self.disk, Path(self.root)
        stored = self._stored_at(root)
        table_dir = PurePosixPath(POOL_DIR_NAME, table)
        if change.groups:
            # A blob's write syncs its own directory; the entries that
            # lead to it are made durable here, before any blob goes in.
            disk.make_dirs(root / table_dir / "rowgroups")
        groups, pinned = [], []
        try:
            for group in change.groups:
                segments = {}
                for column, segment in group.segments.items():
                    data = serialize_segment(segment)
                    entry = ManifestEntry.pooled(
                        f"{table}/rowgroups/g{group.group_id}.{column}.seg", data
                    )
                    if entry.path not in self._blob_lsns:
                        self._blob_lsns[entry.path] = IN_FLIGHT
                        pinned.append(entry.path)
                    if check_file(disk, root, entry)[0] is None:
                        disk.write_file(root / entry.path, data)
                        metrics.increment("storage.wal.blobs_written")
                    stored.put(segment, entry, logged=True)
                    segments[column] = entry.to_json()
                groups.append({"id": group.group_id, "segments": segments})
        except BaseException:
            for path in pinned:
                self._blob_lsns.pop(path, None)
            raise
        return row_groups_payload(
            {
                "kind": change.kind,
                "deltas": change.deltas,
                "include_open": change.include_open,
                "groups": groups,
            }
        )

    def read_row_groups(
        self, table: str, payload: bytes, parse=parse_row_groups, deserialize=deserialize_segment
    ) -> RowGroupChange:
        """The change a ROW_GROUPS payload names, its blobs read back from
        the pool and verified (replay installs it as the statement did);
        ``parse`` and ``deserialize`` read the payload and each blob."""
        body = parse(payload)
        schema = self.db.catalog.table(table).schema
        stored = self._stored_at(Path(self.root))
        groups = []
        for group in body["groups"]:
            segments = {}
            for column, entry in group["segments"].items():
                data, verdict = check_file(self.disk, Path(self.root), entry)
                if data is None:
                    raise CorruptBlobError(
                        f"a logged blob failed verification [{verdict}]",
                        path=str(Path(self.root) / entry.path),
                    )
                segments[column] = deserialize(data)
                stored.put(segments[column], entry, logged=True)
            groups.append(RowGroup(group_id=group["id"], schema=schema, segments=segments))
        return RowGroupChange(body["kind"], groups, body["deltas"], body["include_open"])

    def logged(self, payload: bytes, lsn: int | None) -> None:
        """The ROW_GROUPS record ``payload`` was appended at ``lsn`` (or,
        with ``None``, its statement failed): its blobs are pinned by the
        record from now on (or no longer pinned)."""
        for group in parse_row_groups(payload)["groups"]:
            for entry in group["segments"].values():
                if lsn is not None:
                    self._blob_lsns[entry.path] = lsn
                elif self._blob_lsns.get(entry.path) == IN_FLIGHT:
                    del self._blob_lsns[entry.path]

    def pinned(self, path: str) -> bool:
        """Must garbage collection keep this pool blob? Yes while a
        statement is writing it or a record the live log still holds
        names it (past a checkpoint it stays until the log's segment is
        archived and removed, so the archive can take the blob along)."""
        lsn = self._blob_lsns.get(path)
        return lsn is not None and (lsn == IN_FLIGHT or lsn >= self.wal.first_live_lsn)

    def _stored_at(self, root: Path) -> StoredSegments:
        if self._stored_segments is None or self._stored_segments.root != str(root.resolve()):
            self._stored_segments = StoredSegments(root)
        return self._stored_segments

    # ------------------------------------------------------------------ #
    # Backups
    # ------------------------------------------------------------------ #
    @property
    def backups_in_flight(self) -> int:
        return self._backups_in_flight

    def hold_checkpoints(self) -> None:
        """A hot backup starts copying: defer checkpoints until it calls
        :meth:`release_checkpoints`."""
        self._backups_in_flight += 1

    def release_checkpoints(self) -> None:
        self._backups_in_flight -= 1

    # ------------------------------------------------------------------ #
    # Checkpoints
    # ------------------------------------------------------------------ #
    def fingerprint(self, resolved_path: str) -> tuple:
        """State identity used to skip re-saving an unchanged database.

        Covers the target path, DDL history (catalog epoch) and every
        table's data version. Direct ``Table.create_index`` calls bypass
        the epoch — use :meth:`Database.create_index` for skip-accurate DDL.
        """
        catalog = self.db.catalog
        return (
            resolved_path,
            self.db._catalog_epoch,
            tuple((name, catalog.table(name)._data_version) for name in catalog.table_names()),
        )

    def save(self, path: str, disk=None, force: bool = False) -> None:
        """Persist the whole database to a directory, crash-safely
        (:meth:`Database.save`)."""
        # A snapshot taken mid-transaction would bake uncommitted state
        # into the base image (and truncate the log segments replay
        # would need to undo-by-omission). Refuse; the checkpoint runs
        # after COMMIT/ROLLBACK.
        self.db._require_no_txn("save (checkpoint)")
        if self._backups_in_flight > 0:
            # A hot backup is copying this directory: a checkpoint now
            # would garbage-collect the files its manifest names and
            # truncate the WAL segments the copy is reading. Defer — the
            # WAL keeps everything recoverable until the next checkpoint.
            metrics.increment("backup.checkpoints_deferred")
            return
        disk = disk or DiskIO()
        root = Path(path)
        if not read_stamp(disk, root) and not _holds_database(disk, root):
            write_stamp(disk, root)  # the save makes the directory
        resolved = str(root.resolve())
        fingerprint = self.fingerprint(resolved)
        if not force and fingerprint == self._saved and disk.exists(root / MANIFEST_NAME):
            metrics.increment("storage.snapshot.saves_skipped")
            return
        wal = self.wal if self.wal is not None and self.root == resolved else None
        checkpoint_lsn = 0
        if wal is not None:
            # Everything the snapshot will contain must be durable in the
            # log first, or a crash mid-save could lose committed work.
            wal.flush()
            checkpoint_lsn = wal.last_lsn
        writer = SnapshotWriter(disk, root, self._stored_segments)
        catalog_entries = []
        for name in self.db.catalog.table_names():
            table = self.db.catalog.table(name)
            catalog_entries.append(
                {
                    "name": table.name,
                    "schema": persist.schema_to_json(table.schema),
                    "storage": table.storage_kind.value,
                    "config": persist.config_to_json(table.config),
                    "indexes": {
                        index_name: index.columns for index_name, index in table.indexes.items()
                    },
                }
            )
            if table.columnstore is not None:
                persist.save_columnstore(table.columnstore, writer, table.name)
            if table.rowstore is not None:
                persist.save_rowstore(table.rowstore, writer, table.name)
        writer.write("catalog.json", json.dumps(catalog_entries, indent=1).encode("utf-8"))
        manifest = writer.commit(checkpoint_lsn=checkpoint_lsn)
        if writer.committed:
            # Only a read-back-verified manifest licenses destroying log
            # segments and collecting files (a dropped rename means the
            # old snapshot is still the live one and its log tail is
            # still needed). Truncation archives the covered segments,
            # and with them the blobs their records name, before the pool
            # loses any.
            if wal is not None:
                wal.truncate_covered(checkpoint_lsn)
                first_live = wal.first_live_lsn
                for path, lsn in list(self._blob_lsns.items()):
                    if lsn != IN_FLIGHT and lsn < first_live:
                        self._blob_lsns.pop(path, None)
            collect_garbage(disk, root, manifest, self.pinned if wal is not None else None)
            self._saved = fingerprint
            self._stored_segments = writer.stored

    @staticmethod
    def check(path: str, disk=None):
        """Integrity-scan a saved database without opening it
        (:meth:`Database.check`)."""
        return check_database(disk or DiskIO(), Path(path))

    # ------------------------------------------------------------------ #
    # Recovery
    # ------------------------------------------------------------------ #
    def recover(
        self, root: Path, disk, durability, group_commit_size, create: bool
    ) -> "Database":
        """Fill this fresh database from ``root``: its snapshot (there is
        none when ``create`` finds no database there), then the WAL's tail
        replayed, then the WAL attached with its archiver. The format
        stamp is read first: a newer format is refused before anything
        else is read, a new directory is stamped, and an earlier build's
        is read through :mod:`repro.storage.compat`, then upgraded."""
        disk = disk or DiskIO()
        if disk.exists(root / RESTORE_MARKER_NAME):
            raise RecoveryError(
                f"{root} holds an uncommitted restore (its "
                f"{RESTORE_MARKER_NAME} marker is present) — the restore "
                "crashed before completing; re-run it or delete the directory"
            )
        stamp = read_stamp(disk, root)
        wal_dir = root / WAL_DIR_NAME
        has_wal = disk.is_dir(wal_dir)
        reader = None
        found = _holds_database(disk, root)
        earlier = found and stamp < FORMAT_VERSION
        if create and not found and not stamp:
            write_stamp(disk, root)
        if found or not create:
            try:
                reader = (compat if earlier else snapshot).open_snapshot(disk, root)
            except RecoveryError:
                if not has_wal or disk.exists(root / MANIFEST_NAME):
                    # Either there is no log to recover from, or a manifest
                    # *exists* but could not be used — that is corruption,
                    # not a pre-first-checkpoint directory, and the log was
                    # truncated at the snapshot's checkpoint: opening WAL-only
                    # would silently present an empty database.
                    raise
                # No snapshot yet but a log exists: the database crashed
                # before its first checkpoint — the log holds all state.
        manifest = reader.manifest if reader is not None else None
        checkpoint_lsn = manifest.checkpoint_lsn if manifest is not None else 0
        resolved = str(root.resolve())
        if not has_wal and durability is None:
            if reader is not None:
                roll_back(disk, root, manifest)
                self._load_snapshot(reader)
            self._saved = self.fingerprint(resolved)
            if earlier:
                self._upgrade(root, disk)
            return self.db
        wal, recovery = WriteAheadLog.attach(
            disk,
            wal_dir,
            checkpoint_lsn=checkpoint_lsn,
            durability=durability or "group",
            group_commit_size=group_commit_size or DEFAULT_GROUP_COMMIT_SIZE,
            reader=compat if earlier else walrecord,
        )
        if found:
            # What interrupted saves and statements left goes; the blobs
            # the live log names stay (replay reads the tail's back).
            roll_back(disk, root, manifest, recovery.blobs.__contains__)
        self._blob_lsns = {path: lsn for path, (lsn, _entry) in recovery.blobs.items()}
        if reader is not None:
            self._load_snapshot(reader)
        self.disk, self.root = disk, resolved
        replayed = walreplay.apply_records(
            self.db, recovery.replay_records, (compat if earlier else walreplay).CHANGES
        )
        # Attach only after replay so nothing replayed is re-logged.
        self.wal = wal
        # WAL archiving is on by default for durable databases: sealed
        # segments are copied aside before anything deletes them, which
        # is what makes point-in-time recovery past the latest backup
        # possible. set_archiver also catches up on segments sealed while
        # no archiver was attached.
        wal.set_archiver(WalArchiver(disk, root / ARCHIVE_DIR_NAME))
        if earlier:
            self._upgrade(root, disk)
        elif replayed == 0 and reader is not None:
            self._saved = self.fingerprint(resolved)
        return self.db

    def _upgrade(self, root: Path, disk) -> None:
        """Finish opening an earlier build's directory, which recovery
        read through :mod:`repro.storage.compat` (its log replayed, every
        archive an earlier codec wrote deflated again as it was read):
        checkpoint, which writes every segment blob afresh under its
        CRC-32 name in a version-3 manifest and, once that manifest is
        committed, archives and removes every log segment (the next
        record starts a fresh one); then stamp the directory, last. A
        crash before the stamp leaves a directory the next open reads and
        upgrades again; one whose checkpoint did not commit, or that
        still holds a segment of the old log, is not stamped either."""
        self._stored_segments = self._saved = None
        self.save(str(root), disk, force=True)
        wal = self.wal
        if self._saved is not None and (wal is None or wal.first_live_lsn > wal.last_lsn):
            write_stamp(disk, root)

    def _load_snapshot(self, reader) -> None:
        """Recreate every table the snapshot's catalog names, with its
        data and indexes."""
        db = self.db
        try:
            catalog_entries = json.loads(reader.read("catalog.json").decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise RecoveryError(f"unreadable catalog.json: {exc}") from exc
        for entry in catalog_entries:
            table_schema = persist.schema_from_json(entry["schema"])
            config = persist.config_from_json(entry["config"])
            table = db.create_table(
                entry["name"], table_schema, storage=entry["storage"], config=config
            )
            if table.columnstore is not None:
                table.columnstore = persist.load_columnstore(
                    table_schema, config, reader, table.name
                )
                table.columnstore.attach_mvcc(db.mvcc)
            if table.rowstore is not None:
                persist.load_rowstore(table.rowstore, reader, table.name)
            for index_name, columns in entry["indexes"].items():
                table.create_index(index_name, columns)
        self._stored_segments = reader.stored


def _holds_database(disk: DiskIO, root: Path) -> bool:
    """Does ``root`` hold a database (a log, a manifest, or the
    pre-manifest layout's catalog)?"""
    return (
        disk.is_dir(root / WAL_DIR_NAME)
        or disk.exists(root / MANIFEST_NAME)
        or disk.exists(root / "catalog.json")
    )
