"""Readers of every on-disk format earlier builds wrote.

A directory without a ``FORMAT`` stamp (format 0 to
:func:`~repro.storage.snapshot.read_stamp`) was written by an earlier
build, and only this module reads what such a build wrote. It offers the
readers the main modules offer — :func:`open_snapshot`,
:func:`load_manifest`, :func:`scan_segment`, :func:`logged_blobs`,
:func:`deserialize_segment`, :data:`CHANGES` — to the first open of such
a directory, which then upgrades it (:meth:`Durability.recover
<repro.db.durability.Durability.recover>`), to ``repro check`` of one,
and to the readers of WAL archives and backups, which are never
rewritten and may predate the stamp. What earlier builds wrote:

* **XPR1 archives**: an archived segment's payloads through a
  hand-written LZ77 codec (a stand-in for SQL Server's XPRESS: a greedy
  single-probe hash match finder over a 64 KiB window). Little-endian,
  ``b"XPR1"`` + uint32 uncompressed length, then sequences of [token: 4
  bits literal length | 4 bits match length - 4] [literal-length
  extension bytes: 255s, then the rest] [literals] [offset: uint16 >= 1]
  [match-length extension bytes]; the final sequence has literals only.
  :func:`current_blob` deflates each again.
* **CRC-32C checksums**: a manifest entry's under the key ``crc32c`` (in
  a snapshot manifest, a backup manifest and a ROW_GROUPS payload
  alike), a manifest's own under ``manifest_crc32c`` (all of a
  ``format_version`` 2 manifest's), and a WAL frame's when the top bit
  of its length word is clear. Only verified (:func:`crc32c_scalar`).
* **Maintenance markers**: the tuple mover, REBUILD and archival logged
  only their argument, and replay plans the change again — through this
  build's compressor, so they rebuild the groups the logging build built
  only while the compressor writes the same segments.

Dropping a format is deleting its part of this module and its fixture.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path
from typing import Any, Callable

from ..backup import manifest as backup_manifest
from ..backup.manifest import BackupManifest
from ..db.catalog import Table
from ..errors import EncodingError
from ..wal import record, replay
from ..wal.record import _CRC32_FRAME, _FRAME_HEADER, _LENGTH_MASK, WalRecord, WalRecordType
from . import blob, serde, snapshot
from .columnstore import RowGroupChange
from .diskio import DiskIO, crc32
from .segment import ARCHIVE_LEVEL, ColumnSegment
from .snapshot import Manifest, ManifestEntry, SnapshotReader

XPR1_MAGIC = b"XPR1"
EARLIER_MANIFEST_VERSION = 2  # entries and self-checksum all CRC-32C


# ---------------------------------------------------------------------- #
# CRC-32C (Castagnoli)
# ---------------------------------------------------------------------- #
def _build_crc32c_table() -> tuple[int, ...]:
    poly = 0x82F63B78  # reversed Castagnoli polynomial
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            crc = (crc >> 1) ^ poly if crc & 1 else crc >> 1
        table.append(crc)
    return tuple(table)


_CRC32C_TABLE = _build_crc32c_table()


def crc32c_scalar(data: bytes, value: int = 0) -> int:
    """CRC-32C of ``data`` one byte at a time: verifies a checksum an
    earlier build stored; nothing computes one for new data."""
    crc = value ^ 0xFFFFFFFF
    table = _CRC32C_TABLE
    for byte in data:
        crc = (crc >> 8) ^ table[(crc ^ byte) & 0xFF]
    return crc ^ 0xFFFFFFFF


class Crc32cEntry(ManifestEntry):
    """A manifest entry whose checksum is a CRC-32C."""

    def matches(self, data: bytes) -> bool:
        return len(data) == self.size and crc32c_scalar(data) == self.crc


def entry_from_json(entry: dict) -> ManifestEntry:
    """A manifest entry under either checksum's key."""
    if "crc32c" not in entry:
        return ManifestEntry.from_json(entry)
    return Crc32cEntry(str(entry["path"]), int(entry["size"]), snapshot._stored_crc(entry["crc32c"]))


#: How an earlier build may have sealed a manifest (a snapshot's or a
#: backup's), beside how this build does.
SEALS = (*snapshot.SEALS, ("manifest_crc32c", crc32c_scalar))


# ---------------------------------------------------------------------- #
# Manifests
# ---------------------------------------------------------------------- #
def read_manifest(payload: bytes, source: str) -> Manifest:
    """:meth:`Manifest.from_json <repro.storage.snapshot.Manifest.from_json>`,
    also of a ``format_version`` 2 manifest."""
    return snapshot.MANIFEST_ENVELOPE.read(
        Manifest,
        payload,
        source,
        versions=(EARLIER_MANIFEST_VERSION, snapshot.MANIFEST_VERSION),
        seals=SEALS,
        read_entry=entry_from_json,
    )


def load_manifest(disk: DiskIO, root: Path) -> Manifest | None:
    """:func:`~repro.storage.snapshot.load_manifest`, also of a
    ``format_version`` 2 manifest."""
    return snapshot.load_manifest(disk, root, read_manifest)


def open_snapshot(disk: DiskIO, root: Path) -> SnapshotReader:
    """:func:`~repro.storage.snapshot.open_snapshot` of an earlier
    build's snapshot, each segment blob as :func:`current_blob` makes it."""
    return snapshot.open_snapshot(disk, root, load_manifest, current_blob)


def load_backup_manifest(disk: DiskIO, root: Path) -> BackupManifest:
    """:func:`~repro.backup.manifest.load_backup_manifest`, also of a
    manifest an earlier build sealed with a CRC-32C."""
    return backup_manifest.load_backup_manifest(
        disk, root, seals=SEALS, read_entry=entry_from_json
    )


# ---------------------------------------------------------------------- #
# Log frames and records
# ---------------------------------------------------------------------- #
def scan_segment(data: bytes, first_lsn: int, source: str = "<segment>") -> record.SegmentScan:
    """:func:`~repro.wal.record.scan_segment` of a segment that may hold
    frames an earlier build wrote, each read as this build frames it."""
    scan = record.scan_segment(data, first_lsn, source)
    if scan.damage is None:
        return scan
    return record.scan_segment(_reframed(data), first_lsn, source)


def _reframed(data: bytes) -> bytes:
    """``data`` with every frame whose marker bit is clear and whose
    CRC-32C holds framed as this build frames it (the bit set, a CRC-32):
    the same length, so offsets do not move. Frames are followed by their
    length words, as the scan's look past damage follows them; one whose
    CRC-32C fails stays as it is, for the scan to report where it is."""
    out, pos, header = bytearray(data), 0, _FRAME_HEADER.size
    while pos + header <= len(data):
        word, crc = _FRAME_HEADER.unpack_from(data, pos)
        length = word & _LENGTH_MASK
        body = data[pos + header : pos + header + length]
        if not word & _CRC32_FRAME and len(body) == length and crc32c_scalar(body) == crc:
            _FRAME_HEADER.pack_into(out, pos, word | _CRC32_FRAME, crc32(body))
        pos += header + length
    return bytes(out)


def parse_row_groups(payload: bytes) -> dict:
    """:func:`~repro.wal.record.parse_row_groups`, entries under either
    checksum's key."""
    return record.parse_row_groups(payload, entry_from_json)


def logged_blobs(records: list[WalRecord]) -> dict[str, tuple[int, ManifestEntry]]:
    """:func:`~repro.wal.record.logged_blobs`, entries under either
    checksum's key."""
    return record.logged_blobs(records, entry_from_json)


# ---------------------------------------------------------------------- #
# Segment blobs
# ---------------------------------------------------------------------- #
def decompress_xpr1(payload: bytes) -> bytes:
    """The bytes an XPR1 payload holds."""
    if len(payload) < 8 or payload[:4] != XPR1_MAGIC:
        raise EncodingError("not an XPR1 archive payload")
    expected = int.from_bytes(payload[4:8], "little")
    out = bytearray()
    pos = 8
    n = len(payload)
    while pos < n:
        token = payload[pos]
        pos += 1
        lit_len = token >> 4
        if lit_len == 15:
            lit_len, pos = _read_length(payload, pos, 15)
        out += payload[pos : pos + lit_len]
        pos += lit_len
        if pos >= n:
            break  # final, literal-only sequence
        offset = int.from_bytes(payload[pos : pos + 2], "little")
        pos += 2
        if offset == 0 or offset > len(out):
            raise EncodingError(f"corrupt archive payload: offset {offset}")
        match_len = token & 0x0F
        if match_len == 15:
            match_len, pos = _read_length(payload, pos, 15)
        match_len += 4  # the shortest match
        start = len(out) - offset
        if offset >= match_len:
            out += out[start : start + match_len]
        else:
            # Overlapping match: copy in offset-sized chunks.
            for i in range(match_len):
                out.append(out[start + i])
    if len(out) != expected:
        raise EncodingError(
            f"archive payload decompressed to {len(out)} bytes, expected {expected}"
        )
    return bytes(out)


def _read_length(payload: bytes, pos: int, base: int) -> tuple[int, int]:
    length = base
    while True:
        if pos >= len(payload):
            raise EncodingError("truncated archive payload")
        byte = payload[pos]
        pos += 1
        length += byte
        if byte != 255:
            return length, pos


def current_blob(data: bytes) -> bytes:
    """A segment blob as this build writes it: one whose archive is XPR1
    with the archive's plain form deflated as
    :meth:`~repro.storage.segment.ColumnSegment.to_archived` deflates it;
    any other blob as it is."""
    head, archive = blob.split_archive(data)
    if archive is None or not archive.startswith(XPR1_MAGIC):
        return data
    out = bytearray(head)
    serde.write_bytes(out, zlib.compress(decompress_xpr1(archive), ARCHIVE_LEVEL))
    return bytes(out)


def deserialize_segment(data: bytes) -> ColumnSegment:
    """:func:`~repro.storage.blob.deserialize_segment` of a blob an
    earlier build may have written."""
    return blob.deserialize_segment(current_blob(data))


# ---------------------------------------------------------------------- #
# Replay
# ---------------------------------------------------------------------- #
def _replanned(plan: Callable[[Table, Any], RowGroupChange], key: str | None = None):
    """A maintenance marker (the tuple mover, archival: one boolean
    argument ``{key: bool}``; REBUILD: none), replayed by planning the
    change again."""

    def apply(db, name: str, arg, txn):
        table = db.catalog.table(name)
        return table.install_row_groups(plan(table, arg), txn)

    def decode(_db, _name, payload: bytes):
        return json.loads(payload.decode("utf-8"))[key] if key else None

    return replay.Change(apply, None, decode)


#: :data:`repro.wal.replay.CHANGES` for an earlier build's log.
CHANGES = {
    **replay.CHANGES,
    WalRecordType.ROW_GROUPS: replay.CHANGES[WalRecordType.ROW_GROUPS]._replace(
        decode=lambda db, table, payload: db.durability.read_row_groups(
            table, payload, parse_row_groups, deserialize_segment
        )
    ),
    WalRecordType.TUPLE_MOVER: _replanned(Table.plan_tuple_mover, "include_open"),
    WalRecordType.REBUILD: _replanned(lambda table, _arg: table.plan_rebuild()),
    WalRecordType.ARCHIVAL: _replanned(Table.plan_archival, "enabled"),
}
