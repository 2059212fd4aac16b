"""WAL record framing: fixed-header frames with per-record CRC-32C.

One log record is one committed statement (the facade never interleaves
records of two statements inside a frame, so a frame is the unit of
atomicity — there is no separate COMMIT marker to lose half of). The
wire layout, little-endian throughout::

    frame  := length:u32 | crc:u32 | body
    body   := type:u8 | lsn:u64 | txn_id:u64 | table_len:u16 | table:utf8 | payload

``txn_id`` ties a record to its transaction: 0 is the implicit
auto-commit transaction (the record commits with its own frame, as
before), while a nonzero id — the LSN of the transaction's
``TXN_BEGIN`` marker — marks a record that only takes effect if a
``TXN_COMMIT`` with the same id appears later in the log. Replay
collects the committed ids first and skips the rest
(:mod:`repro.wal.replay`).

``length`` counts the body bytes and ``crc`` is CRC-32C over the body,
so a torn append (only a prefix of the frame reached the disk) is
detected either by the frame extending past end-of-file or by a CRC
mismatch. :func:`scan_segment` classifies the damage: a bad record that
is the *last* thing in the segment is a torn tail (recovery truncates
it); a bad record *followed by* a well-formed record is mid-log
corruption (recovery refuses — valid data would be silently lost).

LSNs are assigned contiguously (1-based); the scanner enforces that each
record's LSN is exactly its predecessor's + 1, which catches spliced or
reordered segments that per-record CRCs cannot.

A ``ROW_GROUPS`` record does not carry its row groups: it names the
segment blobs its change wrote into the database's write-once pool
before the record was appended, by their paths relative to the
database root. Whatever keeps a log — the live log, its archive, a
backup, a restore — keeps the blobs its records name, and
:func:`logged_blobs` is the one answer to which those are.
"""

from __future__ import annotations

import enum
import json
import struct
from dataclasses import dataclass
from typing import Iterable

from ..errors import WalCorruptError
from ..storage.diskio import crc32c
from ..storage.snapshot import ManifestEntry

_FRAME_HEADER = struct.Struct("<II")  # body length, body crc32c
_BODY_HEADER = struct.Struct("<BQQH")  # record type, lsn, txn id, table-name length
MIN_BODY_BYTES = _BODY_HEADER.size

#: Transaction id of auto-committed statements (each record is its own
#: commit unit, exactly the pre-transaction behaviour).
AUTO_COMMIT_TXN = 0


class WalRecordType(enum.IntEnum):
    """Redo record types — one per mutating facade statement."""

    CREATE_TABLE = 1
    DROP_TABLE = 2
    CREATE_INDEX = 3
    INSERT = 4
    BULK_LOAD = 5
    DELETE = 6
    UPDATE = 7
    TUPLE_MOVER = 8
    REBUILD = 9
    ARCHIVAL = 10
    TXN_BEGIN = 11
    TXN_COMMIT = 12
    TXN_ABORT = 13
    # Compressed row groups a bulk load, the tuple mover, REBUILD or an
    # archival switch created, by the blobs holding their segments.
    ROW_GROUPS = 14


#: Marker records delimiting explicit transactions; they carry no table
#: or payload and replay never applies them to storage.
TXN_MARKER_TYPES = frozenset(
    {WalRecordType.TXN_BEGIN, WalRecordType.TXN_COMMIT, WalRecordType.TXN_ABORT}
)


@dataclass(frozen=True)
class WalRecord:
    """One decoded log record."""

    lsn: int
    rtype: WalRecordType
    table: str
    payload: bytes
    txn_id: int = AUTO_COMMIT_TXN


def row_groups_payload(body: dict) -> bytes:
    """A ROW_GROUPS payload: ``body["groups"]`` lists each group as
    ``{"id": ..., "segments": {column: manifest entry}}`` beside the
    change's other fields."""
    return json.dumps(body, sort_keys=True, separators=(",", ":")).encode("utf-8")


def parse_row_groups(payload: bytes) -> dict:
    """Inverse of :func:`row_groups_payload`, the entries as
    :class:`~repro.storage.snapshot.ManifestEntry`."""
    body = json.loads(payload.decode("utf-8"))
    for group in body["groups"]:
        group["segments"] = {
            column: ManifestEntry.from_json(entry) for column, entry in group["segments"].items()
        }
    return body


def logged_blobs(records: Iterable[WalRecord]) -> dict[str, tuple[int, ManifestEntry]]:
    """The pool blobs a log holding ``records`` needs, by path: each blob
    a ROW_GROUPS record names, with the LSN of the newest record naming it.

    Every record counts, whatever became of its transaction. The archive
    takes a segment when it is sealed, before a transaction open across
    it has committed or rolled back, so no narrower rule gives the live
    log, the archive, a backup, a restore and ``repro check`` the same
    answer for the same records. A rolled-back load's blobs cost only
    space: the pool drops them once its record leaves the live log, the
    archive once retention prunes the segment.
    """
    named: dict[str, tuple[int, ManifestEntry]] = {}
    for record in records:
        if record.rtype is WalRecordType.ROW_GROUPS:
            for group in parse_row_groups(record.payload)["groups"]:
                for entry in group["segments"].values():
                    named[entry.path] = (record.lsn, entry)
    return named


@dataclass
class SegmentDamage:
    """Where and how a segment scan stopped early."""

    kind: str  # "torn-tail" | "corrupt"
    offset: int
    detail: str


@dataclass
class SegmentScan:
    """Result of scanning one segment: the valid prefix + any damage."""

    records: list[WalRecord]
    good_bytes: int  # byte offset of the end of the last valid record
    damage: SegmentDamage | None = None


def encode_record(
    rtype: WalRecordType,
    lsn: int,
    table: str,
    payload: bytes,
    txn_id: int = AUTO_COMMIT_TXN,
) -> bytes:
    table_bytes = table.encode("utf-8")
    body = (
        _BODY_HEADER.pack(int(rtype), lsn, txn_id, len(table_bytes))
        + table_bytes
        + payload
    )
    return _FRAME_HEADER.pack(len(body), crc32c(body)) + body


def _decode_body(body: bytes) -> WalRecord:
    """Decode a CRC-verified body; raises ``ValueError`` on bad structure."""
    rtype_raw, lsn, txn_id, table_len = _BODY_HEADER.unpack_from(body, 0)
    if MIN_BODY_BYTES + table_len > len(body):
        raise ValueError(f"table name ({table_len} bytes) overruns the body")
    table = body[MIN_BODY_BYTES : MIN_BODY_BYTES + table_len].decode("utf-8")
    return WalRecord(
        lsn=lsn,
        rtype=WalRecordType(rtype_raw),
        table=table,
        payload=body[MIN_BODY_BYTES + table_len :],
        txn_id=txn_id,
    )


def _record_at(data: bytes, pos: int) -> tuple[WalRecord, int] | str:
    """Decode the record at ``pos``; returns (record, end) or a reason string."""
    if len(data) - pos < _FRAME_HEADER.size:
        return f"only {len(data) - pos} bytes left, frame header needs 8"
    length, crc = _FRAME_HEADER.unpack_from(data, pos)
    body_start = pos + _FRAME_HEADER.size
    if length > len(data) - body_start:
        return (
            f"frame claims {length} body bytes but only "
            f"{len(data) - body_start} remain"
        )
    body = data[body_start : body_start + length]
    if crc32c(body) != crc:
        return "record CRC-32C mismatch"
    if length < MIN_BODY_BYTES:
        return f"body of {length} bytes is below the {MIN_BODY_BYTES}-byte minimum"
    try:
        record = _decode_body(body)
    except (ValueError, UnicodeDecodeError) as exc:
        return f"undecodable body: {exc}"
    return record, body_start + length


def scan_segment(data: bytes, first_lsn: int, source: str = "<segment>") -> SegmentScan:
    """Parse every record of one segment, classifying any damage.

    ``first_lsn`` is the LSN the segment's first record must carry (it is
    encoded in the segment's file name). The scan stops at the first bad
    record; whether that is a tolerable torn tail or hard corruption is
    decided by looking *past* it — real data after a bad record means
    truncating would silently lose committed statements, so that case is
    reported as ``corrupt`` and recovery refuses to open the log.
    """
    records: list[WalRecord] = []
    pos = 0
    expected_lsn = first_lsn
    while pos < len(data):
        outcome = _record_at(data, pos)
        if isinstance(outcome, str):
            kind = "corrupt" if _valid_record_after(data, pos) else "torn-tail"
            return SegmentScan(
                records, pos, SegmentDamage(kind, pos, outcome)
            )
        record, end = outcome
        if record.lsn != expected_lsn:
            return SegmentScan(
                records,
                pos,
                SegmentDamage(
                    "corrupt",
                    pos,
                    f"LSN {record.lsn} where {expected_lsn} was expected "
                    "(log sequence broken)",
                ),
            )
        records.append(record)
        expected_lsn = record.lsn + 1
        pos = end
    return SegmentScan(records, pos)


def _valid_record_after(data: bytes, bad_pos: int) -> bool:
    """Does a well-formed record exist after the bad one at ``bad_pos``?

    Checks the position the bad frame's length field claims (the common
    mid-log bit-flip case: the CRC or body was hit but the length is
    intact, so the next frame still starts where it should).
    """
    if len(data) - bad_pos < _FRAME_HEADER.size:
        return False
    length, _ = _FRAME_HEADER.unpack_from(data, bad_pos)
    claimed_end = bad_pos + _FRAME_HEADER.size + length
    if claimed_end >= len(data):
        return False
    return not isinstance(_record_at(data, claimed_end), str)


def require_clean_scan(scan: SegmentScan, source: str) -> None:
    """Raise :class:`WalCorruptError` if a scan found hard corruption."""
    if scan.damage is not None and scan.damage.kind == "corrupt":
        raise WalCorruptError(
            scan.damage.detail, segment=source, offset=scan.damage.offset
        )
