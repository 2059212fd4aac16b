"""Binary serialization of column segments (the paper's segment LOBs).

SQL Server stores each column segment and dictionary as a LOB blob and
keeps only metadata in the directory. This module defines that blob
format for our segments: a self-describing, versioned binary layout that
round-trips every segment exactly — including archived ones — so indexes
can be persisted and reopened (:mod:`repro.storage.persist`).

Layout (little-endian, varint = LEB128):

    magic "CSEG" | version u8 | flags u8
    dtype: kind u8 | scale u8 | has_length u8 [| length varint]
    row_count varint | null_count varint | raw_size varint
    value stage kind u8 (the scheme: 0 dictionary, 1 value, 2 raw)
    stream stage: kind u8 | per-kind fields | payloads (varint length + bytes)
    [value stage section: a dictionary's serialized values (flag 1), or
     a value encoding's exponent zigzag | base zigzag (flag 2)]
    [null payload: varint length + bytes]  (flag)
    [min/max: serialized 2-value list]     (flag)
    [archive: varint length + bytes]       (flag)

Each stage writes and reads its own part (``write`` / ``read`` beside
its other operations). An archived segment's payloads, the stream's and
a dictionary's, sit inside the archive only: its stream payloads are
written empty, and its dictionary has no section of its own. Blobs from
before that rule, which also stored an archived dictionary plainly,
still read.
"""

from __future__ import annotations

import struct

from ..errors import CorruptBlobError, EncodingError, TypeMismatchError
from ..types import DataType, TypeKind
from . import serde
from .dictionary import LocalDictionary
from .encodings import IDENTITY, BitpackBlock, RawBlock
from .rle import RleBlock
from .segment import ColumnSegment, read_archive
from .value_encoding import ValueEncoding

_MAGIC = b"CSEG"
_VERSION = 1

_KIND_CODES = {kind: i for i, kind in enumerate(TypeKind)}
_KIND_FROM_CODE = {i: kind for kind, i in _KIND_CODES.items()}
_STREAM_STAGES = {stage.kind: stage for stage in (RleBlock, BitpackBlock, RawBlock)}
_VALUE_STAGES = {stage.kind: stage for stage in (LocalDictionary, ValueEncoding, IDENTITY)}

_FLAG_STAGES = LocalDictionary.flag | ValueEncoding.flag  # a value stage's own section
_FLAG_NULLS = 4
_FLAG_MINMAX = 8
_FLAG_ARCHIVE = 16


def serialize_segment(segment: ColumnSegment) -> bytes:
    """Serialize a segment (archived or plain) to its blob form."""
    dtype, values, stream = segment.dtype, segment.values, segment.stream
    section = bytearray()
    values.write(section, dtype, segment.archive is not None)
    flags = values.flag if section else 0
    if segment.null_payload is not None:
        flags |= _FLAG_NULLS
    if segment.min_value is not None:
        flags |= _FLAG_MINMAX
    if segment.archive is not None:
        flags |= _FLAG_ARCHIVE
    out = bytearray(_MAGIC)
    out += bytes((_VERSION, flags, _KIND_CODES[dtype.kind], dtype.scale, dtype.length is not None))
    if dtype.length is not None:
        serde.write_varint(out, dtype.length)

    serde.write_varint(out, segment.row_count)
    serde.write_varint(out, segment.null_count)
    serde.write_varint(out, segment.raw_size_bytes)
    out += bytes((values.kind, stream.kind))
    stream.write(out)
    out += section
    if segment.null_payload is not None:
        serde.write_bytes(out, segment.null_payload)
    if segment.min_value is not None:
        minmax = serde.serialize_values([segment.min_value, segment.max_value], dtype)
        serde.write_bytes(out, minmax)
    if segment.archive is not None:
        serde.write_bytes(out, segment.archive)
    return bytes(out)


def deserialize_segment(blob: bytes) -> ColumnSegment:
    """Inverse of :func:`serialize_segment`.

    Decoding is fully bounds-checked: any truncated, bit-flipped, or
    otherwise malformed blob raises :class:`EncodingError` (usually its
    :class:`CorruptBlobError` subclass) — raw ``IndexError``/``KeyError``/
    ``struct.error`` never escape.
    """
    return _checked_read(_deserialize_segment, blob)


def split_archive(blob: bytes) -> tuple[bytes, bytes | None]:
    """A segment blob's bytes before its archive, and the archive (None
    when the segment is not archived): the archive is the blob's last
    field. Bounds-checked as :func:`deserialize_segment` is."""
    return _checked_read(_split_archive, blob)


def _checked_read(read, blob: bytes):
    try:
        return read(blob)
    except EncodingError:
        raise
    except (
        IndexError,
        KeyError,
        ValueError,
        OverflowError,
        TypeMismatchError,  # e.g. a flipped scale byte on a non-DECIMAL dtype
        struct.error,
    ) as exc:
        # Belt and braces behind the explicit checks: whatever slips
        # through still surfaces as a structured storage error.
        raise CorruptBlobError(f"malformed segment blob: {exc!r}") from exc


def _head(blob: bytes) -> tuple[dict, type, int]:
    """Every field before the archive (as :class:`ColumnSegment` keywords;
    ``values`` is None when they sit inside the archive), the value
    stage, and where the archive field starts."""
    serde.need(blob, 0, 9)
    if blob[:4] != _MAGIC:
        raise EncodingError("not a CSEG segment blob")
    if blob[4] != _VERSION:
        raise EncodingError(f"unsupported segment blob version {blob[4]}")
    flags = blob[5]
    if blob[6] not in _KIND_FROM_CODE:
        raise CorruptBlobError(f"unknown type kind code {blob[6]}")
    length, pos = serde.read_varint(blob, 9) if blob[8] else (None, 9)
    dtype = DataType(_KIND_FROM_CODE[blob[6]], scale=blob[7], length=length)

    row_count, pos = serde.read_varint(blob, pos)
    null_count, pos = serde.read_varint(blob, pos)
    raw_size, pos = serde.read_varint(blob, pos)
    serde.need(blob, pos, 2)
    stage, stream_stage = _VALUE_STAGES.get(blob[pos]), _STREAM_STAGES.get(blob[pos + 1])
    if stage is None or stream_stage is None:
        raise CorruptBlobError(f"unknown stage kinds {blob[pos]}, {blob[pos + 1]}")
    if flags & _FLAG_STAGES & ~stage.flag:
        raise CorruptBlobError(f"flags {flags:#x} under scheme {stage.scheme.value}")
    stream, pos = stream_stage.read(blob, pos + 2)
    values, pos = stage.read(blob, pos, dtype, bool(flags & stage.flag))

    null_payload = None
    if flags & _FLAG_NULLS:
        null_payload, pos = serde.read_bytes(blob, pos)
    min_value = max_value = None
    if flags & _FLAG_MINMAX:
        payload, pos = serde.read_bytes(blob, pos)
        min_value, max_value = serde.deserialize_values(payload, dtype)
        if dtype.kind is TypeKind.BOOL:
            min_value, max_value = bool(min_value), bool(max_value)
    fields = dict(
        dtype=dtype,
        row_count=row_count,
        stream=stream,
        values=values,
        null_payload=null_payload,
        null_count=null_count,
        min_value=min_value,
        max_value=max_value,
        raw_size_bytes=raw_size,
    )
    return fields, stage, pos


def _split_archive(blob: bytes) -> tuple[bytes, bytes | None]:
    _fields, _stage, pos = _head(blob)
    if not blob[5] & _FLAG_ARCHIVE:
        return blob, None
    return blob[:pos], serde.read_bytes(blob, pos)[0]


def _deserialize_segment(blob: bytes) -> ColumnSegment:
    fields, stage, pos = _head(blob)
    archive = None
    if blob[5] & _FLAG_ARCHIVE:
        archive, pos = serde.read_bytes(blob, pos)
    if fields["values"] is None:  # its payloads sit inside the archive only
        if archive is None:
            raise CorruptBlobError(f"a {stage.scheme.value} segment without its payloads")
        fields["values"] = stage.from_payloads(read_archive(archive)[1], fields["dtype"])
    return _checked(ColumnSegment(**fields, archive=archive))


def _checked(segment: ColumnSegment) -> ColumnSegment:
    """``segment``, unless parts that each parsed disagree with one
    another, which a read of it would otherwise trip over: each stage
    checks itself, the stream against what the value stage reads."""
    stream, rows, nulls = segment.stream, segment.row_count, segment.null_payload
    if stream.count != rows:
        raise CorruptBlobError(f"a stream of {stream.count} values in a {rows}-row segment")
    stream.check(segment.values.check(segment.dtype.numpy_dtype))
    if nulls is not None and len(nulls) != (rows + 7) // 8:
        raise CorruptBlobError(f"{len(nulls)} null-mask bytes for {rows} rows")
    return segment
