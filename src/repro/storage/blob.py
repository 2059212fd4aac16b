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
    scheme u8
    stream: kind u8 | per-kind fields | payloads (varint length + bytes)
    [dictionary: serialized values]        (flag)
    [value encoding: exponent zigzag | base zigzag]  (flag)
    [null payload: varint length + bytes]  (flag)
    [min/max: serialized 2-value list]     (flag)
    [archive: varint length + bytes]       (flag)
"""

from __future__ import annotations

import struct

from ..errors import CorruptBlobError, EncodingError, TypeMismatchError
from ..types import DataType, TypeKind
from . import serde
from .dictionary import LocalDictionary
from .encodings import BitpackBlock, RawBlock, Scheme
from .rle import RleBlock
from .segment import ColumnSegment
from .value_encoding import ValueEncoding

_MAGIC = b"CSEG"
_VERSION = 1

_KIND_CODES = {kind: i for i, kind in enumerate(TypeKind)}
_KIND_FROM_CODE = {i: kind for kind, i in _KIND_CODES.items()}
_SCHEME_CODES = {Scheme.DICT: 0, Scheme.VALUE: 1, Scheme.RAW: 2}
_SCHEME_FROM_CODE = {v: k for k, v in _SCHEME_CODES.items()}

_FLAG_DICT = 1
_FLAG_VENC = 2
_FLAG_NULLS = 4
_FLAG_MINMAX = 8
_FLAG_ARCHIVE = 16

_STREAM_RLE = 0
_STREAM_BITPACK = 1
_STREAM_RAW = 2


def _zigzag(value: int) -> int:
    return (value << 1) ^ (value >> 63) if value < 0 else value << 1


def _unzigzag(value: int) -> int:
    return (value >> 1) ^ -(value & 1)


def _write_bytes(out: bytearray, payload: bytes) -> None:
    serde.write_varint(out, len(payload))
    out += payload


def _need(blob: bytes, pos: int, count: int) -> None:
    """Bounds check: the next ``count`` bytes must exist."""
    if pos + count > len(blob):
        raise CorruptBlobError(
            f"segment blob truncated at offset {pos} "
            f"(need {count} more bytes, have {len(blob) - pos})"
        )


def _read_bytes(blob: bytes, pos: int) -> tuple[bytes, int]:
    length, pos = serde.read_varint(blob, pos)
    _need(blob, pos, length)
    return blob[pos : pos + length], pos + length


def serialize_segment(segment: ColumnSegment) -> bytes:
    """Serialize a segment (archived or plain) to its blob form."""
    out = bytearray(_MAGIC)
    out.append(_VERSION)
    flags = 0
    if segment.dictionary is not None:
        flags |= _FLAG_DICT
    if segment.value_enc is not None:
        flags |= _FLAG_VENC
    if segment.null_payload is not None:
        flags |= _FLAG_NULLS
    if segment.min_value is not None:
        flags |= _FLAG_MINMAX
    if segment.archive is not None:
        flags |= _FLAG_ARCHIVE
    out.append(flags)

    dtype = segment.dtype
    out.append(_KIND_CODES[dtype.kind])
    out.append(dtype.scale)
    out.append(1 if dtype.length is not None else 0)
    if dtype.length is not None:
        serde.write_varint(out, dtype.length)

    serde.write_varint(out, segment.row_count)
    serde.write_varint(out, segment.null_count)
    serde.write_varint(out, segment.raw_size_bytes)
    out.append(_SCHEME_CODES[segment.scheme])

    _write_stream(out, segment)

    if segment.dictionary is not None:
        _write_bytes(out, serde.serialize_values(segment.dictionary.values, dtype))
    if segment.value_enc is not None:
        serde.write_varint(out, _zigzag(segment.value_enc.exponent))
        serde.write_varint(out, _zigzag(segment.value_enc.base))
    if segment.null_payload is not None:
        _write_bytes(out, segment.null_payload)
    if segment.min_value is not None:
        minmax = serde.serialize_values([segment.min_value, segment.max_value], dtype)
        _write_bytes(out, minmax)
    if segment.archive is not None:
        _write_bytes(out, segment.archive)
    return bytes(out)


def _write_stream(out: bytearray, segment: ColumnSegment) -> None:
    stream = segment.stream
    if isinstance(stream, RleBlock):
        out.append(_STREAM_RLE)
        serde.write_varint(out, stream.count)
        serde.write_varint(out, stream.n_runs)
        out.append(stream.value_width)
        out.append(stream.length_width)
        _write_bytes(out, stream.value_payload)
        _write_bytes(out, stream.length_payload)
    elif isinstance(stream, BitpackBlock):
        out.append(_STREAM_BITPACK)
        serde.write_varint(out, stream.count)
        out.append(stream.width)
        _write_bytes(out, stream.payload)
    elif isinstance(stream, RawBlock):
        out.append(_STREAM_RAW)
        serde.write_varint(out, stream.count)
        _write_bytes(out, stream.dtype_str.encode("ascii"))
        _write_bytes(out, stream.payload)
    else:  # pragma: no cover - exhaustive
        raise EncodingError(f"unknown stream block {type(stream).__name__}")


def deserialize_segment(blob: bytes) -> ColumnSegment:
    """Inverse of :func:`serialize_segment`.

    Decoding is fully bounds-checked: any truncated, bit-flipped, or
    otherwise malformed blob raises :class:`EncodingError` (usually its
    :class:`CorruptBlobError` subclass) — raw ``IndexError``/``KeyError``/
    ``struct.error`` never escape.
    """
    try:
        return _deserialize_segment(blob)
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


def _deserialize_segment(blob: bytes) -> ColumnSegment:
    _need(blob, 0, 6)
    if blob[:4] != _MAGIC:
        raise EncodingError("not a CSEG segment blob")
    if blob[4] != _VERSION:
        raise EncodingError(f"unsupported segment blob version {blob[4]}")
    flags = blob[5]
    pos = 6

    _need(blob, pos, 3)
    if blob[pos] not in _KIND_FROM_CODE:
        raise CorruptBlobError(f"unknown type kind code {blob[pos]}")
    kind = _KIND_FROM_CODE[blob[pos]]
    scale = blob[pos + 1]
    has_length = blob[pos + 2]
    pos += 3
    length = None
    if has_length:
        length, pos = serde.read_varint(blob, pos)
    dtype = DataType(kind, scale=scale, length=length)

    row_count, pos = serde.read_varint(blob, pos)
    null_count, pos = serde.read_varint(blob, pos)
    raw_size, pos = serde.read_varint(blob, pos)
    _need(blob, pos, 1)
    if blob[pos] not in _SCHEME_FROM_CODE:
        raise CorruptBlobError(f"unknown scheme code {blob[pos]}")
    scheme = _SCHEME_FROM_CODE[blob[pos]]
    pos += 1

    stream, pos = _read_stream(blob, pos)

    dictionary = None
    if flags & _FLAG_DICT:
        payload, pos = _read_bytes(blob, pos)
        dictionary = LocalDictionary(serde.deserialize_values(payload, dtype))
    value_enc = None
    if flags & _FLAG_VENC:
        exponent, pos = serde.read_varint(blob, pos)
        base, pos = serde.read_varint(blob, pos)
        value_enc = ValueEncoding(_unzigzag(exponent), _unzigzag(base))
    null_payload = None
    if flags & _FLAG_NULLS:
        null_payload, pos = _read_bytes(blob, pos)
    min_value = max_value = None
    if flags & _FLAG_MINMAX:
        payload, pos = _read_bytes(blob, pos)
        min_value, max_value = serde.deserialize_values(payload, dtype)
        if dtype.kind is TypeKind.BOOL:
            min_value, max_value = bool(min_value), bool(max_value)
    archive = None
    if flags & _FLAG_ARCHIVE:
        archive, pos = _read_bytes(blob, pos)

    return _checked(ColumnSegment(
        dtype=dtype,
        row_count=row_count,
        scheme=scheme,
        stream=stream,
        dictionary=dictionary,
        value_enc=value_enc,
        null_payload=null_payload,
        null_count=null_count,
        min_value=min_value,
        max_value=max_value,
        raw_size_bytes=raw_size,
        archive=archive,
    ))


# What a scheme's segment carries: (a dictionary, a value encoding).
_SCHEME_PARTS = {
    Scheme.DICT: (True, False), Scheme.VALUE: (False, True), Scheme.RAW: (False, False)
}


def _checked(segment: ColumnSegment) -> ColumnSegment:
    """``segment``, unless parts that each parsed disagree with one
    another, which a read of it would otherwise trip over."""
    scheme, stream, rows = segment.scheme, segment.stream, segment.row_count
    parts = (segment.dictionary is not None, segment.value_enc is not None)
    if parts != _SCHEME_PARTS[scheme]:
        raise CorruptBlobError(f"scheme {scheme.value} with (dictionary, value encoding) {parts}")
    if (scheme is Scheme.RAW) != isinstance(stream, RawBlock):
        raise CorruptBlobError(f"a {type(stream).__name__} under scheme {scheme.value}")
    if stream.count != rows:
        raise CorruptBlobError(f"a stream of {stream.count} values in a {rows}-row segment")
    if isinstance(stream, RleBlock) and stream.n_runs > stream.count:
        raise CorruptBlobError(f"{stream.n_runs} runs of {stream.count} values")
    if isinstance(stream, RawBlock):
        physical = segment.dtype.numpy_dtype
        if stream.dtype_str != physical.str:
            raise CorruptBlobError(f"raw values {stream.dtype_str!r} in a {physical.str} column")
        if not segment.archived and len(stream.payload) != rows * physical.itemsize:
            raise CorruptBlobError(f"{len(stream.payload)} raw bytes for {rows} rows")
    nulls = segment.null_payload
    if nulls is not None and len(nulls) != (rows + 7) // 8:
        raise CorruptBlobError(f"{len(nulls)} null-mask bytes for {rows} rows")
    # Inverting adds the base and scales by 10**|exponent| in int64.
    venc = segment.value_enc
    if venc is not None and not (abs(venc.exponent) <= 18 and -(2**63) <= venc.base < 2**63):
        raise CorruptBlobError(f"value encoding {venc} overflows int64")
    return segment


def _read_stream(blob: bytes, pos: int):
    _need(blob, pos, 1)
    stream_kind = blob[pos]
    pos += 1
    if stream_kind == _STREAM_RLE:
        count, pos = serde.read_varint(blob, pos)
        n_runs, pos = serde.read_varint(blob, pos)
        _need(blob, pos, 2)
        value_width = blob[pos]
        length_width = blob[pos + 1]
        pos += 2
        value_payload, pos = _read_bytes(blob, pos)
        length_payload, pos = _read_bytes(blob, pos)
        return (
            RleBlock(
                count=count,
                n_runs=n_runs,
                value_width=value_width,
                length_width=length_width,
                value_payload=value_payload,
                length_payload=length_payload,
            ),
            pos,
        )
    if stream_kind == _STREAM_BITPACK:
        count, pos = serde.read_varint(blob, pos)
        _need(blob, pos, 1)
        width = blob[pos]
        pos += 1
        payload, pos = _read_bytes(blob, pos)
        return BitpackBlock(count=count, width=width, payload=payload), pos
    if stream_kind == _STREAM_RAW:
        count, pos = serde.read_varint(blob, pos)
        dtype_str, pos = _read_bytes(blob, pos)
        payload, pos = _read_bytes(blob, pos)
        try:
            dtype_decoded = dtype_str.decode("ascii")
        except UnicodeDecodeError as exc:
            raise CorruptBlobError(f"corrupt raw-block dtype string: {exc}") from exc
        return RawBlock(count=count, dtype_str=dtype_decoded, payload=payload), pos
    raise CorruptBlobError(f"unknown stream kind {stream_kind}")
