"""Small binary serializers for segment blobs, archives and dictionaries.

Varints, bounds-checked length-prefixed byte strings, and a
length-prefixed encoding for value lists (dictionary contents).
Integers/floats/dates are 8-byte little-endian; strings are
varint-length-prefixed UTF-8.
"""

from __future__ import annotations

import struct
from typing import Any, Sequence

import numpy as np

from ..errors import CorruptBlobError, EncodingError
from ..types import DataType, TypeKind


def write_varint(out: bytearray, value: int) -> None:
    """LEB128-style unsigned varint."""
    if value < 0:
        raise EncodingError(f"varint requires non-negative value, got {value}")
    while value >= 0x80:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def read_varint(payload: bytes, pos: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if pos >= len(payload):
            raise EncodingError("truncated varint")
        byte = payload[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 70:
            raise EncodingError("malformed varint (too many continuation bytes)")


def need(blob: bytes, pos: int, count: int) -> None:
    """Bounds check: the next ``count`` bytes must exist."""
    if pos + count > len(blob):
        raise CorruptBlobError(
            f"segment blob truncated at offset {pos} "
            f"(need {count} more bytes, have {len(blob) - pos})"
        )


def write_bytes(out: bytearray, payload: bytes) -> None:
    write_varint(out, len(payload))
    out += payload


def read_bytes(blob: bytes, pos: int) -> tuple[bytes, int]:
    length, pos = read_varint(blob, pos)
    need(blob, pos, length)
    return blob[pos : pos + length], pos + length


def utf8(strings: Sequence[str]) -> tuple[bytes, np.ndarray]:
    """The strings' UTF-8 bytes end to end (one encode of them all), and
    each one's length in bytes as int64."""
    joined = "".join(strings)
    data = joined.encode("utf-8")
    if len(data) == len(joined):  # all ASCII: a byte a character
        return data, np.fromiter(map(len, strings), dtype=np.int64, count=len(strings))
    encoded = map(str.encode, strings)
    return data, np.fromiter(map(len, encoded), dtype=np.int64, count=len(strings))


def _serialize_strings(strings: Sequence[str]) -> bytes:
    """The VARCHAR value list — the count, then each string's UTF-8
    length as a varint and its bytes — written as arrays: each length's
    varint bytes are placed at once, byte position by byte position, and
    the strings' bytes fill the gaps between them."""
    data, lengths = utf8(strings)
    # Each length's varint bytes: 7 bits a byte (frexp's exponent is the
    # bit length), at least one.
    heads = np.maximum(1, (np.frexp(lengths)[1] + 6) // 7)
    starts = np.cumsum(heads + lengths) - heads - lengths
    body = np.ones(len(data) + int(heads.sum()), dtype=bool)
    out = np.empty(body.size, dtype=np.uint8)
    for byte in range(int(heads.max(initial=0))):
        more = heads > byte
        at = starts[more] + byte
        out[at] = lengths[more] >> 7 * byte & 0x7F | (heads[more] > byte + 1) << 7
        body[at] = False
    out[body] = np.frombuffer(data, dtype=np.uint8)
    count = bytearray()
    write_varint(count, lengths.size)
    return bytes(count) + out.tobytes()


def serialize_values(values: Sequence[Any], dtype: DataType) -> bytes:
    """Serialize a list of physical values of one column type."""
    out = bytearray()
    write_varint(out, len(values))
    if dtype.kind is TypeKind.VARCHAR:
        for value in values:
            encoded = value.encode("utf-8")
            write_varint(out, len(encoded))
            out += encoded
    elif dtype.kind is TypeKind.FLOAT:
        for value in values:
            out += struct.pack("<d", float(value))
    else:
        for value in values:
            out += struct.pack("<q", int(value))
    return bytes(out)


def serialize_array(values: np.ndarray, dtype: DataType) -> bytes:
    """:func:`serialize_values` for an array of physical values — the same
    bytes, written as arrays: numbers as one ``<i8`` / ``<f8`` buffer,
    strings by :func:`_serialize_strings` (a few values, a row's, cost
    less through :func:`serialize_values`' loop)."""
    if dtype.kind is TypeKind.VARCHAR:
        return _serialize_strings(values.tolist())
    out = bytearray()
    write_varint(out, len(values))
    out += values.astype("<f8" if dtype.kind is TypeKind.FLOAT else "<i8").tobytes()
    return bytes(out)


def deserialize_array(payload: bytes, dtype: DataType) -> np.ndarray:
    """Inverse of :func:`serialize_array`: an array of ``dtype``'s
    physical dtype, bounds-checked as :func:`deserialize_values` is."""
    if dtype.kind is TypeKind.VARCHAR:
        return dtype.physical_array(deserialize_values(payload, dtype))
    count, pos = read_varint(payload, 0)
    if pos + 8 * count != len(payload):
        raise EncodingError(
            f"value payload of {count} values needs {8 * count} bytes at "
            f"offset {pos}, has {len(payload) - pos}"
        )
    wide = np.frombuffer(payload, "<f8" if dtype.kind is TypeKind.FLOAT else "<i8", count, pos)
    values = wide.astype(dtype.numpy_dtype)
    if values.dtype.kind == "i" and not np.array_equal(values, wide):
        raise EncodingError(f"value payload holds a value out of range for {dtype}")
    return values


def deserialize_values(payload: bytes, dtype: DataType) -> list[Any]:
    """Inverse of :func:`serialize_values`.

    Bounds-checked: truncated or bit-flipped payloads raise
    :class:`EncodingError` — never ``IndexError``/``struct.error`` — so
    corrupt blobs surface as structured storage errors.
    """
    count, pos = read_varint(payload, 0)
    values: list[Any] = []
    if dtype.kind is TypeKind.VARCHAR:
        for _ in range(count):
            length, pos = read_varint(payload, pos)
            if pos + length > len(payload):
                raise EncodingError(
                    f"truncated string payload: need {length} bytes at "
                    f"offset {pos}, have {len(payload) - pos}"
                )
            try:
                values.append(payload[pos : pos + length].decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise EncodingError(f"corrupt utf-8 string payload: {exc}") from exc
            pos += length
    else:
        fmt = "<d" if dtype.kind is TypeKind.FLOAT else "<q"
        if pos + 8 * count > len(payload):
            raise EncodingError(
                f"truncated value payload: need {8 * count} bytes at "
                f"offset {pos}, have {len(payload) - pos}"
            )
        for _ in range(count):
            values.append(struct.unpack_from(fmt, payload, pos)[0])
            pos += 8
    return values
