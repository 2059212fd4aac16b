"""Stream stages, the raw value stage, and encoding selection helpers.

A column segment reads through one value stage over one stream stage
(:mod:`repro.storage.segment`). The stream stage holds the integer stream
(dictionary codes or value-encoded offsets), compressed either with
run-length encoding (:class:`~repro.storage.rle.RleBlock`) or with bit
packing (:class:`BitpackBlock`), whichever is smaller for that segment —
the same per-segment choice the paper describes. A :class:`RawBlock`
holds values that defeat both (e.g. full-range floats) verbatim, read
through :data:`IDENTITY`.

Every stream stage defines, once: ``take(positions)`` (``None``: every
row), ``take_few(list)`` in Python integers, ``payloads()`` and
``with_payloads(parts)`` for the archive, ``check(dtype)`` against the
dtype its value stage reads, and its blob codec, ``write`` beside
``read``, registered under its kind byte ``kind``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Union

import numpy as np

from ..errors import CorruptBlobError, EncodingError
from . import bitpack, rle, serde
from .bitpack import CODES
from .rle import RleBlock


class Scheme(enum.Enum):
    """How a segment's values map to its integer stream: its value stage."""

    DICT = "dict"       # Gather: codes into a sorted local dictionary
    VALUE = "value"     # Affine: value encoding (exponent/base)
    RAW = "raw"         # Identity: verbatim fixed-width values


@dataclass(frozen=True)
class BitpackBlock:
    """Unpack: a bit-packed stream of non-negative integer codes."""

    kind = 1
    count: int
    width: int
    payload: bytes

    @property
    def size_bytes(self) -> int:
        return len(self.payload) + 8

    def take(self, positions: np.ndarray | None = None) -> np.ndarray:
        return bitpack.take(self.payload, self.width, self.count, positions)

    def take_few(self, positions: list[int]) -> list[int]:
        return bitpack.take_few(self.payload, self.width, self.count, positions)

    def payloads(self) -> list[bytes]:
        return [self.payload]

    def with_payloads(self, parts: list[bytes]) -> "BitpackBlock":
        (payload,) = parts
        return replace(self, payload=payload)

    def check(self, dtype: np.dtype) -> None:
        if dtype != CODES:
            raise CorruptBlobError(f"bit-packed codes under a stage reading {dtype}")

    def write(self, out: bytearray) -> None:
        serde.write_varint(out, self.count)
        out.append(self.width)
        serde.write_bytes(out, self.payload)

    @classmethod
    def read(cls, blob: bytes, pos: int) -> tuple["BitpackBlock", int]:
        count, pos = serde.read_varint(blob, pos)
        payload, end = serde.read_bytes(blob, pos + 1)
        return cls(count, blob[pos], payload), end


@dataclass(frozen=True)
class RawBlock:
    """Verbatim little-endian values (used when encoding does not pay off)."""

    kind = 2
    count: int
    dtype_str: str
    payload: bytes

    @property
    def size_bytes(self) -> int:
        return len(self.payload) + 8

    def _values(self) -> np.ndarray:
        dtype = np.dtype(self.dtype_str)
        if len(self.payload) != self.count * dtype.itemsize:
            raise EncodingError(f"{len(self.payload)} raw bytes for {self.count} rows")
        return np.frombuffer(self.payload, dtype=dtype)

    def take(self, positions: np.ndarray | None = None) -> np.ndarray:
        values = self._values()
        return values.copy() if positions is None else values[positions]

    def take_few(self, positions: list[int]) -> np.ndarray:
        return self._values()[positions]  # an array already: Identity maps nothing

    def payloads(self) -> list[bytes]:
        return [self.payload]

    def with_payloads(self, parts: list[bytes]) -> "RawBlock":
        (payload,) = parts
        return replace(self, payload=payload)

    def check(self, dtype: np.dtype) -> None:
        if self.dtype_str != dtype.str:
            raise CorruptBlobError(f"raw values {self.dtype_str!r} in a {dtype.str} column")

    def write(self, out: bytearray) -> None:
        serde.write_varint(out, self.count)
        serde.write_bytes(out, self.dtype_str.encode("ascii"))
        serde.write_bytes(out, self.payload)

    @classmethod
    def read(cls, blob: bytes, pos: int) -> tuple["RawBlock", int]:
        count, pos = serde.read_varint(blob, pos)
        dtype_str, pos = serde.read_bytes(blob, pos)
        payload, pos = serde.read_bytes(blob, pos)
        return cls(count, dtype_str.decode("ascii"), payload), pos

    @classmethod
    def from_array(cls, values: np.ndarray) -> "RawBlock":
        values = np.ascontiguousarray(values)
        return cls(count=int(values.size), dtype_str=values.dtype.str, payload=values.tobytes())


StreamBlock = Union[RleBlock, BitpackBlock, RawBlock]


class Identity:
    """The raw value stage: its stream holds the column's values."""

    scheme = Scheme.RAW
    kind, flag, size_bytes = 2, 0, 0

    def map(self, values: np.ndarray, dtype: np.dtype) -> np.ndarray:
        return values

    map_few = map

    def check(self, dtype: np.dtype) -> np.dtype:
        return dtype

    def payloads(self, dtype) -> list[bytes]:
        return []

    def write(self, out: bytearray, dtype, archived: bool) -> None:
        pass

    def read(self, blob: bytes, pos: int, dtype, present: bool) -> tuple["Identity", int]:
        return self, pos


IDENTITY = Identity()


def encode_stream(codes: np.ndarray) -> StreamBlock:
    """Compress an integer code stream: RLE vs bit packing, smaller wins.

    The choice is made from cheap estimates first, then the winning block is
    materialized (the paper's compressor likewise picks per-segment).
    """
    codes = np.asarray(codes)
    if codes.size and int(codes.min()) < 0:
        raise EncodingError("code streams must be non-negative")
    width = bitpack.bits_needed(int(codes.max()) if codes.size else 0)
    bitpack_size = bitpack.packed_size_bytes(codes.size, width) + 8
    rle_size = rle.estimated_size_bytes(codes, width)
    if rle_size < bitpack_size:
        return rle.encode(codes)
    return BitpackBlock(
        count=int(codes.size), width=width, payload=bitpack.pack(codes, width)
    )


def pack_null_mask(null_mask: np.ndarray) -> bytes:
    """Pack a boolean null mask into a bitmap (little-endian bit order)."""
    return np.packbits(null_mask.astype(np.uint8), bitorder="little").tobytes()


def unpack_null_mask(payload: bytes, count: int) -> np.ndarray:
    """Inverse of :func:`pack_null_mask`."""
    return np.unpackbits(
        np.frombuffer(payload, dtype=np.uint8), count=count, bitorder="little"
    ).astype(bool)


def take_null_mask(payload: bytes, positions: np.ndarray | list[int]) -> np.ndarray:
    """:func:`unpack_null_mask` at ``positions`` only (a list: read bit by
    bit in Python)."""
    if isinstance(positions, list):
        return np.array([payload[p >> 3] >> (p & 7) & 1 for p in positions], dtype=bool)
    bits = np.frombuffer(payload, dtype=np.uint8)[positions >> 3]
    return (bits >> (positions & 7).astype(np.uint8) & 1).astype(bool)


def dictionary_pays_off(
    count: int, ndv: int, offset_width: int, dict_entry_bytes: int
) -> bool:
    """Whether dictionary encoding beats value encoding for an int segment.

    Dictionary wins when the code stream shrinks (fewer bits per row because
    NDV << value range) by more than the dictionary's own storage cost.
    """
    if ndv == 0:
        return False
    dict_width = bitpack.bits_needed(ndv - 1)
    stream_saving_bits = (offset_width - dict_width) * count
    dict_cost_bits = ndv * dict_entry_bytes * 8
    return stream_saving_bits > dict_cost_bits
