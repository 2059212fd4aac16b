"""Compressed code-stream blocks and encoding selection helpers.

A column segment's integer stream (dictionary codes or value-encoded
offsets) is compressed either with run-length encoding or with bit packing,
whichever is smaller for that segment — the same per-segment choice the
paper describes. Raw blocks hold values that defeat both (e.g. full-range
floats).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Union

import numpy as np

from ..errors import EncodingError
from . import bitpack, rle
from .rle import RleBlock


class Scheme(enum.Enum):
    """How a segment's values map to its integer stream."""

    DICT = "dict"       # codes into a sorted local dictionary
    VALUE = "value"     # affine value encoding (exponent/base)
    RAW = "raw"         # verbatim fixed-width values


@dataclass(frozen=True)
class BitpackBlock:
    """A bit-packed stream of non-negative integer codes."""

    count: int
    width: int
    payload: bytes

    @property
    def size_bytes(self) -> int:
        return len(self.payload) + 8

    def decode(self) -> np.ndarray:
        return bitpack.unpack(self.payload, self.width, self.count)

    def take(self, positions: np.ndarray) -> np.ndarray:
        return bitpack.take(self.payload, self.width, self.count, positions)

    def take_few(self, positions: list[int]) -> list[int]:
        return bitpack.take_few(self.payload, self.width, self.count, positions)


@dataclass(frozen=True)
class RawBlock:
    """Verbatim little-endian values (used when encoding does not pay off)."""

    count: int
    dtype_str: str
    payload: bytes

    @property
    def size_bytes(self) -> int:
        return len(self.payload) + 8

    def decode(self) -> np.ndarray:
        return np.frombuffer(self.payload, dtype=np.dtype(self.dtype_str)).copy()

    def take(self, positions: np.ndarray) -> np.ndarray:
        return np.frombuffer(self.payload, dtype=np.dtype(self.dtype_str))[positions]

    @classmethod
    def from_array(cls, values: np.ndarray) -> "RawBlock":
        values = np.ascontiguousarray(values)
        return cls(count=int(values.size), dtype_str=values.dtype.str, payload=values.tobytes())


StreamBlock = Union[RleBlock, BitpackBlock, RawBlock]


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
