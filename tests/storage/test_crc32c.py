"""The checksums: ``crc32``, which every new file and frame carries, and
``crc32c_scalar``, which verifies the CRC-32C earlier builds stored.

``crc32`` is zlib's; it is held to the published vectors and to a
byte-at-a-time table walk of the IEEE polynomial written out here — the
same value for every length, seed, split point and buffer type, with any
buffer counted in bytes. The lengths are the boundaries the numpy CRC-32C
kernel it replaced had (its word/kernel threshold, lane, power-of-two
lane counts and block size), kept because a length that once mattered to
a checksum is a cheap one to keep testing. ``crc32c_scalar`` keeps the
RFC 3720 vectors.
"""

import random
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.compat import crc32c_scalar
from repro.storage.diskio import crc32

_BOUNDARY_LENGTHS = [
    0, 1, 1023, 1024, 1025, 1027, 1039, 1040, 1041, 1279, 1280, 1281, 1295, 1296,
    1297, 262143, 262144, 262145, 262162, (1 << 20) + 3,
]


def _build_crc32_table() -> tuple[int, ...]:
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            crc = (crc >> 1) ^ 0xEDB88320 if crc & 1 else crc >> 1  # reversed IEEE polynomial
        table.append(crc)
    return tuple(table)


_CRC32_TABLE = _build_crc32_table()


def crc32_reference(data: bytes, value: int = 0) -> int:
    crc = value ^ 0xFFFFFFFF
    for byte in data:
        crc = (crc >> 8) ^ _CRC32_TABLE[(crc ^ byte) & 0xFF]
    return crc ^ 0xFFFFFFFF


def _payload(length: int, seed: int = 0) -> bytes:
    return random.Random(seed * 1_000_003 + length).randbytes(length)


def test_crc32_vectors():
    assert crc32(b"123456789") == 0xCBF43926
    assert crc32(b"") == 0
    assert crc32(b"\x00" * 32) == 0x190A55AD
    assert crc32(b" world", crc32(b"hello")) == crc32(b"hello world")


def test_legacy_crc32c_vectors():
    # RFC 3720 appendix B: what an earlier build's checksums are held to.
    assert crc32c_scalar(b"123456789") == 0xE3069283
    assert crc32c_scalar(b"") == 0
    assert crc32c_scalar(b"\x00" * 32) == 0x8A9136AA
    assert crc32c_scalar(b" world", crc32c_scalar(b"hello")) == crc32c_scalar(b"hello world")


@pytest.mark.parametrize("length", _BOUNDARY_LENGTHS)
@pytest.mark.parametrize("value", [0, 0xDEADBEEF, 0xFFFFFFFF])
def test_boundary_lengths_match_the_scalar_reference(length, value):
    data = _payload(length)
    assert crc32(data, value) == crc32_reference(data, value)


@settings(max_examples=60, deadline=None)
@given(
    length=st.one_of(
        st.integers(0, 5000),
        st.sampled_from(_BOUNDARY_LENGTHS[:-1]).flatmap(
            lambda n: st.integers(max(0, n - 5), n + 5)
        ),
    ),
    value=st.integers(0, 0xFFFFFFFF),
    seed=st.integers(0, 1 << 16),
)
def test_differential_against_the_scalar_reference(length, value, seed):
    data = _payload(length, seed)
    assert crc32(data, value) == crc32_reference(data, value)


@settings(max_examples=40, deadline=None)
@given(
    length=st.integers(0, 270_000),
    cut=st.floats(0, 1),
    seed=st.integers(0, 1 << 16),
)
def test_chaining_split_at_any_offset(length, cut, seed):
    data = _payload(length, seed)
    split = int(cut * length)
    assert crc32(data[split:], crc32(data[:split])) == crc32(data)


def test_all_zero_and_all_one_buffers():
    for fill in (b"\x00", b"\xff"):
        data = fill * (3 * 1280 + 5)
        assert crc32(data) == crc32_reference(data)
        assert crc32c_scalar(data) != crc32(data)


def test_buffer_types_agree():
    data = _payload(5 * 1280 + 3)
    expected = crc32_reference(data, 9)
    assert crc32(bytearray(data), 9) == expected
    assert crc32(memoryview(data), 9) == expected
    padded = b"\x55" + data  # an odd offset into a larger buffer
    assert crc32(memoryview(padded)[1:], 9) == expected


def test_single_bit_flips_detected_in_a_64k_buffer():
    data = bytearray(_payload(64 * 1024))
    reference = crc32(data)
    rng = random.Random(0)
    positions = {0, len(data) - 1, 15, 16, 1280, len(data) // 2}
    positions.update(rng.randrange(len(data)) for _ in range(40))
    for position in sorted(positions):
        bit = 1 << rng.randrange(8)
        data[position] ^= bit
        assert crc32(data) != reference, f"flip at byte {position} undetected"
        data[position] ^= bit
    assert crc32(data) == reference


def test_every_length_to_2048_matches_the_scalar_reference():
    # Every remainder mod 4, a random seed value each, and three buffer
    # types: bytes, bytearray, and a memoryview one byte into a larger
    # buffer.
    rng = random.Random(2048)
    padded = b"\xa5" + _payload(2048, seed=3)
    for length in range(2049):
        data = padded[1 : 1 + length]
        value = rng.getrandbits(32)
        expected = crc32_reference(data, value)
        assert crc32(data, value) == expected, length
        assert crc32(bytearray(data), value) == expected, length
        assert crc32(memoryview(padded)[1 : 1 + length], value) == expected, length


@pytest.mark.parametrize("items", [40, 1000])
def test_items_wider_than_a_byte_are_counted_in_bytes(items):
    # A uint32 array and an array('I') checksum their bytes, not their
    # items.
    numbers = np.arange(items, dtype=np.uint32)
    expected = crc32_reference(numbers.tobytes())
    assert crc32(numbers) == expected
    assert crc32(array("I", range(items))) == expected
    assert crc32(memoryview(array("I", range(items)))) == expected
