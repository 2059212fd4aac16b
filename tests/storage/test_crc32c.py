"""The CRC-32C word loop and lane-parallel kernel against the scalar
reference.

``crc32c_scalar`` is the byte-at-a-time table walk: the path ``crc32c``
takes on a big-endian host and the definition both faster paths must
reproduce bit for bit — same value for every length, seed, split point
and buffer type. Below the kernel threshold ``crc32c`` advances four
bytes a step through two half-word tables; lengths are drawn around
every boundary the kernel has: the word/kernel threshold, the lane
length, the power-of-two lane counts the fold pads to, and the block
size inputs are chained across.
"""

import random
import sys
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import diskio
from repro.storage.diskio import crc32c, crc32c_scalar

THRESHOLD = diskio._KERNEL_MIN_BYTES
LANE = diskio._LANE_BYTES
BLOCK = diskio._BLOCK_BYTES

_BOUNDARY_LENGTHS = sorted(
    {
        0,
        1,
        THRESHOLD - 1,
        THRESHOLD,
        THRESHOLD + 1,
        THRESHOLD + LANE - 1,  # not a multiple of 4, nor of the lane
        THRESHOLD + LANE,
        THRESHOLD + LANE + 1,
        # 1 KiB, the threshold before the word loop: inputs the kernel
        # took then and the word loop takes now.
        1023,
        1024,
        1025,
        1024 + LANE - 1,
        1024 + LANE + 1,
        65 * LANE,  # one lane past a power-of-two lane count
        64 * LANE + 3,
        BLOCK - 1,
        BLOCK,
        BLOCK + 1,
        BLOCK + LANE + 2,  # a second block of a single lane, plus a tail
        (1 << 20) + 3,
    }
)


def _payload(length: int, seed: int = 0) -> bytes:
    return random.Random(seed * 1_000_003 + length).randbytes(length)


@pytest.mark.parametrize("length", _BOUNDARY_LENGTHS)
@pytest.mark.parametrize("value", [0, 0xDEADBEEF, 0xFFFFFFFF])
def test_boundary_lengths_match_the_scalar_reference(length, value):
    data = _payload(length)
    assert crc32c(data, value) == crc32c_scalar(data, value)


def test_every_length_around_the_threshold():
    data = _payload(THRESHOLD + 4 * LANE)
    for length in range(THRESHOLD - 2, len(data) + 1):
        assert crc32c(data[:length], 7) == crc32c_scalar(data[:length], 7)


@settings(max_examples=60, deadline=None)
@given(
    length=st.one_of(
        st.integers(0, 4 * THRESHOLD),
        st.sampled_from(_BOUNDARY_LENGTHS).flatmap(
            lambda n: st.integers(max(0, n - 5), n + 5)
        ),
    ),
    value=st.integers(0, 0xFFFFFFFF),
    seed=st.integers(0, 1 << 16),
)
def test_differential_against_the_scalar_reference(length, value, seed):
    data = _payload(length, seed)
    assert crc32c(data, value) == crc32c_scalar(data, value)


@settings(max_examples=40, deadline=None)
@given(
    length=st.integers(0, BLOCK + 3 * THRESHOLD),
    cut=st.floats(0, 1),
    seed=st.integers(0, 1 << 16),
)
def test_chaining_split_at_any_offset(length, cut, seed):
    data = _payload(length, seed)
    split = int(cut * length)
    assert crc32c(data[split:], crc32c(data[:split])) == crc32c_scalar(data)


def test_all_zero_and_all_one_buffers():
    # Zero lanes leave a zero register untouched, which is what the
    # kernel's front padding relies on; all-ones is the other extreme.
    for fill in (b"\x00", b"\xff"):
        data = fill * (3 * THRESHOLD + 5)
        assert crc32c(data) == crc32c_scalar(data)


def test_buffer_types_agree():
    data = _payload(5 * THRESHOLD + 3)
    expected = crc32c_scalar(data, 9)
    assert crc32c(bytearray(data), 9) == expected
    assert crc32c(memoryview(data), 9) == expected
    # An odd offset into a larger buffer: the kernel's 32-bit view of
    # the data is then unaligned.
    padded = b"\x55" + data
    assert crc32c(memoryview(padded)[1:], 9) == expected


def test_single_bit_flips_detected_in_a_64k_buffer():
    data = bytearray(_payload(64 * 1024))
    reference = crc32c(data)
    rng = random.Random(0)
    positions = {0, len(data) - 1, LANE - 1, LANE, THRESHOLD, len(data) // 2}
    positions.update(rng.randrange(len(data)) for _ in range(40))
    for position in sorted(positions):
        bit = 1 << rng.randrange(8)
        data[position] ^= bit
        assert crc32c(data) != reference, f"flip at byte {position} undetected"
        data[position] ^= bit
    assert crc32c(data) == reference


def test_small_inputs_take_the_word_path(monkeypatch):
    # A 99-byte WAL frame pays no kernel set-up and no byte-at-a-time loop.
    def boom(*_args):
        raise AssertionError("kernel used for a small input")

    words = []
    monkeypatch.setattr(diskio, "_crc_lanes", boom)
    monkeypatch.setattr(
        diskio, "_crc_words", lambda data, value: words.append(len(data)) or 0
    )
    crc32c(b"x" * 99)
    crc32c(b"x" * (THRESHOLD - 1))
    assert words == [99, THRESHOLD - 1]


def test_every_length_to_2048_matches_the_scalar_reference():
    # Every remainder mod 4, both sides of the threshold, a random seed
    # value each, and three buffer types: bytes, bytearray, and a
    # memoryview one byte into a larger buffer (its words unaligned).
    rng = random.Random(2048)
    padded = b"\xa5" + _payload(2048, seed=3)
    for length in range(2049):
        data = padded[1 : 1 + length]
        value = rng.getrandbits(32)
        expected = crc32c_scalar(data, value)
        assert crc32c(data, value) == expected, length
        assert crc32c(bytearray(data), value) == expected, length
        assert crc32c(memoryview(padded)[1 : 1 + length], value) == expected, length


def test_a_big_endian_host_takes_the_scalar_loop(monkeypatch):
    def boom(*_args):
        raise AssertionError("word loop used on a big-endian host")

    monkeypatch.setattr(sys, "byteorder", "big")
    monkeypatch.setattr(diskio, "_crc_words", boom)
    for length in (0, 3, 99, THRESHOLD - 1, THRESHOLD + 5):
        data = _payload(length, seed=5)
        assert crc32c(data, 11) == crc32c_scalar(data, 11)


def test_the_half_word_tables_stay_within_512_kib():
    tables = (diskio._LOW_HALF, diskio._HIGH_HALF)
    assert all(len(table) == 1 << 16 for table in tables)
    assert sum(len(table) * table.itemsize for table in tables) <= 512 * 1024


@pytest.mark.parametrize("items", [40, 1000])  # word loop, kernel
def test_items_wider_than_a_byte_are_counted_in_bytes(items):
    # Both the size test and the loops once counted items: a uint32
    # array checksummed a quarter of its bytes' worth of values.
    numbers = np.arange(items, dtype=np.uint32)
    expected = crc32c_scalar(numbers.tobytes())
    assert crc32c(numbers) == expected
    assert crc32c(memoryview(array("I", range(items)))) == expected
