"""Tests for bit packing, including round-trip property tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EncodingError
from repro.storage import bitpack
from tests import examples


class TestBitsNeeded:
    def test_zero(self):
        assert bitpack.bits_needed(0) == 0

    def test_one(self):
        assert bitpack.bits_needed(1) == 1

    def test_powers(self):
        assert bitpack.bits_needed(255) == 8
        assert bitpack.bits_needed(256) == 9

    def test_negative_rejected(self):
        with pytest.raises(EncodingError):
            bitpack.bits_needed(-1)


class TestPackUnpack:
    def test_empty(self):
        assert bitpack.pack(np.array([], dtype=np.uint64), 5) == b""
        assert bitpack.unpack(b"", 5, 0).size == 0

    def test_width_zero_all_zeros(self):
        payload = bitpack.pack(np.zeros(10, dtype=np.uint64), 0)
        assert payload == b""
        assert (bitpack.unpack(payload, 0, 10) == 0).all()

    def test_width_zero_rejects_nonzero(self):
        with pytest.raises(EncodingError):
            bitpack.pack(np.array([0, 1], dtype=np.uint64), 0)

    def test_value_exceeding_width_rejected(self):
        with pytest.raises(EncodingError):
            bitpack.pack(np.array([8], dtype=np.uint64), 3)

    def test_simple_roundtrip(self):
        values = np.array([0, 1, 2, 3, 7, 5], dtype=np.uint64)
        payload = bitpack.pack(values, 3)
        assert len(payload) == bitpack.packed_size_bytes(6, 3)
        assert (bitpack.unpack(payload, 3, 6) == values).all()

    def test_non_byte_aligned_width(self):
        values = np.array([1000, 0, 523, 1023], dtype=np.uint64)
        payload = bitpack.pack(values, 10)
        assert (bitpack.unpack(payload, 10, 4) == values).all()

    def test_truncated_payload_detected(self):
        payload = bitpack.pack(np.arange(100, dtype=np.uint64), 7)
        with pytest.raises(EncodingError):
            bitpack.unpack(payload[:-5], 7, 100)

    def test_2d_rejected(self):
        with pytest.raises(EncodingError):
            bitpack.pack(np.zeros((2, 2), dtype=np.uint64), 4)

    def test_width_over_64_rejected(self):
        with pytest.raises(EncodingError):
            bitpack.pack(np.array([1], dtype=np.uint64), 65)

    def test_full_64_bit_values(self):
        values = np.array([2**64 - 1, 0, 2**63], dtype=np.uint64)
        payload = bitpack.pack(values, 64)
        assert (bitpack.unpack(payload, 64, 3) == values).all()


# --------------------------------------------------------------------- #
# The kernel against a bit-by-bit reference
# --------------------------------------------------------------------- #
def reference_unpack(payload: bytes, width: int, count: int) -> np.ndarray:
    """The pre-``take`` implementation: every bit of the payload spread
    out, regrouped ``width`` to a value and summed. Slow and obviously
    right, so it stays here as what the kernel is held to."""
    if width == 0 or count == 0:
        return np.zeros(count, dtype=np.uint64)
    flat = np.unpackbits(
        np.frombuffer(payload, dtype=np.uint8), count=count * width, bitorder="little"
    )
    bits = flat.reshape(count, width).astype(np.uint64)
    shifts = np.arange(width, dtype=np.uint64)
    return (bits << shifts).sum(axis=1, dtype=np.uint64)


def reference_pack(values: np.ndarray, width: int) -> bytes:
    """The pre-phase :func:`bitpack.pack`: an ``(n, width)`` matrix of
    bits, little-endian within each value, through ``np.packbits``.
    Payloads are on disk, so the kernel must give these bytes exactly."""
    if width == 0 or values.size == 0:
        return b""
    shifts = np.arange(width, dtype=np.uint64)
    bits = ((values.astype(np.uint64)[:, None] >> shifts) & np.uint64(1)).astype(np.uint8)
    return np.packbits(bits.reshape(-1), bitorder="little").tobytes()


@settings(max_examples=examples(100), deadline=None)
@given(
    width=st.integers(1, 64),
    groups=st.integers(0, 40),
    tail=st.integers(0, 7),
    seed=st.integers(0, 2**32 - 1),
)
def test_pack_gives_the_bit_matrix_bytes(width, groups, tail, seed):
    """Whole groups of eight (``tail == 0``) and a ``count % 8`` tail, at
    every width: the phase kernel's bytes are the bit matrix's."""
    rng = np.random.default_rng(seed)
    count = groups * 8 + tail
    values = rng.integers(0, 2**64, size=count, dtype=np.uint64) >> np.uint64(64 - width)
    if count:
        values[rng.integers(0, count)] = (1 << width) - 1  # every bit of one value set
    assert bitpack.pack(values, width) == reference_pack(values, width)


@pytest.mark.parametrize("width", range(1, 65))
def test_pack_gives_the_bit_matrix_bytes_at_every_width(width):
    for count in (8, 13, 16_384, 16_389):
        values = _random_values(width, count, seed=width * 31 + count)
        assert bitpack.pack(values, width) == reference_pack(values, width)


def _random_values(width: int, count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    raw = rng.integers(0, 2**64, size=count, dtype=np.uint64, endpoint=False)
    values = raw >> np.uint64(64 - width) if width else np.zeros(count, dtype=np.uint64)
    if count and width:
        values[-1] = np.uint64((1 << width) - 1)  # every bit of the last value set
    return values


COUNTS = (0, 1, 7, 8, 9, 16_383, 16_384)


@pytest.mark.parametrize("width", range(65))
def test_every_width_and_count_against_the_reference(width):
    for count in COUNTS:
        values = _random_values(width, count, seed=width * 100_003 + count)
        payload = bitpack.pack(values, width)
        assert len(payload) == bitpack.packed_size_bytes(count, width)  # unpadded
        want = reference_unpack(payload, width, count)
        assert want.tolist() == values.tolist()
        unpacked = bitpack.unpack(payload, width, count)
        assert unpacked.dtype == np.uint64
        assert unpacked.tolist() == want.tolist()

        rng = np.random.default_rng(count + width)
        position_sets = [[]]
        if count:
            position_sets += [
                [0],
                [count - 1],
                rng.integers(0, count, 50).tolist(),
                [count // 2] * 3 + [0, count - 1, count - 1],
                list(range(count - 1, -1, -max(1, count // 40))),
            ]
        for positions in position_sets:
            positions = np.array(positions, dtype=np.int64)
            taken = bitpack.take(payload, width, count, positions)
            assert taken.dtype == np.uint64
            assert taken.tolist() == want[positions].tolist()


DENSE_COUNTS = (0, 1, 7, 8, 9, 15, 16, 17, 4_095, 16_384, 32_768)


@pytest.mark.parametrize("dense_from", [None, 1], ids=["default threshold", "dense from 1 value"])
@pytest.mark.parametrize("width", range(65))
def test_a_full_unpack_is_the_reference_and_is_take_of_every_position(
    width, dense_from, monkeypatch
):
    """Every position wanted: the dense phase (no gather) must give what
    the bit-by-bit reference and the gather give — on whole groups of
    eight, a ``count % 8`` tail, streams under eight values, payloads
    shorter than one window, and the 58-63-bit widths that never take it.
    With the threshold lowered to 1 the short streams take it too."""
    if dense_from is not None:
        monkeypatch.setattr(bitpack, "_DENSE_FROM", dense_from)
    for count in DENSE_COUNTS:
        values = _random_values(width, count, seed=width * 7_919 + count)
        payload = bitpack.pack(values, width)
        dense = bitpack.unpack(payload, width, count)
        assert dense.dtype == np.uint64 and dense.shape == (count,)
        assert dense.tolist() == reference_unpack(payload, width, count).tolist()
        gathered = bitpack.take(payload, width, count, np.arange(count))
        assert dense.tolist() == gathered.tolist() == values.tolist()
        # What it hands out is the caller's to overwrite (invert does).
        assert dense.flags.writeable and dense.flags.c_contiguous


def test_the_dense_phase_reads_nothing_past_a_longer_payload():
    """A payload longer than the stream needs (a block sliced out of a
    larger buffer) decodes the same: trailing bytes are never values."""
    values = _random_values(13, 4_099, seed=5)
    payload = bitpack.pack(values, 13)
    assert bitpack.unpack(payload + b"\xff" * 64, 13, 4_099).tolist() == values.tolist()


class TestKernelValidatesWhatArrivesFromDisk:
    PAYLOAD = bitpack.pack(np.arange(100, dtype=np.uint64), 7)

    @pytest.mark.parametrize("width", [-1, 65, 1000])
    def test_width_outside_0_to_64(self, width):
        with pytest.raises(EncodingError, match="width"):
            bitpack.unpack(b"\x00" * 8192, width, 4)
        with pytest.raises(EncodingError, match="width"):
            bitpack.take(b"\x00" * 8192, width, 4, np.array([0]))

    def test_negative_count(self):
        with pytest.raises(EncodingError, match="count"):
            bitpack.unpack(self.PAYLOAD, 7, -1)

    @pytest.mark.parametrize("width, count", [(7, 100), (8, 100), (64, 13), (1, 801)])
    def test_short_payload(self, width, count):
        payload = bytes(bitpack.packed_size_bytes(count, width) - 1)
        with pytest.raises(EncodingError, match="payload"):
            bitpack.unpack(payload, width, count)
        with pytest.raises(EncodingError, match="payload"):
            bitpack.take(payload, width, count, np.array([0]))

    @pytest.mark.parametrize("positions", [[100], [-1], [0, 5, 1 << 40], [3, -7, 2]])
    def test_position_outside_the_stream(self, positions):
        for width in (0, 7, 16):
            payload = bitpack.pack(np.zeros(100, dtype=np.uint64), width)
            with pytest.raises(EncodingError, match="position"):
                bitpack.take(payload, width, 100, np.array(positions))


@given(
    st.lists(st.integers(min_value=0, max_value=2**40 - 1), max_size=300),
)
def test_roundtrip_property(values):
    arr = np.array(values, dtype=np.uint64)
    width = bitpack.bits_needed(int(arr.max()) if arr.size else 0)
    payload = bitpack.pack(arr, width)
    assert len(payload) == bitpack.packed_size_bytes(arr.size, width)
    recovered = bitpack.unpack(payload, width, arr.size)
    assert (recovered == arr).all()


@given(
    st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=200),
    st.integers(min_value=8, max_value=16),
)
def test_wider_width_still_roundtrips(values, width):
    arr = np.array(values, dtype=np.uint64)
    payload = bitpack.pack(arr, width)
    assert (bitpack.unpack(payload, width, arr.size) == arr).all()
