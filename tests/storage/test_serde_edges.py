"""Edge-case tests: serde varints, xpress window boundaries, directory
archival sizes, and value-encoding extremes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import types
from repro.errors import EncodingError
from repro.storage import serde, xpress
from repro.storage import value_encoding as ve

from .. import examples


class TestVarint:
    def test_zero(self):
        out = bytearray()
        serde.write_varint(out, 0)
        assert bytes(out) == b"\x00"
        assert serde.read_varint(bytes(out), 0) == (0, 1)

    def test_boundaries(self):
        for value in (127, 128, 16383, 16384, 2**32, 2**56):
            out = bytearray()
            serde.write_varint(out, value)
            decoded, pos = serde.read_varint(bytes(out), 0)
            assert decoded == value
            assert pos == len(out)

    def test_negative_rejected(self):
        with pytest.raises(EncodingError):
            serde.write_varint(bytearray(), -1)

    def test_truncated_rejected(self):
        out = bytearray()
        serde.write_varint(out, 2**40)
        with pytest.raises(EncodingError):
            serde.read_varint(bytes(out[:-1]) + b"\x80", len(out) - 1)

    @given(st.integers(min_value=0, max_value=2**62))
    def test_roundtrip_property(self, value):
        out = bytearray()
        serde.write_varint(out, value)
        assert serde.read_varint(bytes(out), 0)[0] == value

    def test_empty_payload_rejected(self):
        with pytest.raises(EncodingError):
            serde.read_varint(b"", 0)

    def test_every_truncation_rejected(self):
        out = bytearray()
        serde.write_varint(out, 2**56 + 12345)
        for cut in range(len(out)):
            with pytest.raises(EncodingError):
                serde.read_varint(bytes(out[:cut]), 0)

    def test_endless_continuation_rejected(self):
        # A corrupt run of continuation bytes must not loop unbounded.
        with pytest.raises(EncodingError):
            serde.read_varint(b"\x80" * 64, 0)


class TestSerializeValues:
    def test_unicode_strings(self):
        values = ["héllo", "日本語", "", "emoji🎉"]
        blob = serde.serialize_values(values, types.VARCHAR)
        assert serde.deserialize_values(blob, types.VARCHAR) == values

    def test_floats_exact(self):
        values = [0.1, -1e300, 1e-300, 0.0]
        blob = serde.serialize_values(values, types.FLOAT)
        assert serde.deserialize_values(blob, types.FLOAT) == values

    def test_negative_ints(self):
        values = [-(2**62), -1, 0, 2**62]
        blob = serde.serialize_values(values, types.BIGINT)
        assert serde.deserialize_values(blob, types.BIGINT) == values

    def test_empty_list(self):
        blob = serde.serialize_values([], types.INT)
        assert serde.deserialize_values(blob, types.INT) == []


def _strings_by_loop(strings):
    """The VARCHAR value list written string by string: the count, then
    each string's UTF-8 length as a varint and its bytes."""
    out = bytearray()
    serde.write_varint(out, len(strings))
    for value in strings:
        encoded = value.encode("utf-8")
        serde.write_varint(out, len(encoded))
        out += encoded
    return bytes(out)


class TestStringPayload:
    """The string list's bytes are the loop's, and read back as an array."""

    CASES = {
        "ascii": ["ash", "birch", "", "cedar", "ash"],
        "non-ascii": ["héllo", "日本語", "", "emoji🎉", "\x7f\x80\u07ff\u0800\uffff\U00010000"],
        "lengths 0 / 127 / 128 / 16,384": ["", "a" * 127, "b" * 128, "c" * 16_384, "d"],
        "non-ascii past 127 bytes": ["é" * 64, "日" * 43, "🎉" * 32, "é" * 8192],
        "one string of 2**21 bytes": ["x" * 2**21],
        "empty column": [],
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_bytes_equal_the_loop(self, name):
        strings = self.CASES[name]
        array = types.VARCHAR.physical_array(strings)
        expected = _strings_by_loop(strings)
        assert serde.serialize_values(array.tolist(), types.VARCHAR) == expected
        restored = serde.deserialize_array(expected, types.VARCHAR)
        assert restored.dtype == object and restored.tolist() == strings

    @settings(max_examples=examples(100), deadline=None)
    @given(st.lists(st.text(max_size=140), max_size=40))
    def test_bytes_equal_the_loop_property(self, strings):
        assert serde.serialize_values(strings, types.VARCHAR) == _strings_by_loop(strings)
        assert serde.utf8(strings)[1].tolist() == [len(s.encode("utf-8")) for s in strings]


class TestShortPayloads:
    """Truncated/corrupt payloads raise EncodingError, never
    IndexError/struct.error — the bounds-checked decode paths."""

    def test_truncated_string_payload(self):
        blob = serde.serialize_values(["hello", "world"], types.VARCHAR)
        for cut in range(1, len(blob)):
            with pytest.raises(EncodingError):
                serde.deserialize_values(blob[:cut], types.VARCHAR)

    def test_truncated_numeric_payload(self):
        for dtype in (types.BIGINT, types.FLOAT):
            blob = serde.serialize_values([1, 2, 3], dtype)
            for cut in range(1, len(blob)):
                with pytest.raises(EncodingError):
                    serde.deserialize_values(blob[:cut], dtype)

    def test_string_length_overruns_payload(self):
        # count=1, declared string length 100, but only 2 payload bytes.
        payload = bytearray()
        serde.write_varint(payload, 1)
        serde.write_varint(payload, 100)
        payload += b"ab"
        with pytest.raises(EncodingError):
            serde.deserialize_values(bytes(payload), types.VARCHAR)

    def test_invalid_utf8_rejected(self):
        payload = bytearray()
        serde.write_varint(payload, 1)
        serde.write_varint(payload, 2)
        payload += b"\xff\xfe"  # not valid UTF-8
        with pytest.raises(EncodingError):
            serde.deserialize_values(bytes(payload), types.VARCHAR)

    def test_count_overruns_numeric_payload(self):
        payload = bytearray()
        serde.write_varint(payload, 1_000_000)  # promises 8 MB of ints
        payload += b"\x00" * 16
        with pytest.raises(EncodingError):
            serde.deserialize_values(bytes(payload), types.BIGINT)


class TestXpressWindow:
    def test_match_just_inside_window(self):
        # A repeat at distance < 65536 must be found.
        data = b"A" * 64 + bytes(range(256)) * 250 + b"A" * 64
        assert xpress.decompress(xpress.compress(data)) == data

    def test_match_beyond_window_still_roundtrips(self):
        # Repeats farther than 64 KiB cannot be referenced, but the data
        # must still round-trip (as literals).
        block = bytes(np.random.default_rng(1).integers(0, 256, 70_000, dtype=np.uint8))
        data = block + block
        assert xpress.decompress(xpress.compress(data)) == data

    def test_min_match_boundary(self):
        # 3-byte repeats are below MIN_MATCH and stay literal.
        data = b"abcXabcYabcZ" * 10
        assert xpress.decompress(xpress.compress(data)) == data


class TestValueEncodingExtremes:
    def test_int64_extremes_roundtrip(self):
        values = np.array([-(2**60), 2**60], dtype=np.int64)
        enc = ve.choose_integer_encoding(values)
        assert (enc.map(enc.apply(values), np.dtype(np.int64)) == values).all()

    def test_single_value_column(self):
        values = np.array([42424242], dtype=np.int64)
        enc = ve.choose_integer_encoding(values)
        offsets = enc.apply(values)
        assert int(offsets[0]) == 0  # rebased to zero
        assert enc.map(offsets, np.dtype(np.int64))[0] == 42424242

    def test_all_zeros(self):
        values = np.zeros(10, dtype=np.int64)
        enc = ve.choose_integer_encoding(values)
        assert (enc.map(enc.apply(values), np.dtype(np.int64)) == 0).all()

    def test_negative_exponent_preserved_through_blob(self):
        from repro.storage.blob import deserialize_segment, serialize_segment
        from repro.storage.segment import encode_segment

        values = (np.arange(100, dtype=np.int64) * 1000) - 50_000
        segment = encode_segment(types.BIGINT, values)
        assert segment.values.exponent < 0
        restored = deserialize_segment(serialize_segment(segment))
        assert restored.values == segment.values
        assert (restored.decode()[0] == values).all()


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.text(max_size=20), max_size=50),
)
def test_string_serde_roundtrip_property(values):
    blob = serde.serialize_values(values, types.VARCHAR)
    assert serde.deserialize_values(blob, types.VARCHAR) == values
