"""Tests for the XPR1 reader (archives an earlier build wrote).

This build writes no XPR1, so each vector below is what the earlier
build's encoder wrote for the data beside it (commit 3b1b971 or older,
``xpress.compress``; the reader is ``repro.storage.compat.decompress_xpr1``). Together they reach every branch of the reader:
literal-only streams, an overlapping match, the 255-continuation of both
length fields and, in ``test_serde_edges.py``, an offset at the window's
edge.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EncodingError
from repro.storage.compat import decompress_xpr1

EMPTY = bytes.fromhex("5850523100000000")
ABC = bytes.fromhex("585052310300000030616263")
# b"hello world " * 500: 12 literals, then one match at offset 12 whose
# length runs on through 23 bytes of 255.
HELLO_500 = bytes.fromhex(
    "5850523170170000cf68656c6c6f20776f726c64200c00" + "ff" * 23 + "6800"
)
# b"a" * 1000: one literal, then a 999-byte match at offset 1.
A_1000 = bytes.fromhex("58505231e80300001f610100ffffffd700")
RANDOM_64 = bytes.fromhex(
    "5850523140000000f0318b4ae5f1a94106a0956a26afbccdafe562f90a945f5693c642"
    "276ad5ab2da7394551370e99b2d74c3427fa48d732a1df70aca1e926115901dd06f27f"
    "8f063cd2"
)
# 300 bytes with no 4-byte repeat: one token, its literal length 15 + 255 + 30.
NO_REPEATS_300 = bytes(range(256)) + bytes(range(255, -1, -1))[:44]
LITERALS_300 = bytes.fromhex("585052312c010000f0ff1e") + NO_REPEATS_300
# b"x" * 20 + b"unique" + b"x" * 300.
LONG_MATCH = bytes.fromhex("58505231460100001f780100006f756e697175651900000f1300ff0700")
HELLO_10 = bytes.fromhex("5850523178000000cf68656c6c6f20776f726c64200c005900")


class TestRoundTrip:
    """An earlier build's archive of each input reads back as the input."""

    def test_empty(self):
        assert decompress_xpr1(EMPTY) == b""

    def test_short_literal_only(self):
        assert decompress_xpr1(ABC) == b"abc"

    def test_repetitive_shrinks(self):
        data = b"hello world " * 500
        assert len(HELLO_500) < len(data) // 5
        assert decompress_xpr1(HELLO_500) == data

    def test_overlapping_match(self):
        # A run of one byte: offset 1 < match length, copied byte by byte.
        assert decompress_xpr1(A_1000) == b"a" * 1000
        assert len(A_1000) < 30

    def test_incompressible_data_roundtrips(self):
        data = np.random.default_rng(7).integers(0, 256, size=64, dtype=np.uint8).tobytes()
        assert decompress_xpr1(RANDOM_64) == data
        assert len(RANDOM_64) <= len(data) * 1.1 + 16

    def test_long_literal_run_extension(self):
        assert decompress_xpr1(LITERALS_300) == NO_REPEATS_300

    def test_long_match_extension(self):
        assert decompress_xpr1(LONG_MATCH) == b"x" * 20 + b"unique" + b"x" * 300


class TestErrors:
    def test_bad_magic(self):
        with pytest.raises(EncodingError):
            decompress_xpr1(b"NOPE" + b"\x00" * 10)

    def test_truncated(self):
        # Every cut that loses a byte of the data; the last byte is the
        # final sequence's token, of no literals.
        for cut in range(len(HELLO_10) - 1):
            with pytest.raises(EncodingError):
                decompress_xpr1(HELLO_10[:cut])

    def test_too_short(self):
        with pytest.raises(EncodingError):
            decompress_xpr1(b"XPR1")

    def test_a_byte_after_the_final_sequence_is_refused(self):
        for vector in (ABC, HELLO_10, A_1000, LITERALS_300):
            for extra in (0, 1, 7, 255):
                with pytest.raises(EncodingError):
                    decompress_xpr1(vector + bytes((extra,)))


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=4096), st.binary(max_size=64))
def test_any_body_decodes_or_raises_encoding_error(length, body):
    payload = b"XPR1" + length.to_bytes(4, "little") + body
    try:
        assert len(decompress_xpr1(payload)) == length
    except EncodingError:
        pass
