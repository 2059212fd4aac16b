"""A FLOAT comes back from compression bit for bit: ``-0.0`` keeps its
sign, each NaN its payload, under every float scheme (value encoding,
dictionary, raw), plain and archived, through the blob and through a
table's tuple mover."""

import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import Database, StoreConfig, schema, types
from repro.bench.harness import same_rows
from repro.storage.blob import deserialize_segment, serialize_segment
from repro.storage.encodings import Scheme
from repro.storage.segment import encode_segment

from .. import examples

QUIET_NAN = float("nan")
PAYLOAD_NAN = struct.unpack("<d", struct.pack("<Q", 0x7FF8_0000_0000_0BAD))[0]
NEGATIVE_NAN = struct.unpack("<d", struct.pack("<Q", 0xFFF8_0000_0000_0000))[0]
SPECIAL = [0.0, -0.0, QUIET_NAN, PAYLOAD_NAN, NEGATIVE_NAN, float("inf"), float("-inf")]

# What a column is drawn from, by the scheme it leads the encoder to.
PALETTES = {
    # Few decimals: a value encoding, unless a -0.0, NaN or infinity is in.
    Scheme.VALUE: st.sampled_from([1.5, 2.25, -3.0, 0.0, 10.75]),
    # Few distinct values among many rows: a dictionary.
    Scheme.DICT: st.sampled_from([0.0, -0.0, 1 / 3, 2 / 3, QUIET_NAN, PAYLOAD_NAN, NEGATIVE_NAN]),
    # Anything: mostly raw.
    Scheme.RAW: st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=True)),
}


def bits(values: np.ndarray) -> list[int]:
    return values.astype(np.float64).view(np.uint64).tolist()


def assert_bit_identical(values: np.ndarray, mask: np.ndarray | None) -> None:
    segment = encode_segment(types.FLOAT, values, mask)
    keep = np.ones(values.size, dtype=bool) if mask is None else ~mask
    for stored in (segment, segment.to_archived()):
        for read in (stored, deserialize_segment(serialize_segment(stored))):
            got, got_mask = read.decode()
            assert (got_mask is None) == (mask is None or not mask.any())
            assert bits(got[keep]) == bits(values[keep]), (read.scheme, read.archived)


@st.composite
def columns(draw):
    scheme = draw(st.sampled_from(sorted(PALETTES, key=lambda s: s.value)))
    rows = draw(st.integers(1, 64))
    values = draw(st.lists(PALETTES[scheme], min_size=rows, max_size=rows))
    mask = draw(st.none() | st.lists(st.booleans(), min_size=rows, max_size=rows))
    return np.array(values, dtype=np.float64), None if mask is None else np.array(mask)


@settings(max_examples=examples(300), deadline=None)
@given(columns())
@example((np.array([-0.0, 1.5, 2.25, -0.0]), None))
@example((np.array([-0.0, 0.0] * 20), None))
@example((np.array([QUIET_NAN, PAYLOAD_NAN, NEGATIVE_NAN] * 10), np.array([False, True] * 15)))
def test_encode_decode_is_bit_identical(column):
    assert_bit_identical(*column)


@pytest.mark.parametrize(
    "values, scheme",
    [
        ([1.5, 2.25, -3.0, 0.0] * 8, Scheme.VALUE),
        ([-0.0, 0.0, 1 / 3] * 16, Scheme.DICT),
        ([QUIET_NAN, PAYLOAD_NAN, -0.0] * 16, Scheme.DICT),
        ([i / 7 for i in range(40)] + [-0.0, float("inf")], Scheme.RAW),
    ],
)
def test_every_scheme_is_reached(values, scheme):
    array = np.array(values)
    assert encode_segment(types.FLOAT, array).scheme is scheme
    assert_bit_identical(array, None)


def test_a_negative_zero_refuses_the_value_encoding():
    segment = encode_segment(types.FLOAT, np.array([-0.0, 1.5, 2.25, -0.0]))
    assert segment.scheme is not Scheme.VALUE
    assert bits(segment.decode()[0]) == bits(np.array([-0.0, 1.5, 2.25, -0.0]))


@pytest.mark.parametrize(
    "palette, scheme",
    [
        ((-0.0, 1.5, 2.25, 0.5), Scheme.DICT),  # decimals, but -0.0 refuses a value encoding
        ((-0.0, 0.0, 1 / 3), Scheme.DICT),
        ((PAYLOAD_NAN, QUIET_NAN, NEGATIVE_NAN, 1.0), Scheme.DICT),
    ],
)
def test_the_tuple_mover_keeps_the_bits(palette, scheme):
    """A -0.0 (a NaN) read from the delta store and read after the tuple
    mover compressed it is the same -0.0 (the same NaN), by bits."""
    db = Database(StoreConfig(bulk_load_threshold=10_000))
    db.create_table("t", schema(("k", types.INT, False), ("f", types.FLOAT)))
    data = [(i, palette[i % len(palette)]) for i in range(64)]
    db.insert("t", data)
    before = db.sql("SELECT k, f FROM t").rows
    db.run_tuple_mover("t", include_open=True)
    [group] = db.table("t").columnstore.directory.row_groups()
    assert group.segment("f").scheme is scheme
    after = db.sql("SELECT k, f FROM t").rows
    same_rows(after, before)
    same_rows(after, data)
