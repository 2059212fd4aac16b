"""Tests for value-based (affine) encoding."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.storage import value_encoding as ve


class TestIntegerEncoding:
    def test_rebases_by_min(self):
        values = np.array([1000, 1001, 1005], dtype=np.int64)
        enc = ve.choose_integer_encoding(values)
        assert enc.base == 1000
        assert enc.exponent == 0
        offsets = enc.apply(values)
        assert offsets.tolist() == [0, 1, 5]

    def test_divides_common_power_of_ten(self):
        values = np.array([1500, 2500, 4000], dtype=np.int64)
        enc = ve.choose_integer_encoding(values)
        assert enc.exponent == -2  # all divisible by 100
        offsets = enc.apply(values)
        assert int(offsets.max()) == 25  # (4000-1500)/100

    def test_roundtrip(self):
        values = np.array([-500, 0, 12_300], dtype=np.int64)
        enc = ve.choose_integer_encoding(values)
        offsets = enc.apply(values)
        assert (enc.invert(offsets, np.dtype(np.int64)) == values).all()

    def test_negative_values(self):
        values = np.array([-10, -7, -1], dtype=np.int64)
        enc = ve.choose_integer_encoding(values)
        offsets = enc.apply(values)
        assert int(offsets.min()) == 0
        assert (enc.invert(offsets, np.dtype(np.int64)) == values).all()

    def test_empty(self):
        enc = ve.choose_integer_encoding(np.array([], dtype=np.int64))
        assert enc.base == 0


class TestFloatEncoding:
    def test_integral_floats(self):
        values = np.array([10.0, 12.0, 11.0])
        enc = ve.choose_float_encoding(values)
        assert enc is not None
        assert enc.exponent == 0
        recovered = enc.invert(enc.apply(values), np.dtype(np.float64))
        assert (recovered == values).all()

    def test_two_decimal_prices(self):
        values = np.array([19.99, 5.25, 100.50])
        enc = ve.choose_float_encoding(values)
        assert enc is not None
        assert enc.exponent == 2
        recovered = enc.invert(enc.apply(values), np.dtype(np.float64))
        assert (recovered == values).all()

    def test_irrational_floats_fall_back(self):
        values = np.array([0.1234567, 3.14159265])
        assert ve.choose_float_encoding(values) is None

    def test_nan_falls_back(self):
        assert ve.choose_float_encoding(np.array([1.0, np.nan])) is None

    def test_huge_floats_fall_back(self):
        assert ve.choose_float_encoding(np.array([1e300])) is None


@given(
    st.lists(
        st.integers(min_value=-(2**40), max_value=2**40), min_size=1, max_size=200
    )
)
def test_integer_roundtrip_property(values):
    arr = np.array(values, dtype=np.int64)
    enc = ve.choose_integer_encoding(arr)
    offsets = enc.apply(arr)
    assert int(offsets.min()) >= 0
    assert (enc.invert(offsets, np.dtype(np.int64)) == arr).all()


@given(
    st.lists(
        st.integers(min_value=-(10**6), max_value=10**6), min_size=1, max_size=100
    ),
    st.integers(min_value=0, max_value=2),
)
def test_float_with_known_scale_roundtrips(cents, scale):
    arr = np.array(cents, dtype=np.float64) / 10**scale
    enc = ve.choose_float_encoding(arr)
    assert enc is not None
    recovered = enc.invert(enc.apply(arr), np.dtype(np.float64))
    assert (recovered == arr).all()


def test_bigint_range_wider_than_int64_round_trips():
    # -2**62 .. 2**62 spans 2**63: its offsets overflowed int64 and the
    # segment could not be encoded (found by tests/sql/test_shapes.py (f)).
    from repro import Database, StoreConfig, types
    from repro.storage.segment import encode_segment

    values = np.array([-(2**62), 2**62, 0, 2**63 - 1, -(2**63)], dtype=np.int64)
    segment = encode_segment(types.BIGINT, values)
    assert segment.decode()[0].tolist() == values.tolist()
    assert segment.take(np.array([1, 4]))[0].tolist() == [2**62, -(2**63)]
    db = Database(StoreConfig(rowgroup_size=16, bulk_load_threshold=1))
    db.sql("CREATE TABLE b (x BIGINT)")
    db.bulk_load("b", [(int(v),) for v in values])
    assert sorted(row[0] for row in db.sql("SELECT x FROM b").rows) == sorted(values.tolist())
