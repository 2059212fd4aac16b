"""Tests for the data type system."""

import datetime

import numpy as np
import pytest

from repro import types
from repro.errors import TypeMismatchError
from repro.types import DataType, TypeKind, common_numeric_type


class TestCoercion:
    def test_int_accepts_python_int(self):
        assert types.INT.coerce(42) == 42

    def test_int_accepts_numpy_int(self):
        assert types.INT.coerce(np.int64(7)) == 7

    def test_int_rejects_bool(self):
        with pytest.raises(TypeMismatchError):
            types.INT.coerce(True)

    def test_int_rejects_float(self):
        with pytest.raises(TypeMismatchError):
            types.INT.coerce(1.5)

    def test_int_range_limits(self):
        assert types.INT.coerce(2**31 - 1) == 2**31 - 1
        with pytest.raises(TypeMismatchError):
            types.INT.coerce(2**31)

    def test_bigint_range(self):
        assert types.BIGINT.coerce(2**31) == 2**31
        with pytest.raises(TypeMismatchError):
            types.BIGINT.coerce(2**63)

    def test_null_passes_through(self):
        for dtype in (types.INT, types.FLOAT, types.VARCHAR, types.DATE, types.BOOL):
            assert dtype.coerce(None) is None

    def test_float_accepts_int(self):
        assert types.FLOAT.coerce(3) == 3.0

    def test_decimal_scales_floats(self):
        assert types.decimal(2).coerce(1.5) == 150

    def test_decimal_scales_ints(self):
        assert types.decimal(2).coerce(3) == 300

    def test_decimal_rounds(self):
        assert types.decimal(2).coerce(1.005) in (100, 101)  # float rounding

    def test_decimal_scaled_value_must_fit_int64(self):
        assert types.decimal(18).coerce(9) == 9 * 10**18
        for value in (10, -10, 1e19, float("inf"), float("nan")):
            with pytest.raises(TypeMismatchError):
                types.decimal(18).coerce(value)

    def test_decimal_overflow_is_refused_at_insert_not_at_read(self):
        """An out-of-range DECIMAL used to be stored, and every later
        SELECT and bulk load of the table raised OverflowError."""
        from repro import Database

        db = Database()
        db.sql("CREATE TABLE t (d DECIMAL(20, 18))")
        with pytest.raises(TypeMismatchError):
            db.sql("INSERT INTO t VALUES (100)")
        db.sql("INSERT INTO t VALUES (2.5)")
        assert db.sql("SELECT d FROM t").rows == [(2.5,)]
        with pytest.raises(TypeMismatchError):
            db.bulk_load("t", [(100,)])

    def test_date_day_count_must_fit_int32(self):
        assert types.DATE.coerce(-(2**31)) == -(2**31)
        with pytest.raises(TypeMismatchError):
            types.DATE.coerce(2**31)

    def test_varchar_accepts_str(self):
        assert types.VARCHAR.coerce("hi") == "hi"

    def test_varchar_length_enforced(self):
        with pytest.raises(TypeMismatchError):
            types.varchar(3).coerce("toolong")

    def test_varchar_rejects_int(self):
        with pytest.raises(TypeMismatchError):
            types.VARCHAR.coerce(5)

    def test_date_from_iso_string(self):
        assert types.DATE.coerce("1970-01-02") == 1

    def test_date_from_date_object(self):
        assert types.DATE.coerce(datetime.date(1970, 1, 11)) == 10

    def test_date_rejects_garbage(self):
        with pytest.raises(TypeMismatchError):
            types.DATE.coerce("not-a-date")

    def test_bool(self):
        assert types.BOOL.coerce(True) is True
        with pytest.raises(TypeMismatchError):
            types.BOOL.coerce(1)


class TestPresentation:
    def test_date_round_trip(self):
        physical = types.DATE.coerce("2024-03-15")
        assert types.DATE.present(physical) == datetime.date(2024, 3, 15)

    def test_decimal_round_trip(self):
        dt = types.decimal(2)
        assert dt.present(dt.coerce(12.34)) == pytest.approx(12.34)

    def test_none_presents_as_none(self):
        assert types.INT.present(None) is None

    def test_numpy_scalars_present_as_python(self):
        assert isinstance(types.INT.present(np.int32(5)), int)
        assert isinstance(types.FLOAT.present(np.float64(1.5)), float)


class TestTypeLattice:
    def test_int_plus_int(self):
        assert common_numeric_type(types.INT, types.INT) == types.INT

    def test_int_plus_bigint(self):
        assert common_numeric_type(types.INT, types.BIGINT) == types.BIGINT

    def test_float_dominates(self):
        assert common_numeric_type(types.FLOAT, types.decimal(2)) == types.FLOAT

    def test_decimal_scale_widens(self):
        result = common_numeric_type(types.decimal(2), types.decimal(4))
        assert result.scale == 4

    def test_varchar_not_numeric(self):
        with pytest.raises(TypeMismatchError):
            common_numeric_type(types.VARCHAR, types.INT)


class TestTypeValidation:
    def test_scale_only_for_decimal(self):
        with pytest.raises(TypeMismatchError):
            DataType(TypeKind.INT, scale=2)

    def test_length_only_for_varchar(self):
        with pytest.raises(TypeMismatchError):
            DataType(TypeKind.INT, length=5)

    def test_decimal_scale_bounds(self):
        with pytest.raises(TypeMismatchError):
            types.decimal(19)

    def test_str_forms(self):
        assert str(types.INT) == "INT"
        assert str(types.decimal(3)) == "DECIMAL(18,3)"
        assert str(types.varchar(10)) == "VARCHAR(10)"
