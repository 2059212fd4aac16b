"""Column coercion (``TableSchema.coerce_columns``) held to ``coerce_row``.

A bulk load coerces one column at a time: a column whose values all have
the exact Python type its kind takes converts as one array after a range
or length check, any other maps through ``DataType.coerce``, and any
failure re-runs the rows through ``coerce_row`` so the error raised is the
row-major first one. The reference shares none of that: each row through
``coerce_row``, pivoted the way the loader pivoted rows before.

Columns are drawn mostly clean (so the one-array paths run), then a few
values are replaced by odd ones: integers at the edges of INT and BIGINT
and past float's range, bools, numpy scalars, -0.0 / NaN / inf, strings
one past a VARCHAR(n), dates as ``date``, ISO text and day numbers, NULLs
(in nullable and NOT NULL columns), and now and then a row of the wrong
arity. A deterministic sweep also puts every near or odd value alone
between plain ones in each kind, nullable and NOT NULL. Equal physical
arrays (floats bit for bit), dtypes, NULL masks and rows; for bad input
the same exception type and message.
"""

from __future__ import annotations

import datetime
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Database, StoreConfig, schema, types
from repro.errors import TypeMismatchError
from repro.schema import ColumnDef, TableSchema

from . import examples

TYPES = [
    types.INT,
    types.BIGINT,
    types.FLOAT,
    types.decimal(2),
    types.decimal(0),
    types.varchar(3),
    types.VARCHAR,
    types.DATE,
    types.BOOL,
]

_EDGES = [2**31 - 1, -(2**31), 2**31, -(2**31) - 1, 2**63 - 1, -(2**63), 2**63, -(2**63) - 1]
ODD_VALUES = [
    None,
    *_EDGES,
    10**400,
    True,
    False,
    np.int32(5),
    np.int64(-7),
    np.int64(2**62),
    np.float64(2.5),
    np.float32(1.5),
    np.bool_(True),
    1.5,
    -0.0,
    math.nan,
    math.inf,
    -math.inf,
    "abc",
    "abcd",
    "2024-01-31",
    "2024-02-30",
    datetime.date(2000, 1, 1),
    datetime.datetime(2000, 1, 1),
    b"x",
]
ODD = st.sampled_from(ODD_VALUES)


# Per kind, the values just outside (or just inside) what it takes.
NEAR = {
    types.TypeKind.INT: [True, False, 2**31, -(2**31) - 1, 2**31 - 1, np.int32(5), 1.0],
    types.TypeKind.BIGINT: [True, 2**63, -(2**63) - 1, -(2**63), np.int64(-1), 1.0],
    types.TypeKind.FLOAT: [True, 10**400, -(2**1100), 2**1023, np.float32(0.1), np.int8(3), "1"],
    types.TypeKind.DECIMAL: [False, 2**63, 10**17, math.nan, math.inf, np.float64(1.005), "1"],
    types.TypeKind.VARCHAR: ["abc", "abcd", "", 1, b"ab", np.str_("ab")],
    types.TypeKind.DATE: [True, 2**31, "2024-02-30", "x", datetime.datetime(2000, 1, 1), 1.0],
    types.TypeKind.BOOL: [1, 0, np.bool_(False), "true"],
}


def exact(dtype: types.DataType) -> st.SearchStrategy:
    """Values a column of ``dtype`` takes (mostly the exact Python type)."""
    kind = dtype.kind
    if kind is types.TypeKind.INT:
        return st.integers(-(2**31), 2**31 - 1) | st.sampled_from([-(2**31), 2**31 - 1])
    if kind is types.TypeKind.BIGINT:
        return st.integers(-(2**63), 2**63 - 1) | st.sampled_from([-(2**63), 2**63 - 1])
    if kind is types.TypeKind.FLOAT:
        return (
            st.floats()
            | st.integers(-(2**70), 2**70)
            | st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 2**63, -(2**63) - 1])
        )
    if kind is types.TypeKind.DECIMAL:
        return st.integers(-(10**6), 10**6) | st.floats(-1e6, 1e6)
    if kind is types.TypeKind.VARCHAR:
        return st.text(max_size=dtype.length or 8)
    if kind is types.TypeKind.DATE:
        return (
            st.dates()
            | st.dates().map(datetime.date.isoformat)
            | st.integers(-(2**31), 2**31 - 1)
        )
    return st.booleans()


@st.composite
def loads(draw) -> tuple[TableSchema, list[tuple]]:
    width = draw(st.integers(1, 3))
    columns = [
        ColumnDef(f"c{i}", draw(st.sampled_from(TYPES)), draw(st.booleans()))
        for i in range(width)
    ]
    n_rows = draw(st.integers(0, 12))
    rows = [[draw(exact(col.dtype)) for col in columns] for _ in range(n_rows)]
    if rows:
        for _ in range(draw(st.integers(0, 3))):
            row = draw(st.integers(0, n_rows - 1))
            position = draw(st.integers(0, width - 1))
            near = st.sampled_from(NEAR[columns[position].dtype.kind])
            rows[row][position] = draw(near | near | ODD)
        if draw(st.integers(0, 9)) == 0:
            row = rows[draw(st.integers(0, n_rows - 1))]
            if draw(st.booleans()):
                row.append(draw(exact(columns[0].dtype)))
            else:
                row.pop()
    return TableSchema(columns), [tuple(row) for row in rows]


def reference_columns(sch: TableSchema, physical: list[tuple]):
    """The row-at-a-time pivot: one list per column, then one array."""
    columns, masks = {}, {}
    for position, col in enumerate(sch):
        raw = [row[position] for row in physical]
        mask = np.array([v is None for v in raw], dtype=bool)
        dtype = col.dtype.numpy_dtype
        if dtype == object:
            array = np.empty(len(raw), dtype=object)
            array[:] = ["" if v is None else v for v in raw]
        else:
            fill = False if dtype == np.bool_ else 0
            array = np.array([fill if v is None else v for v in raw], dtype=dtype)
        columns[col.name] = array
        masks[col.name] = mask if mask.any() else None
    return columns, masks


def outcome(call):
    try:
        return call(), None
    except Exception as exc:  # noqa: BLE001 - the exception is the result
        return None, (type(exc), str(exc))


def bits(value):
    """A physical value with floats as their bit patterns."""
    if isinstance(value, float):
        return ("float", np.float64(value).view(np.uint64).item())
    return (type(value), value)


def same_arrays(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype
    if got.dtype == np.float64:
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
    else:
        assert [bits(v) for v in got.tolist()] == [bits(v) for v in want.tolist()]


def check_equivalent(sch: TableSchema, rows: list[tuple]) -> None:
    physical, row_error = outcome(lambda: [sch.coerce_row(row) for row in rows])
    columns, column_error = outcome(lambda: sch.coerce_columns(rows))
    assert column_error == row_error
    if row_error is not None:
        return
    want_values, want_masks = reference_columns(sch, physical)
    for col in sch:
        same_arrays(columns.values[col.name], want_values[col.name])
        got_mask, want_mask = columns.nulls[col.name], want_masks[col.name]
        assert (got_mask is None) == (want_mask is None)
        if got_mask is not None:
            assert got_mask.tolist() == want_mask.tolist()
    assert columns.count == len(rows)
    assert [[bits(v) for v in row] for row in columns.rows()] == [
        [bits(v) for v in row] for row in physical
    ]


@settings(
    max_examples=examples(300),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(loads())
def test_column_coercion_equals_coerce_row(load):
    check_equivalent(*load)


# Two values of each kind its one-array path takes as they are.
PLAIN = {
    types.TypeKind.INT: (7, -(2**31)),
    types.TypeKind.BIGINT: (7, 2**63 - 1),
    types.TypeKind.FLOAT: (-0.0, 3),
    types.TypeKind.DECIMAL: (7, 0.25),
    types.TypeKind.VARCHAR: ("", "ab"),
    types.TypeKind.DATE: (datetime.date(2024, 2, 29), "1970-01-01"),
    types.TypeKind.BOOL: (True, False),
}


@pytest.mark.parametrize("nullable", [True, False], ids=["nullable", "not_null"])
@pytest.mark.parametrize("dtype", TYPES, ids=str)
def test_each_odd_value_between_plain_ones(dtype, nullable):
    """Every near or odd value, alone among plain ones, in each column
    kind: the draws above meet a given one only now and then."""
    sch = TableSchema([ColumnDef("c", dtype, nullable)])
    first, second = PLAIN[dtype.kind]
    for value in NEAR[dtype.kind] + ODD_VALUES:
        check_equivalent(sch, [(first,), (value,), (second,)])


class TestFirstError:
    """The error a load raises is the one a row-by-row load raises first."""

    SCH = schema(("a", types.INT, False), ("s", types.varchar(3)))

    def test_row_major_order_across_columns(self):
        # Column by column, a's 2**31 (row 1) comes before s's "toolong"
        # (row 0); row by row it is the other way round.
        rows = [(1, "toolong"), (2**31, "ok")]
        with pytest.raises(TypeMismatchError, match="exceeds VARCHAR"):
            self.SCH.coerce_columns(rows)

    def test_wrong_arity_after_a_bad_value_names_the_value(self):
        with pytest.raises(TypeMismatchError, match="expected int"):
            self.SCH.coerce_columns([(1.5, "x"), (1,)])

    def test_an_iterator_of_rows_is_read_once(self):
        physical = self.SCH.coerce_columns(iter([(1, "x"), (2, None)]))
        assert physical.rows() == [(1, "x"), (2, None)]


class TestFloatOverflow:
    """An int past float's range is a type mismatch, not an OverflowError."""

    def test_scalar(self):
        with pytest.raises(TypeMismatchError, match="out of range for float"):
            types.FLOAT.coerce(10**400)
        with pytest.raises(TypeMismatchError, match="out of range for float"):
            types.FLOAT.coerce(-(10**5000))

    @pytest.mark.parametrize("method", ["bulk_load", "insert"])
    def test_statements(self, method):
        db = Database(StoreConfig(bulk_load_threshold=1))
        db.create_table("t", schema(("f", types.FLOAT), ("a", types.INT)))
        with pytest.raises(TypeMismatchError, match="out of range for float"):
            getattr(db, method)("t", [(1.0, 1), (10**400, 2)])
        assert db.sql("SELECT COUNT(*) FROM t").rows == [(0,)]
