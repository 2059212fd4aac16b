"""ColumnRange against the rows it speaks for.

A range read from a single-column conjunct answers two questions about a
segment's [min, max]: ``excludes`` (no non-NULL row can pass) and
``contains`` (every non-NULL row passes; only an exact range says so).
Each answer is checked here against ``predicate_mask`` over the
segment's own rows.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import types
from repro.exec.batch import Batch
from repro.exec.expressions import Between, Column, Comparison, InList, Literal, predicate_mask
from repro.exec.predicates import ColumnRange, extract_column_ranges
from repro.storage.segment import encode_segment

from .. import examples

SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0]
KINDS = {
    "int": (types.INT, st.integers(-40, 40)),
    "float": (
        types.FLOAT,
        st.one_of(
            st.floats(-40, 40, allow_nan=False, allow_infinity=False),
            st.sampled_from(SPECIAL_FLOATS),
        ),
    ),
    "varchar": (types.VARCHAR, st.text(alphabet="abxyz", max_size=3)),
    "date": (types.DATE, st.integers(18_000, 18_040)),  # days since 1970
}
OPS = ["=", "!=", "<", "<=", ">", ">="]


@st.composite
def segments(draw):
    """(segment, its decoded values, its NULL mask, a literal strategy)."""
    dtype, value = KINDS[draw(st.sampled_from(sorted(KINDS)))]
    all_null = draw(st.booleans()) and draw(st.booleans())
    cell = st.none() if all_null else st.one_of(st.none(), value, value)
    rows = draw(st.lists(cell, min_size=1, max_size=30))
    nulls = np.array([v is None for v in rows])
    fill = "" if dtype is types.VARCHAR else 0
    physical = np.array([fill if v is None else v for v in rows], dtype=dtype.numpy_dtype)
    segment = encode_segment(dtype, physical, nulls if nulls.any() else None)
    values, mask = segment.decode()
    literal = value
    if segment.min_value is not None:
        # Bounds at the segment's min and max, and at values it holds.
        held = values[~nulls].tolist()
        literal = st.one_of(
            value, st.sampled_from([segment.min_value, segment.max_value] + held)
        )
    return segment, values, mask, literal


@st.composite
def conjuncts(draw, literal):
    """A single-column conjunct on column ``a``."""
    a = Column("a")
    shape = draw(st.sampled_from(["compare", "flipped", "between", "in"]))
    if shape == "between":
        return Between(a, Literal(draw(literal)), Literal(draw(literal)))
    if shape == "in":
        return InList(a, draw(st.lists(literal, min_size=1, max_size=4)))
    op = draw(st.sampled_from(OPS))
    if shape == "flipped":
        return Comparison(op, Literal(draw(literal)), a)
    return Comparison(op, a, Literal(draw(literal)))


def passing(conjunct, values, mask) -> np.ndarray:
    return predicate_mask(conjunct, Batch(columns={"a": values}, null_masks={"a": mask}))


@settings(max_examples=examples(300), deadline=None)
@given(data=st.data())
def test_answers_hold_for_every_row(data):
    segment, values, mask, literal = data.draw(segments())
    conjunct = data.draw(conjuncts(literal))
    found = ColumnRange.of(conjunct)
    if isinstance(conjunct, Comparison) and conjunct.op == "!=":
        assert found is None
        return
    column, rng = found
    assert column == "a"
    assert rng.exact == (not isinstance(conjunct, InList))
    rows = passing(conjunct, values, mask)
    present = np.ones(len(values), dtype=bool) if mask is None else ~mask
    lo, hi = segment.min_value, segment.max_value
    if rng.excludes(lo, hi):
        assert not rows.any()
    if rng.contains(lo, hi):
        assert rng.exact
        assert rows[present].all()
    if rng.exact:
        # One value is a segment [v, v]: inside exactly when it passes.
        for value, passes in zip(values[present].tolist(), rows[present].tolist()):
            assert rng.contains(value, value) == passes
            if rng.excludes(value, value):
                assert not passes


@settings(max_examples=examples(200), deadline=None)
@given(data=st.data())
def test_intersection_excludes_only_what_both_reject(data):
    segment, values, mask, literal = data.draw(segments())
    first = data.draw(conjuncts(literal))
    second = data.draw(conjuncts(literal))
    ranges = extract_column_ranges([first, second])
    if "a" not in ranges:
        return
    if ranges["a"].excludes(segment.min_value, segment.max_value):
        both = passing(first, values, mask) & passing(second, values, mask)
        assert not both.any()


class TestEdges:
    def test_strict_ends(self):
        assert ColumnRange(high=5, high_strict=True).excludes(5, 9)
        assert not ColumnRange(high=5).excludes(5, 9)
        assert ColumnRange(low=9, low_strict=True).excludes(5, 9)
        assert not ColumnRange(low=9, low_strict=True).contains(9, 12)
        assert ColumnRange(low=9).contains(9, 12)

    def test_empty_intersection_excludes_everything(self):
        _, rng = ColumnRange.of(Comparison(">", Column("a"), Literal(5)))
        _, other = ColumnRange.of(Comparison("<", Column("a"), Literal(3)))
        assert (rng & other).excludes(-100, 100)
        _, point = ColumnRange.of(Comparison(">=", Column("a"), Literal(5)))
        _, below = ColumnRange.of(Comparison("<", Column("a"), Literal(5)))
        assert (point & below).excludes(5, 5)
        assert not (point & ColumnRange(high=5)).excludes(5, 5)

    def test_all_null_segment(self):
        rng = ColumnRange(1, 2)
        assert rng.excludes(None, None)
        assert rng.contains(None, None)
        assert not ColumnRange(1, 2, exact=False).contains(None, None)

    @pytest.mark.parametrize("lo, hi", [(math.nan, math.nan), (1.0, math.nan)])
    def test_nan_answers_neither(self, lo, hi):
        for rng in (ColumnRange(0.0, 10.0), ColumnRange(low=math.nan), ColumnRange(20.0, 30.0)):
            assert not rng.contains(lo, hi)
        assert not ColumnRange(low=math.nan).excludes(1.0, 2.0)
        assert not ColumnRange(high=math.nan).contains(1.0, 2.0)

    def test_incomparable_answers_neither(self):
        rng = ColumnRange("a", "c")
        assert not rng.excludes(1, 5)
        assert not rng.contains(1, 5)

    @pytest.mark.parametrize(
        "conjunct",
        [
            Comparison("!=", Column("a"), Literal(1)),
            Comparison("<", Column("a"), Literal(None)),
            Comparison("<", Column("a"), Column("b")),
            Between(Column("a"), Literal(None), Literal(3)),
            Between(Column("a"), Column("b"), Literal(3)),
            InList(Column("a"), [None]),
        ],
    )
    def test_no_range(self, conjunct):
        assert ColumnRange.of(conjunct) is None
