"""The row order a row group is stored in, against a reference kept here:
a stable lexicographic sort of float64 proxies — NULL as -inf, strings by
rank — columns taken by ascending distinct count, then by name. It is the
order every stored segment was written in, so the one-key sort that
replaced it must give exactly this permutation, ties and collisions of
the proxies included (NULL beside -inf, -0.0 beside 0.0, every NaN,
integers past 2**53 that share a float). Also: :func:`factorize`, which
the order reads, against ``np.unique`` and a sorted set."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.dictionary import factorize
from repro.storage.reorder import choose_row_order

from .. import examples


def _proxy(values, mask):
    if values.dtype == object:
        strings = values.tolist()
        rank = {v: i for i, v in enumerate(sorted(set(strings)))}
        proxy = np.fromiter((rank[v] for v in strings), dtype=np.int64, count=len(strings))
    else:
        proxy = values.astype(np.float64, copy=True)
    if mask is not None and mask.any():
        proxy = proxy.astype(np.float64)
        proxy[mask] = -np.inf
    return proxy


def _cardinality(values):
    if values.dtype == object:
        return len(set(values.tolist()))
    return int(np.unique(values).size)


def reference_order(columns, null_masks):
    names = sorted(columns, key=lambda name: (_cardinality(columns[name]), name))
    if not names:
        return np.zeros(0, dtype=np.int64)
    keys = [_proxy(columns[name], null_masks.get(name)) for name in reversed(names)]
    return np.lexsort(keys).astype(np.int64)


def order(columns, null_masks=None):
    factors = {name: factorize(values) for name, values in columns.items()}
    return choose_row_order(factors, null_masks)


def check(columns, null_masks=None):
    null_masks = null_masks or {}
    assert order(columns, null_masks).tolist() == reference_order(columns, null_masks).tolist()


def strings(values):
    array = np.empty(len(values), dtype=object)
    array[:] = values
    return array


_HUGE = st.one_of(
    # Neighbours past 2**53 (float64's spacing there is 4 and up): some
    # share a float, some do not.
    st.builds(lambda high, low: high * 2**54 + low, st.integers(-100, 100), st.integers(0, 5)),
    st.integers(-(2**63), 2**63 - 1),
)
_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf"), 1.5, -2.25]),
    st.floats(allow_nan=True, allow_infinity=True),
)
KINDS = {
    "small int": (st.integers(-3, 3), np.int32),
    "wide int": (st.integers(-(2**31), 2**31 - 1), np.int32),
    "huge int": (_HUGE, np.int64),
    "float": (_FLOATS, np.float64),
    "bool": (st.booleans(), np.bool_),
    "string": (st.text(alphabet="aAé日😀", max_size=3), object),
}


@st.composite
def tables(draw):
    rows = draw(st.integers(0, 40))
    columns, null_masks = {}, {}
    for position in range(draw(st.integers(1, 4))):
        elements, dtype = KINDS[draw(st.sampled_from(sorted(KINDS)))]
        values = draw(st.lists(elements, min_size=rows, max_size=rows))
        name = f"c{position}"
        columns[name] = strings(values) if dtype is object else np.array(values, dtype=dtype)
        if draw(st.booleans()):
            null_masks[name] = np.array(
                draw(st.lists(st.booleans(), min_size=rows, max_size=rows)), dtype=bool
            )
    return columns, null_masks


@settings(max_examples=examples(200), deadline=None)
@given(tables())
def test_order_matches_the_reference(table):
    check(*table)


@settings(max_examples=examples(100), deadline=None)
@given(st.sampled_from(sorted(KINDS)).flatmap(
    lambda kind: st.tuples(st.just(kind), st.lists(KINDS[kind][0], max_size=60))
))
def test_factorize_matches_unique(case):
    kind, values = case
    dtype = KINDS[kind][1]
    array = strings(values) if dtype is object else np.array(values, dtype=dtype)
    distinct, ranks = factorize(array)
    if dtype is object:
        assert distinct.tolist() == sorted(set(values))
        assert distinct[ranks].tolist() == values
        return
    expected, inverse = np.unique(array, return_inverse=True)
    assert np.array_equal(distinct, expected.astype(distinct.dtype), equal_nan=True)
    assert ranks.dtype == np.int64 and ranks.tolist() == inverse.tolist()


class TestOrderCases:
    def test_null_ties_minus_infinity(self):
        # NULL and -inf are one proxy value: the second column decides.
        inf = float("inf")
        columns = {"a": np.array([0.0, -inf, 0.0, -inf, 1.0]), "b": np.array([5, 4, 3, 2, 1])}
        masks = {"a": np.array([True, False, True, False, False])}
        check(columns, masks)
        assert order(columns, masks).tolist() == [3, 2, 1, 0, 4]

    def test_nan_and_signed_zeros_tie(self):
        nan = float("nan")
        columns = {
            "f": np.array([nan, 0.0, -0.0, nan, 0.0, -0.0]),
            "k": np.array([6, 5, 4, 3, 2, 1]),
        }
        check(columns)
        assert order(columns).tolist() == [5, 4, 2, 1, 3, 0]

    def test_integers_past_two_to_the_53_collide_as_floats(self):
        big = 2**60
        columns = {"b": np.array([big + 1, big, big + 1, big - 1024], dtype=np.int64),
                   "k": np.array([9, 8, 7, 6])}
        check(columns)
        assert order(columns).tolist() == [3, 2, 1, 0]

    def test_non_ascii_strings_sort_by_code_point(self):
        columns = {"s": strings(["é", "e", "日", "Z", "", "😀", "e"])}
        check(columns)
        assert columns["s"][order(columns)].tolist() == ["", "Z", "e", "e", "é", "日", "😀"]

    @pytest.mark.parametrize("rows", [0, 1, 300])
    def test_all_equal_single_row_and_empty(self, rows):
        columns = {
            "same": np.full(rows, 7, dtype=np.int32),
            "s": strings(["x"] * rows),
            "f": np.full(rows, 2.5),
        }
        check(columns, {"f": np.zeros(rows, dtype=bool)})
        assert order(columns).tolist() == list(range(rows))

    def test_ties_keep_row_position(self):
        rng = np.random.default_rng(3)
        columns = {"a": rng.integers(0, 3, 2000), "b": rng.integers(0, 2, 2000).astype(bool)}
        check(columns)

    def test_key_product_overflowing_int64(self):
        # Eight columns, seven of 1,000 distinct values or more: the
        # product of their distinct counts is past 2**63.
        rng = np.random.default_rng(11)
        rows = 2000
        columns = {f"c{i}": rng.integers(0, 10**6, rows) for i in range(5)}
        columns["s"] = strings([f"v{v}" for v in rng.integers(0, 1500, rows)])
        columns["f"] = rng.integers(0, 1500, rows) / 7
        columns["low"] = rng.integers(0, 3, rows).astype(np.int32)
        check(columns, {"f": rng.random(rows) < 0.1, "s": rng.random(rows) < 0.1})
