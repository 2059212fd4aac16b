"""The one ordering (``repro.exec.batch.sort_order``) against a reference:
Python's ``sorted``, one stable pass a key from the least significant,
with NULLs greater than every value. The same cases then go through every
operator that orders rows: the batch sort in memory and spilled, TOP-N at
several batch sizes, the row engine's sort, and the window's ranking in
both engines."""

from __future__ import annotations

from typing import Any

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec.batch import Batch, slice_into_batches, sort_order
from repro.exec.memory import MemoryGrant
from repro.exec.operators.base import BatchOperator
from repro.exec.operators.sort import BatchSort, BatchTop
from repro.exec.operators.window import WindowSpec, compute_window_columns
from repro.exec.row_engine import RowOperator, RowSort, RowWindow

from .. import examples

SETTINGS = settings(max_examples=examples(60), deadline=None)
I32, I64 = np.iinfo(np.int32), np.iinfo(np.int64)
# Each SQL type's physical dtype and the cells drawn for it: extremes,
# signed zeros and the empty string included.
KINDS = {
    "INT": (np.dtype(np.int32), st.one_of(st.integers(-3, 3), st.sampled_from([I32.min, I32.max]))),
    "BIGINT": (np.dtype(np.int64),
               st.one_of(st.integers(-3, 3), st.sampled_from([I64.min, I64.min + 1, I64.max]))),
    "FLOAT": (np.dtype(np.float64),
              st.one_of(st.sampled_from([-0.0, 0.0, 1.5, -1.5, float("inf"), float("-inf")]),
                        st.floats(-10, 10, allow_nan=False))),
    "BOOL": (np.dtype(np.bool_), st.booleans()),
    "VARCHAR": (np.dtype(object), st.sampled_from(["", "a", "b", "ab", "B", "é"])),
}


class _NullsLast:
    """The reference's sort key: NULL after every value."""

    __slots__ = ("is_null", "value")

    def __init__(self, value: Any) -> None:
        self.is_null = value is None
        self.value = value

    def __lt__(self, other: "_NullsLast") -> bool:
        if self.is_null:
            return False
        if other.is_null:
            return True
        return self.value < other.value


@st.composite
def cases(draw):
    """(columns, keys): up to three key columns of one length (zero
    included), each with no, some or only NULLs, and their directions."""
    n = draw(st.integers(0, 40))
    kinds = draw(st.lists(st.sampled_from(list(KINDS)), min_size=1, max_size=3))
    columns = {}
    for i, kind in enumerate(kinds):
        dtype, values = KINDS[kind]
        nulls = draw(st.sampled_from(["none", "some", "all"]))
        cell = {"none": values, "some": st.one_of(st.none(), values), "all": st.none()}[nulls]
        columns[f"k{i}"] = (dtype, draw(st.lists(cell, min_size=n, max_size=n)))
    keys = [(name, draw(st.booleans())) for name in columns]
    return columns, keys


def reference_order(columns, keys) -> list[int]:
    n = len(next(iter(columns.values()))[1])
    order = list(range(n))
    for name, descending in reversed(keys):
        cells = columns[name][1]
        order.sort(key=lambda i: _NullsLast(cells[i]), reverse=descending)
    return order


def as_batch(columns) -> Batch:
    """The columns as a typed batch (NULLs as filler under a mask), with
    each row's input position as ``i``."""
    arrays, masks = {}, {}
    for name, (dtype, cells) in columns.items():
        filler = "" if dtype == object else 0
        values = np.empty(len(cells), dtype=dtype)
        values[:] = [filler if cell is None else cell for cell in cells]
        mask = np.array([cell is None for cell in cells], dtype=bool)
        arrays[name], masks[name] = values, (mask if mask.any() else None)
    n = len(next(iter(columns.values()))[1])
    return Batch({**arrays, "i": np.arange(n)}, {**masks, "i": None})


class Source(BatchOperator):
    def __init__(self, batch: Batch, batch_size: int) -> None:
        self.batch, self.batch_size = batch, batch_size

    @property
    def output_names(self):
        return self.batch.names

    def batches(self):
        if self.batch.row_count:
            yield from slice_into_batches(self.batch, self.batch_size)


class RowSource(RowOperator):
    def __init__(self, columns) -> None:
        self.columns = columns

    @property
    def output_names(self):
        return [*self.columns, "i"]

    def rows(self):
        cells = [column[1] for column in self.columns.values()]
        for i, row in enumerate(zip(*cells)):
            yield {**dict(zip(self.columns, row)), "i": i}


def emitted(op: BatchOperator) -> list[int]:
    return [i for batch in op.batches() for i in batch.compact().column("i").tolist()]


@SETTINGS
@given(case=cases())
def test_sort_order_is_the_reference(case):
    columns, keys = case
    batch = as_batch(columns)
    got = sort_order([(batch.column(n), batch.null_mask(n), d) for n, d in keys])
    assert got.tolist() == reference_order(columns, keys)


@SETTINGS
@given(case=cases(), batch_size=st.sampled_from([1, 7, 1000]), spill=st.booleans())
def test_batch_sort_in_memory_and_spilled(case, batch_size, spill):
    columns, keys = case
    grant = MemoryGrant(budget_bytes=1) if spill else None
    sort = BatchSort(Source(as_batch(columns), batch_size), keys, grant=grant)
    assert emitted(sort) == reference_order(columns, keys)


@pytest.mark.parametrize("batch_size", [1, 7, 32, 1000])
@SETTINGS
@given(case=cases(), limit=st.integers(1, 45))
def test_top_is_the_head_of_the_reference(case, limit, batch_size):
    columns, keys = case
    top = BatchTop(Source(as_batch(columns), batch_size), limit, keys=keys)
    assert emitted(top) == reference_order(columns, keys)[:limit]


@SETTINGS
@given(case=cases())
def test_row_sort_is_the_reference(case):
    columns, keys = case
    assert [row["i"] for row in RowSort(RowSource(columns), keys).rows()] == reference_order(
        columns, keys
    )


def reference_ranks(columns, partition, keys) -> dict[str, list[int]]:
    """ROW_NUMBER, RANK and DENSE_RANK by walking the reference order."""
    order = reference_order(columns, [(p, False) for p in partition] + keys)
    out = {f: [0] * len(order) for f in ("row_number", "rank", "dense_rank")}
    previous = None
    for position, i in enumerate(order):
        part = tuple(columns[p][1][i] for p in partition)
        peer = tuple(columns[name][1][i] for name, _ in keys)
        if previous is None or previous[0] != part:
            first, rank, dense = position, position, 0
        if previous is None or previous != (part, peer):
            rank, dense = position, dense + 1
        out["row_number"][i] = position - first + 1
        out["rank"][i] = rank - first + 1
        out["dense_rank"][i] = dense
        previous = (part, peer)
    return out


@SETTINGS
@given(case=cases(), partitioned=st.booleans())
def test_window_ranks_are_the_reference_in_both_engines(case, partitioned):
    """The first key partitions when ``partitioned`` (with more than one)."""
    columns, keys = case
    partition = [keys[0][0]] if partitioned and len(keys) > 1 else []
    order_by = tuple(keys[len(partition):])
    specs = [WindowSpec(f, None, tuple(partition), order_by, f)
             for f in ("row_number", "rank", "dense_rank")]
    want = reference_ranks(columns, partition, list(order_by))
    batch = compute_window_columns(as_batch(columns), specs)
    rows = list(RowWindow(RowSource(columns), specs).rows())
    for f in want:
        assert batch.column(f).tolist() == want[f], f
        assert [row[f] for row in rows] == want[f], f


@pytest.mark.parametrize(
    "descending, want", [(False, [0, 4, 2, 1, 3, 5]), (True, [5, 1, 3, 2, 0, 4])]
)
def test_nan_orders_after_every_number_and_before_null(descending, want):
    """As numpy sorts a float column: NaN last, and first under DESC (the
    reference's ``sorted`` has no order for NaN)."""
    values = np.array([1.0, np.nan, 2.0, np.nan, 1.0, 0.0])
    nulls = np.array([False, False, False, False, False, True])
    assert sort_order([(values, nulls, descending)]).tolist() == want
