"""Tests for sort/top operators, bloom filters, spill files and the row
engine (including batch/row equivalence)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import types
from repro.exec.batch import Batch, slice_into_batches
from repro.exec.bloom import JoinBitmapFilter
from repro.exec.expressions import Comparison, col, lit
from repro.exec.operators.base import BatchOperator
from repro.exec.operators.hash_aggregate import agg, count_star
from repro.exec.operators.sort import BatchSort, BatchTop, _sort_indices
from repro.exec.operators.union import BatchConcat
from repro.exec.row_engine import (
    BatchesToRows,
    RowFilter,
    RowHashAggregate,
    RowHashJoin,
    RowProject,
    RowSort,
    RowTableScan,
    RowTop,
    RowsToBatches,
)
from repro.exec.spill import SpillFile, partition_of
from repro.rowstore.table import RowStoreTable
from repro.schema import schema


class ListSource(BatchOperator):
    def __init__(self, data: dict, batch_size: int = 32):
        self._batch = Batch.from_pydict(data)
        self._batch_size = batch_size

    @property
    def output_names(self):
        return self._batch.names

    def batches(self):
        yield from slice_into_batches(self._batch, self._batch_size)


def collect(op):
    rows = []
    for batch in op.batches():
        rows.extend(batch.to_rows())
    return rows


class TestBatchSort:
    def test_ascending(self):
        rows = collect(BatchSort(ListSource({"a": [3, 1, 2]}), [("a", False)]))
        assert [r[0] for r in rows] == [1, 2, 3]

    def test_descending(self):
        rows = collect(BatchSort(ListSource({"a": [3, 1, 2]}), [("a", True)]))
        assert [r[0] for r in rows] == [3, 2, 1]

    def test_multi_key(self):
        data = {"a": [1, 2, 1, 2], "b": [9, 8, 7, 6]}
        rows = collect(BatchSort(ListSource(data), [("a", False), ("b", True)]))
        assert rows == [(1, 9), (1, 7), (2, 8), (2, 6)]

    def test_nulls_last_ascending(self):
        rows = collect(BatchSort(ListSource({"a": [2, None, 1]}), [("a", False)]))
        assert [r[0] for r in rows] == [1, 2, None]

    def test_string_sort(self):
        rows = collect(BatchSort(ListSource({"s": ["b", "a", "c"]}), [("s", False)]))
        assert [r[0] for r in rows] == ["a", "b", "c"]

    def test_descending_stability(self):
        data = {"k": [1, 1, 2, 2], "seq": [0, 1, 2, 3]}
        rows = collect(BatchSort(ListSource(data, batch_size=100), [("k", True)]))
        assert rows == [(2, 2), (2, 3), (1, 0), (1, 1)]

    def test_empty(self):
        assert collect(BatchSort(ListSource({"a": []}), [("a", False)])) == []


class TestBatchTop:
    def test_plain_limit(self):
        rows = collect(BatchTop(ListSource({"a": list(range(100))}, 16), 5))
        assert len(rows) == 5

    def test_limit_zero(self):
        assert collect(BatchTop(ListSource({"a": [1]}), 0)) == []

    def test_ordered_top(self):
        data = {"a": [5, 3, 9, 1, 7]}
        rows = collect(BatchTop(ListSource(data), 2, keys=[("a", False)]))
        assert rows == [(1,), (3,)]

    def test_ordered_top_descending(self):
        data = {"a": [5, 3, 9, 1, 7]}
        rows = collect(BatchTop(ListSource(data), 3, keys=[("a", True)]))
        assert rows == [(9,), (7,), (5,)]

    def test_top_matches_sort_head(self):
        rng = np.random.default_rng(5)
        data = {"a": rng.integers(0, 50, 200).tolist(), "b": list(range(200))}
        top = collect(BatchTop(ListSource(data), 10, keys=[("a", False)]))
        full = collect(BatchSort(ListSource(data), [("a", False)]))[:10]
        assert [r[0] for r in top] == [r[0] for r in full]


    @pytest.mark.parametrize("batch_size", [1, 7, 32, 1000])
    @pytest.mark.parametrize(
        "keys",
        [[("a", False)], [("a", True)], [("s", True), ("a", False)], [("n", False), ("s", False)]],
        ids=str,
    )
    def test_top_is_the_head_of_the_stable_sort(self, keys, batch_size):
        """Ties, NULLs and strings included: the earliest row wins a tie,
        whichever batch it arrived in."""
        rng = np.random.default_rng(11)
        n = 300
        data = {
            "a": rng.integers(0, 6, n).tolist(),
            "s": [("u", "v", "w", None)[i] for i in rng.integers(0, 4, n)],
            "n": [None if i % 5 == 0 else int(i % 3) for i in range(n)],
            "seq": list(range(n)),
        }
        for limit in (1, 4, 50, n, n + 10):
            top = collect(BatchTop(ListSource(data, batch_size), limit, keys=keys))
            full = collect(BatchSort(ListSource(data, batch_size), keys))
            assert top == full[:limit]

    def test_top_of_nothing(self):
        assert collect(BatchTop(ListSource({"a": []}), 3, keys=[("a", True)])) == []


def _stabilize_descending_loop(values: np.ndarray, order: np.ndarray) -> np.ndarray:
    """The per-row loop the sort used to run after reversing an ascending
    argsort; kept here as the reference for the vectorized order."""
    sorted_vals = values[order]
    result = order.copy()
    start = 0
    n = order.size
    for end in range(1, n + 1):
        if end == n or sorted_vals[end] != sorted_vals[start]:
            result[start:end] = result[start:end][::-1]
            start = end
    return result


@pytest.mark.parametrize(
    "values",
    [
        np.zeros(0, dtype=np.int64),
        np.array([7]),
        np.full(40, 3),
        np.array([1, 1, 2, 2, 2, 0, 0, 9]),
        np.random.default_rng(3).integers(-4, 4, 500),
        np.random.default_rng(4).integers(0, 2, 500).astype(np.float64) / 3,
        np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max, 0, np.iinfo(np.int64).max]),
    ],
    ids=["empty", "one", "all equal", "tie runs", "ints", "floats", "int64 extremes"],
)
def test_descending_order_equals_the_reversed_run_loop(values):
    batch = Batch(columns={"v": values})
    want = _stabilize_descending_loop(values, np.argsort(values, kind="stable")[::-1])
    assert _sort_indices(batch, [("v", True)]).tolist() == want.tolist()


class TestConcat:
    def test_union_all(self):
        op = BatchConcat([ListSource({"a": [1]}), ListSource({"a": [2, 3]})])
        assert collect(op) == [(1,), (2,), (3,)]

    def test_renames_to_first_child(self):
        op = BatchConcat([ListSource({"a": [1]}), ListSource({"b": [2]})])
        assert op.output_names == ["a"]
        assert collect(op) == [(1,), (2,)]


class TestBloomFilter:
    def test_exact_for_small_int_range(self):
        bf = JoinBitmapFilter.build(np.array([10, 20, 30], dtype=np.int64))
        assert bf.kind == "exact"
        hits = bf.might_contain(np.array([10, 15, 30, 40], dtype=np.int64))
        assert hits.tolist() == [True, False, True, False]

    def test_bloom_for_wide_range(self):
        keys = np.array([0, 2**40], dtype=np.int64)
        bf = JoinBitmapFilter.build(keys)
        assert bf.kind == "bloom"
        assert bf.might_contain(keys).all()

    def test_bloom_for_strings(self):
        keys = np.array(["a", "b"], dtype=object)
        bf = JoinBitmapFilter.build(keys)
        assert bf.kind == "bloom"
        assert bf.might_contain(np.array(["a", "b"], dtype=object)).all()

    def test_bloom_false_positive_rate_reasonable(self):
        rng = np.random.default_rng(1)
        keys = rng.integers(0, 2**50, 1000).astype(np.int64)
        bf = JoinBitmapFilter.build(keys)
        probes = rng.integers(2**51, 2**52, 10_000).astype(np.int64)
        fp = bf.might_contain(probes).mean()
        assert fp < 0.2

    def test_empty_build(self):
        bf = JoinBitmapFilter.build(np.array([], dtype=np.int64))
        assert not bf.might_contain(np.array([1, 2], dtype=np.int64)).any()

    def test_float_keys(self):
        keys = np.array([1.5, 2.5])
        bf = JoinBitmapFilter.build(keys)
        assert bf.might_contain(np.array([1.5])).all()


class TestSpillFile:
    def test_roundtrip(self):
        spill = SpillFile()
        batch = Batch.from_pydict({"a": [1, 2], "b": ["x", None]})
        spill.append(batch)
        spill.append(batch)
        assert spill.rows == 4
        back = [b.to_rows() for b in spill.read_back()]
        assert back == [[(1, "x"), (2, None)], [(1, "x"), (2, None)]]
        spill.close()

    def test_empty_batches_skipped(self):
        spill = SpillFile()
        empty = Batch.from_pydict({"a": []})
        spill.append(empty)
        assert spill.n_batches == 0
        spill.close()

    def test_partition_of_is_deterministic(self):
        batch = Batch(columns={"k": np.arange(100, dtype=np.int64)})
        p1 = partition_of(batch, ["k"], 8)
        p2 = partition_of(batch, ["k"], 8)
        assert (p1 == p2).all()
        assert set(np.unique(p1)) <= set(range(8))
        assert len(set(p1.tolist())) > 1
        # Equal values land together whatever their type: an INT side and
        # a FLOAT side of a join, or a BOOL, partition alike; NULLs go to
        # one partition whatever filler lies under them.
        ints = Batch.from_pydict({"k": [0, 1, 7, -3, 2**53, None, None]})
        floats = Batch.from_pydict({"k": [-0.0, 1.0, 7.0, -3.0, 2.0**53, None, 5.5]})
        bools = Batch.from_pydict({"k": [False, True]})
        by_int = partition_of(ints, ["k"], 8).tolist()
        assert partition_of(floats, ["k"], 8).tolist()[:6] == by_int[:6]
        assert partition_of(bools, ["k"], 8).tolist() == by_int[:2]
        filler = Batch(columns={"k": np.array([3, 9])}, null_masks={"k": np.array([True, True])})
        assert partition_of(filler, ["k"], 8).tolist() == [by_int[5]] * 2
        # Several columns hash one at a time, by value and NULL alike.
        pairs = Batch.from_pydict({"a": [1, 1, None, None], "b": ["x", "y", "x", "x"]})
        same = Batch.from_pydict({"a": [1.0, 1.0, None, 2.5], "b": ["x", "y", "x", "x"]})
        assert partition_of(pairs, ["a", "b"], 8)[:3].tolist() == (
            partition_of(same, ["a", "b"], 8)[:3].tolist())
        # No key is one partition.
        assert set(partition_of(pairs, [], 8).tolist()) == {0}


@pytest.fixture
def row_table():
    sch = schema(("id", types.INT, False), ("g", types.VARCHAR), ("v", types.FLOAT))
    table = RowStoreTable(sch)
    table.insert_many(
        [sch.coerce_row((i, f"g{i % 3}", float(i))) for i in range(30)]
    )
    return table


class TestRowEngine:
    def test_scan_filter(self, row_table):
        scan = RowTableScan(
            row_table, ["id"], predicate=Comparison("<", col("id"), lit(5))
        )
        assert len(list(scan.rows())) == 5

    def test_project(self, row_table):
        scan = RowTableScan(row_table, ["id", "v"])
        proj = RowProject(scan, [("double", Comparison("=", col("id"), lit(0)))])
        first = next(proj.rows())
        assert first == {"double": True}

    def test_aggregate(self, row_table):
        scan = RowTableScan(row_table, ["g", "v"])
        aggop = RowHashAggregate(scan, ["g"], [count_star("n"), agg("sum", "v", "s")])
        rows = {r["g"]: (r["n"], r["s"]) for r in aggop.rows()}
        assert rows["g0"] == (10, sum(float(i) for i in range(0, 30, 3)))

    def test_sort_and_top(self, row_table):
        scan = RowTableScan(row_table, ["id"])
        rows = list(RowTop(scan, 3, keys=[("id", True)]).rows())
        assert [r["id"] for r in rows] == [29, 28, 27]

    def test_join(self, row_table):
        left = RowTableScan(row_table, ["id", "g"])
        sch = schema(("name", types.VARCHAR, False), ("label", types.VARCHAR))
        dim = RowStoreTable(sch)
        dim.insert_many([("g0", "zero"), ("g1", "one")])
        right = RowTableScan(dim, ["name", "label"])
        join = RowHashJoin(right, left, ["name"], ["g"])
        rows = list(join.rows())
        assert len(rows) == 20  # g2 rows have no match
        assert all(r["label"] in ("zero", "one") for r in rows)

    def test_adapters_roundtrip(self, row_table):
        scan = RowTableScan(row_table, ["id", "g"])
        adapted = BatchesToRows(RowsToBatches(scan, batch_size=7))
        assert len(list(adapted.rows())) == 30


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 5), st.integers(-50, 50)),
        min_size=0,
        max_size=80,
    )
)
def test_engines_agree_on_grouped_aggregation(pairs):
    """Batch and row engines produce identical grouped aggregates."""
    from repro.exec.operators.hash_aggregate import BatchHashAggregate

    data = {"g": [p[0] for p in pairs], "v": [p[1] for p in pairs]}
    aggs = [count_star("n"), agg("sum", "v", "s"), agg("min", "v", "lo")]
    batch_rows = collect(BatchHashAggregate(ListSource(data, 16), ["g"], aggs))

    class DictRows:
        output_names = ["g", "v"]

        def rows(self):
            for g, v in pairs:
                yield {"g": g, "v": v}

        def child_operators(self):
            return []

    row_rows = [
        (r["g"], r["n"], r["s"], r["lo"])
        for r in RowHashAggregate(DictRows(), ["g"], aggs).rows()
    ]
    assert sorted(batch_rows) == sorted(row_rows)
