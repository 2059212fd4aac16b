"""Tests for run-length encoding."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.storage import rle


class TestSplitRuns:
    def test_empty(self):
        values, lengths = rle.split_runs(np.array([], dtype=np.int64))
        assert values.size == 0
        assert lengths.size == 0

    def test_single_run(self):
        values, lengths = rle.split_runs(np.array([5, 5, 5]))
        assert values.tolist() == [5]
        assert lengths.tolist() == [3]

    def test_alternating(self):
        values, lengths = rle.split_runs(np.array([1, 2, 1, 2]))
        assert values.tolist() == [1, 2, 1, 2]
        assert lengths.tolist() == [1, 1, 1, 1]

    def test_mixed(self):
        values, lengths = rle.split_runs(np.array([7, 7, 7, 2, 2, 9]))
        assert values.tolist() == [7, 2, 9]
        assert lengths.tolist() == [3, 2, 1]

    def test_run_count_matches(self):
        data = np.array([1, 1, 2, 3, 3, 3, 1])
        values, _ = rle.split_runs(data)
        assert rle.run_count(data) == values.size


class TestRleBlock:
    def test_roundtrip(self):
        data = np.array([4, 4, 4, 4, 0, 0, 9, 9, 9], dtype=np.int64)
        block = rle.encode(data)
        assert block.n_runs == 3
        assert (block.take() == data.astype(np.uint64)).all()

    def test_empty_roundtrip(self):
        block = rle.encode(np.array([], dtype=np.int64))
        assert block.take().size == 0

    def test_runs_accessor(self):
        block = rle.encode(np.array([1, 1, 5, 5, 5], dtype=np.int64))
        values, lengths = block.runs()
        assert values.tolist() == [1, 5]
        assert lengths.tolist() == [2, 3]

    def test_size_reflects_runs_not_rows(self):
        long_runs = rle.encode(np.full(10_000, 3, dtype=np.int64))
        no_runs = rle.encode(np.arange(10_000, dtype=np.int64))
        assert long_runs.size_bytes < no_runs.size_bytes / 100


@given(st.lists(st.integers(min_value=0, max_value=50), max_size=500))
def test_roundtrip_property(values):
    arr = np.array(values, dtype=np.int64)
    block = rle.encode(arr)
    assert (block.take().astype(np.int64) == arr).all()


@given(st.lists(st.integers(min_value=0, max_value=10), min_size=1, max_size=200))
def test_run_lengths_sum_to_count(values):
    arr = np.array(values, dtype=np.int64)
    _, lengths = rle.split_runs(arr)
    assert int(lengths.sum()) == arr.size
