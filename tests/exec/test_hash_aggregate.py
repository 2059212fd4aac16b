"""Tests for batch hash aggregation, including the spill (local/global) path."""

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.exec.batch import Batch, slice_into_batches
from repro.exec.memory import MemoryGrant
from repro.exec.operators.base import BatchOperator
from repro.exec.operators.hash_aggregate import (
    AggregateSpec,
    BatchHashAggregate,
    agg,
    count_star,
)
from repro.exec.expressions import Arithmetic, col, lit
from repro.exec.spill import partition_of


class ListSource(BatchOperator):
    def __init__(self, data: dict, batch_size: int = 64):
        self._batch = Batch.from_pydict(data)
        self._batch_size = batch_size

    @property
    def output_names(self):
        return self._batch.names

    def batches(self):
        yield from slice_into_batches(self._batch, self._batch_size)


def run_agg(data, keys, aggregates, **kwargs):
    op = BatchHashAggregate(ListSource(data), keys, aggregates, **kwargs)
    rows = []
    for batch in op.batches():
        rows.extend(batch.to_rows())
    return op, rows


class TestScalarAggregates:
    def test_count_star(self):
        _, rows = run_agg({"a": [1, 2, None]}, [], [count_star("n")])
        assert rows == [(3,)]

    def test_count_ignores_nulls(self):
        _, rows = run_agg({"a": [1, 2, None]}, [], [agg("count", "a", "n")])
        assert rows == [(2,)]

    def test_sum_min_max_avg(self):
        _, rows = run_agg(
            {"a": [1, 2, 3, None]},
            [],
            [
                agg("sum", "a", "s"),
                agg("min", "a", "lo"),
                agg("max", "a", "hi"),
                agg("avg", "a", "mean"),
            ],
        )
        assert rows == [(6, 1, 3, 2.0)]

    def test_empty_input_yields_one_row(self):
        _, rows = run_agg({"a": []}, [], [count_star("n"), agg("sum", "a", "s")])
        assert rows == [(0, None)]

    def test_all_null_sum_is_null(self):
        _, rows = run_agg({"a": [None, None]}, [], [agg("sum", "a", "s")])
        assert rows == [(None,)]

    def test_aggregate_over_expression(self):
        spec = AggregateSpec("sum", Arithmetic("*", col("a"), lit(2)), "double_sum")
        _, rows = run_agg({"a": [1, 2, 3]}, [], [spec])
        assert rows == [(12,)]

    def test_float_sum(self):
        _, rows = run_agg({"a": [1.5, 2.5]}, [], [agg("sum", "a", "s")])
        assert rows == [(4.0,)]


class TestGroupedAggregates:
    def test_single_int_key(self):
        _, rows = run_agg(
            {"g": [1, 2, 1, 2, 1], "v": [10, 20, 30, 40, 50]},
            ["g"],
            [count_star("n"), agg("sum", "v", "s")],
        )
        assert sorted(rows) == [(1, 3, 90), (2, 2, 60)]

    def test_string_key(self):
        _, rows = run_agg(
            {"g": ["a", "b", "a"], "v": [1, 2, 3]},
            ["g"],
            [agg("max", "v", "m")],
        )
        assert sorted(rows) == [("a", 3), ("b", 2)]

    def test_null_group_key_forms_one_group(self):
        _, rows = run_agg(
            {"g": [None, None, 1], "v": [1, 2, 3]},
            ["g"],
            [count_star("n")],
        )
        assert sorted(rows, key=repr) == sorted([(None, 2), (1, 1)], key=repr)

    def test_composite_keys(self):
        _, rows = run_agg(
            {"g1": [1, 1, 2], "g2": ["x", "y", "x"], "v": [1, 2, 3]},
            ["g1", "g2"],
            [agg("sum", "v", "s")],
        )
        assert sorted(rows) == [(1, "x", 1), (1, "y", 2), (2, "x", 3)]

    def test_min_max_strings(self):
        _, rows = run_agg(
            {"g": [1, 1], "s": ["pear", "apple"]},
            ["g"],
            [agg("min", "s", "lo"), agg("max", "s", "hi")],
        )
        assert rows == [(1, "apple", "pear")]

    def test_empty_grouped_input_yields_nothing(self):
        _, rows = run_agg({"g": [], "v": []}, ["g"], [count_star("n")])
        assert rows == []

    def test_duplicate_output_names_rejected(self):
        with pytest.raises(ExecutionError):
            BatchHashAggregate(
                ListSource({"g": [1]}), ["g"], [count_star("g")]
            )


class TestSpilling:
    def make_data(self, n=5000, groups=500):
        rng = np.random.default_rng(9)
        return {
            "g": rng.integers(0, groups, n).tolist(),
            "v": rng.integers(0, 100, n).tolist(),
        }

    def test_spill_matches_in_memory(self):
        data = self.make_data()
        aggs = [count_star("n"), agg("sum", "v", "s"), agg("min", "v", "lo"),
                agg("max", "v", "hi"), agg("avg", "v", "mean")]
        _, expected = run_agg(data, ["g"], aggs)
        op, got = run_agg(data, ["g"], aggs, grant=MemoryGrant(budget_bytes=8_000))
        assert op.stats.spilled
        assert op.stats.partials_spilled > 0
        assert sorted(got) == sorted(expected)

    def test_spill_with_string_keys(self):
        data = self.make_data(2000, 300)
        data["g"] = [f"group-{g}" for g in data["g"]]
        aggs = [agg("sum", "v", "s")]
        _, expected = run_agg(data, ["g"], aggs)
        op, got = run_agg(data, ["g"], aggs, grant=MemoryGrant(budget_bytes=4_000))
        assert op.stats.spilled
        assert sorted(got) == sorted(expected)

    def test_spilled_equals_in_memory_group_by_group(self):
        """Partials merge through the group directory: every group's count,
        float SUM (bit for bit: multiples of 0.25 sum exactly in any
        order), AVG and string MIN/MAX equal the in-memory ones, a NULL key
        is one group, and groups come out partition by partition, each in
        order of first appearance."""
        rng = np.random.default_rng(22)
        keys = rng.integers(0, 300, 3000).tolist()
        data = {
            "g": [None if k % 37 == 0 else k for k in keys],
            "h": [("x", "y", None)[k % 3] for k in keys],
            "v": (rng.integers(-400, 400, 3000) * 0.25).tolist(),
            "s": [f"s{x}" for x in rng.integers(0, 1000, 3000).tolist()],
        }
        aggs = [count_star("n"), agg("sum", "v", "sv"), agg("avg", "v", "av"),
                agg("min", "s", "lo"), agg("max", "s", "hi"), agg("count", "v", "cv")]
        _, expected = run_agg(data, ["g", "h"], aggs)
        op, got = run_agg(data, ["g", "h"], aggs, grant=MemoryGrant(budget_bytes=4_000))
        assert op.stats.spilled and op.stats.partials_spilled > len(expected)
        assert (None, None) in {row[:2] for row in got}
        groups = Batch.from_pydict({"g": [r[0] for r in expected], "h": [r[1] for r in expected]})
        order = np.argsort(partition_of(groups, ["g", "h"], 8), kind="stable")

        def bits(rows):
            return [tuple(v.hex() if isinstance(v, float) else v for v in row) for row in rows]

        assert bits(got) == bits([expected[i] for i in order])

    def test_spilled_scalar_aggregate(self):
        data = {"v": [0.5 * i for i in range(500)], "s": [f"s{i % 97}" for i in range(500)]}
        aggs = [count_star("n"), agg("sum", "v", "sv"), agg("max", "s", "hi")]
        _, expected = run_agg(data, [], aggs)
        op, got = run_agg(data, [], aggs, grant=MemoryGrant(budget_bytes=1))
        assert op.stats.spilled and got == expected == [(500, 62375.0, "s96")]

    def test_group_count_stat(self):
        data = self.make_data(1000, 50)
        op, rows = run_agg(data, ["g"], [count_star("n")])
        assert op.stats.groups == len(rows)
