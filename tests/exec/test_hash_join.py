"""Tests for the batch hash join: all join types, bitmaps, spilling."""

import numpy as np
import pytest

from repro.exec.batch import Batch, slice_into_batches
from repro.exec.memory import MemoryGrant
from repro.exec.operators.base import BatchOperator
from repro.exec.operators.hash_join import BatchHashJoin
from repro.errors import ExecutionError


class ListSource(BatchOperator):
    """Test helper: serves a fixed pydict as batches."""

    def __init__(self, data: dict, batch_size: int = 100):
        self._batch = Batch.from_pydict(data)
        self._batch_size = batch_size

    @property
    def output_names(self):
        return self._batch.names

    def batches(self):
        yield from slice_into_batches(self._batch, self._batch_size)


def run_join(build_data, probe_data, build_keys, probe_keys, **kwargs):
    join = BatchHashJoin(
        ListSource(build_data), ListSource(probe_data), build_keys, probe_keys, **kwargs
    )
    rows = []
    for batch in join.batches():
        rows.extend(batch.to_rows())
    return join, rows


class TestInnerJoin:
    def test_basic(self):
        join, rows = run_join(
            {"id": [1, 2], "name": ["a", "b"]},
            {"k": [2, 1, 3], "v": [20, 10, 30]},
            ["id"],
            ["k"],
        )
        # Output = probe columns then build columns.
        assert sorted(rows) == [(1, 10, 1, "a"), (2, 20, 2, "b")]
        assert join.stats.output_rows == 2

    def test_duplicates_multiply(self):
        _, rows = run_join(
            {"id": [1, 1], "tag": ["x", "y"]},
            {"k": [1, 1], "v": [10, 20]},
            ["id"],
            ["k"],
        )
        assert len(rows) == 4

    def test_null_keys_never_match(self):
        _, rows = run_join(
            {"id": [1, None], "name": ["a", "n"]},
            {"k": [1, None], "v": [10, 20]},
            ["id"],
            ["k"],
        )
        assert len(rows) == 1
        assert rows[0][1] == 10

    def test_string_keys(self):
        _, rows = run_join(
            {"name": ["a", "b"], "x": [1, 2]},
            {"s": ["b", "c"], "y": [20, 30]},
            ["name"],
            ["s"],
        )
        assert rows == [("b", 20, "b", 2)]

    def test_composite_keys(self):
        _, rows = run_join(
            {"a": [1, 1], "b": ["x", "y"], "payload": [100, 200]},
            {"c": [1, 1], "d": ["y", "z"], "v": [10, 20]},
            ["a", "b"],
            ["c", "d"],
        )
        assert rows == [(1, "y", 10, 1, "y", 200)]

    def test_empty_build(self):
        _, rows = run_join({"id": [], "n": []}, {"k": [1], "v": [2]}, ["id"], ["k"])
        assert rows == []

    def test_name_collision_rejected(self):
        with pytest.raises(ExecutionError):
            BatchHashJoin(
                ListSource({"id": [1]}), ListSource({"id": [1]}), ["id"], ["id"]
            )

    def test_key_arity_checked(self):
        with pytest.raises(ExecutionError):
            BatchHashJoin(
                ListSource({"a": [1]}), ListSource({"b": [1]}), ["a"], ["b", "b"]
            )


class TestOuterSemiAnti:
    BUILD = {"id": [1, 2], "name": ["a", "b"]}
    PROBE = {"k": [1, 3, None], "v": [10, 30, 40]}

    def test_left_outer(self):
        _, rows = run_join(self.BUILD, self.PROBE, ["id"], ["k"], join_type="left")
        assert sorted(rows, key=lambda r: r[1]) == [
            (1, 10, 1, "a"),
            (3, 30, None, None),
            (None, 40, None, None),
        ]

    def test_semi(self):
        _, rows = run_join(self.BUILD, self.PROBE, ["id"], ["k"], join_type="semi")
        assert rows == [(1, 10)]

    def test_anti(self):
        _, rows = run_join(self.BUILD, self.PROBE, ["id"], ["k"], join_type="anti")
        assert sorted(rows, key=lambda r: r[1]) == [(3, 30), (None, 40)]

    def test_semi_no_duplicate_probe_rows(self):
        _, rows = run_join(
            {"id": [1, 1], "n": ["a", "b"]},
            {"k": [1], "v": [10]},
            ["id"],
            ["k"],
            join_type="semi",
        )
        assert rows == [(1, 10)]


class TestBitmap:
    def test_bitmap_created_on_build(self):
        join, _ = run_join(
            {"id": [5, 9], "n": ["a", "b"]},
            {"k": [5, 6], "v": [1, 2]},
            ["id"],
            ["k"],
            create_bitmap=True,
        )
        assert join.bitmap is not None
        hits = join.bitmap.might_contain(np.array([5, 6, 9], dtype=np.int64))
        assert hits.tolist() == [True, False, True]

    def test_no_bitmap_when_disabled(self):
        join, _ = run_join(
            {"id": [1], "n": ["a"]}, {"k": [1], "v": [2]}, ["id"], ["k"],
            create_bitmap=False,
        )
        assert join.bitmap is None


class TestSpilling:
    def big_data(self, n=3000):
        rng = np.random.default_rng(42)
        build = {
            "id": list(range(n)),
            "name": [f"value-{i}" for i in range(n)],
        }
        probe = {
            "k": rng.integers(0, n, n * 2).tolist(),
            "v": list(range(n * 2)),
        }
        return build, probe

    def test_spill_matches_in_memory(self):
        build, probe = self.big_data()
        _, expected = run_join(build, probe, ["id"], ["k"])
        join, got = run_join(
            build, probe, ["id"], ["k"], grant=MemoryGrant(budget_bytes=10_000)
        )
        assert join.stats.spilled
        assert join.stats.build_rows_spilled == 3000
        assert sorted(got) == sorted(expected)

    def test_spill_left_join(self):
        build, probe = self.big_data(500)
        probe["k"][0] = 10**9  # unmatched
        _, expected = run_join(build, probe, ["id"], ["k"], join_type="left")
        join, got = run_join(
            build, probe, ["id"], ["k"], join_type="left",
            grant=MemoryGrant(budget_bytes=5_000),
        )
        assert join.stats.spilled
        assert sorted(got, key=repr) == sorted(expected, key=repr)

    def test_no_spill_within_grant(self):
        build, probe = self.big_data(100)
        join, _ = run_join(build, probe, ["id"], ["k"], grant=MemoryGrant())
        assert not join.stats.spilled
