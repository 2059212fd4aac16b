"""Tests for the Batch structure."""

import datetime

import numpy as np
import pytest

from repro import types
from repro.errors import ExecutionError
from repro.exec.batch import Batch, concat_batches, slice_into_batches
from repro.exec.spill import SpillFile
from repro.storage.segment import DictionaryVector
from repro.types import python_values


@pytest.fixture
def batch():
    return Batch.from_pydict(
        {"a": [1, 2, 3, 4], "b": ["w", "x", None, "z"], "c": [1.5, None, 3.5, 4.5]}
    )


class TestConstruction:
    def test_from_pydict_types(self, batch):
        assert batch.column("a").dtype == np.int64
        assert batch.column("b").dtype == object
        assert batch.column("c").dtype == np.float64

    def test_null_masks(self, batch):
        assert batch.null_mask("a") is None
        assert batch.null_mask("b").tolist() == [False, False, True, False]

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ExecutionError):
            Batch(columns={"a": np.arange(3), "b": np.arange(4)})

    def test_unknown_column(self, batch):
        with pytest.raises(ExecutionError):
            batch.column("ghost")

    def test_explicit_dtype(self):
        b = Batch.from_pydict({"a": [1, 2]}, dtypes={"a": np.dtype(np.int32)})
        assert b.column("a").dtype == np.int32

    def test_all_none_column_is_fully_masked(self):
        b = Batch.from_pydict({"a": [None, None]})
        assert b.null_mask("a").all()
        # Sample-less columns get a numeric vector, not object filler.
        assert b.column("a").dtype == np.int64


class TestSelection:
    def test_counts(self, batch):
        assert batch.row_count == 4
        assert batch.active_count == 4

    def test_narrow(self, batch):
        narrowed = batch.narrow(np.array([True, False, True, False]))
        assert narrowed.active_count == 2
        assert narrowed.selection.tolist() == [0, 2]
        # Underlying data untouched.
        assert narrowed.row_count == 4

    def test_narrow_twice_intersects(self, batch):
        first = batch.narrow(np.array([True, True, True, False]))
        second = first.narrow(np.array([False, True, True, True]))
        assert second.selection.tolist() == [1, 2]

    def test_compact(self, batch):
        compacted = batch.narrow(np.array([False, True, False, True])).compact()
        assert compacted.row_count == 2
        assert compacted.column("a").tolist() == [2, 4]
        assert compacted.selection is None

    def test_to_rows_respects_selection(self, batch):
        rows = batch.narrow(np.array([False, False, True, False])).to_rows()
        assert rows == [(3, None, 3.5)]


class TestManipulation:
    def test_project(self, batch):
        projected = batch.project(["c", "a"])
        assert projected.names == ["c", "a"]

    def test_with_column(self, batch):
        extended = batch.with_column("d", np.arange(4))
        assert extended.names == ["a", "b", "c", "d"]

    def test_with_column_wrong_length(self, batch):
        with pytest.raises(ExecutionError):
            batch.with_column("d", np.arange(5))


class TestConcatSlice:
    def test_concat(self, batch):
        merged = concat_batches([batch, batch])
        assert merged.row_count == 8
        assert merged.null_mask("b").sum() == 2

    def test_concat_empty(self):
        assert concat_batches([]) is None

    def test_concat_drops_empty_selections(self, batch):
        empty = batch.narrow(np.zeros(4, dtype=bool))
        merged = concat_batches([empty, batch])
        assert merged.row_count == 4

    def test_slice(self, batch):
        slices = list(slice_into_batches(batch, batch_size=3))
        assert [s.row_count for s in slices] == [3, 1]
        assert slices[1].column("a").tolist() == [4]


class TestEncodedColumnsAreCarried:
    """A vector rides through every batch-to-batch method (each of these
    silently dropped ``encoded`` once); what cannot carry one refuses."""

    @pytest.fixture
    def coded(self):
        vector = DictionaryVector.from_values(
            np.array(["x", "y", "x", "z"], dtype=object),
            np.array([False, False, True, False]),
        )
        return Batch(columns={"a": np.arange(4)}, encoded={"k": vector})

    @staticmethod
    def key_rows(batch):
        values, mask = batch.encoded["k"].decode()
        return [None if null else v for v, null in zip(values.tolist(), mask.tolist())]

    def test_narrow(self, coded):
        narrowed = coded.narrow(np.array([True, False, True, True]))
        assert narrowed.encoded["k"] is coded.encoded["k"]  # full length, not copied
        assert narrowed.selection.tolist() == [0, 2, 3]

    def test_compact(self, coded):
        dense = coded.narrow(np.array([False, True, True, True])).compact()
        assert dense.selection is None and dense.row_count == 3
        assert self.key_rows(dense) == ["y", None, "z"]
        assert dense.column("a").tolist() == [1, 2, 3]
        assert dense.encoded["k"].distinct_values() is coded.encoded["k"].distinct_values()

    def test_project(self, coded):
        assert set(coded.project(["k"]).encoded) == {"k"}
        assert coded.project(["k"]).row_count == 4
        assert coded.project(["a"]).encoded == {}
        both = coded.project(["k", "a"])
        assert both.names == ["a"] and self.key_rows(both) == ["x", "y", None, "z"]

    def test_with_column_keeps_the_others_and_replaces_by_name(self, coded):
        assert self.key_rows(coded.with_column("b", np.zeros(4))) == ["x", "y", None, "z"]
        replaced = coded.with_column("k", np.arange(4))
        assert replaced.encoded == {} and replaced.column("k").tolist() == [0, 1, 2, 3]

    def test_slice_carries(self, coded):
        slices = list(slice_into_batches(coded, batch_size=3))
        assert [self.key_rows(s) for s in slices] == [["x", "y", None], ["z"]]
        assert [s.column("a").tolist() for s in slices] == [[0, 1, 2], [3]]
        whole = list(slice_into_batches(coded, batch_size=4))
        assert len(whole) == 1 and self.key_rows(whole[0]) == ["x", "y", None, "z"]

    def test_concat_and_spill_refuse(self, coded):
        with pytest.raises(ExecutionError, match="encoded"):
            concat_batches([coded, coded])
        spill = SpillFile()
        try:
            with pytest.raises(ExecutionError, match="plain columns"):
                spill.append(coded)
        finally:
            spill.close()


# --------------------------------------------------------------------- #
# Results leave as columns: to_rows + presentation against per-cell code
# --------------------------------------------------------------------- #
def reference_rows(batch: Batch) -> list[tuple]:
    """Cell-at-a-time ``to_rows``: what the column-wise one must equal."""
    dense = batch.compact()
    rows = []
    for i in range(dense.row_count):
        row = []
        for name in dense.names:
            mask = dense.null_masks.get(name)
            value = dense.columns[name][i]
            if mask is not None and mask[i]:
                row.append(None)
            else:
                row.append(value.item() if hasattr(value, "item") else value)
        rows.append(tuple(row))
    return rows


def assert_identical(actual, expected):
    """Equal values of exactly equal Python types (True is not 1)."""
    assert actual == expected
    flat = lambda rows: [type(cell) for row in rows for cell in row]  # noqa: E731
    assert flat(actual) == flat(expected)


_N = 9
# kind -> physical values as the engine holds them (see DataType.numpy_dtype).
PHYSICAL = {
    types.INT: np.arange(-4, 5, dtype=np.int32) * 1000,
    types.BIGINT: np.arange(-4, 5, dtype=np.int64) * 2**40,
    types.FLOAT: np.linspace(-2.5, 1e9, _N),
    types.decimal(2): np.arange(-4, 5, dtype=np.int64) * 12_345,
    types.decimal(0): np.arange(-4, 5, dtype=np.int64) * 7,
    types.VARCHAR: np.array([f"s{i}" for i in range(_N)], dtype=object),
    types.DATE: np.array([-719_162, -1, 0, 1, 59, 19_000, 20_000, 2_932_896, 7], dtype=np.int32),
    types.BOOL: np.arange(_N) % 2 == 0,
}
PYTHON_TYPES = {
    "int": int, "bigint": int, "float": float, "decimal": (float, int),
    "varchar": str, "date": datetime.date, "bool": bool,
}
NULLS = {
    "no nulls": None,
    "some nulls": np.arange(_N) % 4 == 1,
    "all nulls": np.ones(_N, dtype=bool),
}


class TestRowsLeaveAsColumns:
    @pytest.mark.parametrize("nulls", list(NULLS))
    def test_to_rows_equals_the_per_cell_reference(self, nulls):
        batch = Batch(
            columns={str(dtype): values for dtype, values in PHYSICAL.items()},
            null_masks={str(dtype): NULLS[nulls] for dtype in PHYSICAL},
        )
        for each in (batch, batch.narrow(np.arange(_N) % 3 != 0), batch.narrow(np.zeros(_N, bool))):
            assert_identical(each.to_rows(), reference_rows(each))

    def test_no_rows_and_no_columns(self):
        empty = Batch(columns={"a": np.zeros(0, dtype=np.int64), "s": np.zeros(0, dtype=object)})
        assert empty.to_rows() == []
        assert Batch(columns={}).to_rows() == []
        located = Batch(columns={}, locators=np.array(["x", "y", "z"], dtype=object))
        assert located.to_rows() == [(), (), ()] == reference_rows(located)

    @pytest.mark.parametrize("nulls", list(NULLS))
    @pytest.mark.parametrize("dtype", list(PHYSICAL), ids=str)
    def test_present_column_equals_present_per_cell(self, dtype, nulls):
        values, mask = PHYSICAL[dtype], NULLS[nulls]
        presented = dtype.present_column(values, mask)
        per_cell = [dtype.present(v) for v in python_values(values, mask)]
        assert_identical([tuple(presented)], [tuple(per_cell)])
        for value, is_null in zip(presented, mask if mask is not None else [False] * _N):
            assert value is None if is_null else isinstance(value, PYTHON_TYPES[dtype.kind.value])
        assert dtype.present_column(values[:0]) == []
        batch = Batch(columns={"c": values}, null_masks={"c": mask})
        assert_identical(batch.to_rows([dtype]), [(cell,) for cell in per_cell])

    @pytest.mark.parametrize(
        "dtype, arrives_as",
        [
            # What aggregates hand over: MIN/MAX over a BOOL accumulate as
            # integers, AVG over a DECIMAL is a scaled float, SUM over an
            # INT is wider than the column.
            (types.BOOL, np.array([0, 1, 1], dtype=np.int64)),
            (types.INT, np.array([5, -6, 7], dtype=np.int64)),
            (types.BIGINT, np.array([5.0, -6.0, 7.0])),
            (types.FLOAT, np.array([5, -6, 7], dtype=np.int64)),
            (types.decimal(2), np.array([1234.5, -99.75, 100.0])),
            (types.decimal(0), np.array([1234.5, -99.75, 100.0])),
        ],
        ids=str,
    )
    def test_another_physical_kind_is_coerced_as_one_cell_would_be(self, dtype, arrives_as):
        mask = np.array([False, True, False])
        for null_mask in (None, mask):
            assert_identical(
                [tuple(dtype.present_column(arrives_as, null_mask))],
                [tuple(dtype.present(v) for v in python_values(arrives_as, null_mask))],
            )

    def test_a_date_out_of_range_raises_what_one_cell_raises(self):
        with pytest.raises(OverflowError):
            types.DATE.present(2**31 - 1)
        with pytest.raises(OverflowError):
            types.DATE.present_column(np.array([0, 2**31 - 1]))

    def test_through_the_statement_pipeline(self):
        from repro import Database, StoreConfig

        db = Database(StoreConfig(rowgroup_size=4, bulk_load_threshold=4))
        db.sql("CREATE TABLE t (i INT, f FLOAT, m DECIMAL(18,2), s VARCHAR, d DATE, b BOOL)")
        db.bulk_load(
            "t",
            [(n, n / 2, n + 0.25, "x", datetime.date(2024, 2, 29), n % 2 == 0) for n in range(4)],
        )
        db.sql("INSERT INTO t VALUES (NULL, NULL, NULL, NULL, NULL, NULL)")
        expected = [
            (0, 0.0, 0.25, "x", datetime.date(2024, 2, 29), True),
            (None, None, None, None, None, None),
        ]
        aggregates = (
            "SELECT s, MIN(b), MAX(b), SUM(i), AVG(i), AVG(m), MIN(d), MAX(f), COUNT(*) FROM t"
        )
        day = datetime.date(2024, 2, 29)
        for mode in ("batch", "row"):
            assert_identical(
                db.sql("SELECT i, f, m, s, d, b FROM t WHERE i = 0 OR i IS NULL", mode=mode).rows,
                expected,
            )
            # An aggregate's output has the column's Python type too:
            # MIN/MAX over a BOOL are bools, not the integers they
            # accumulate as — over row groups and over the delta store.
            for encoded in (True, False):
                grouped = db.sql(
                    aggregates + " GROUP BY s ORDER BY s",
                    mode=mode, enable_encoded_agg=encoded,
                ).rows
                assert_identical(
                    sorted(grouped, key=lambda row: row[0] is None),
                    [
                        ("x", False, True, 6, 1.5, 1.75, day, 1.5, 4),
                        (None, None, None, None, None, None, None, None, 1),
                    ],
                )
                assert_identical(
                    db.sql("SELECT MIN(b), MAX(b) FROM t", mode=mode, enable_encoded_agg=encoded).rows,
                    [(False, True)],
                )
