"""Tests for row reordering, the bulk loader and the segment directory."""

import numpy as np
import pytest

from repro import types
from repro.errors import StorageError
from repro.schema import schema
from repro.storage import rle
from repro.storage.config import StoreConfig
from repro.storage.dictionary import factorize
from repro.storage.directory import SegmentDirectory
from repro.storage.loader import BulkLoader, rows_to_columns
from repro.storage.reorder import choose_row_order as order_factors
from repro.storage.reorder import run_total


def choose_row_order(columns, null_masks=None):
    """The row order of raw columns, each factorized as the loader does."""
    return order_factors({name: factorize(values) for name, values in columns.items()}, null_masks)
from repro.storage.rowgroup import RowGroup
from repro.storage.segment import encode_segment


class TestReorder:
    def test_sorting_reduces_runs(self):
        rng = np.random.default_rng(1)
        columns = {
            "region": rng.integers(0, 4, 1000),
            "store": rng.integers(0, 50, 1000),
        }
        perm = choose_row_order(columns)
        before = run_total(columns)
        after = run_total({k: v[perm] for k, v in columns.items()})
        assert after < before

    def test_permutation_is_valid(self):
        columns = {"a": np.array([3, 1, 2])}
        perm = choose_row_order(columns)
        assert sorted(perm.tolist()) == [0, 1, 2]

    def test_lowest_cardinality_column_fully_sorted(self):
        rng = np.random.default_rng(2)
        columns = {
            "low": rng.integers(0, 3, 500),
            "high": rng.integers(0, 400, 500),
        }
        perm = choose_row_order(columns)
        low_sorted = columns["low"][perm]
        assert rle.run_count(low_sorted) == np.unique(columns["low"]).size

    def test_string_columns_supported(self):
        values = np.array(["b", "a", "b", "a"], dtype=object)
        perm = choose_row_order({"s": values})
        reordered = values[perm].tolist()
        assert reordered == ["a", "a", "b", "b"]

    def test_nulls_sort_first(self):
        values = np.array([5.0, 1.0, 3.0])
        mask = np.array([False, False, True])
        perm = choose_row_order({"x": values}, {"x": mask})
        assert mask[perm].tolist() == [True, False, False]

    def test_empty(self):
        assert choose_row_order({}).size == 0


@pytest.fixture
def sch():
    return schema(("k", types.INT, False), ("grp", types.VARCHAR))


def load_columns(loader, columns, null_masks=None):
    """Compress columns and install the groups into the loader's bare
    directory, as a snapshot load does."""
    groups = loader.compress(columns, null_masks)
    loader.directory.install(groups)
    return groups


def load_rows(loader, rows):
    return load_columns(loader, *rows_to_columns(loader.schema, rows))


class TestBulkLoader:
    def make_loader(self, sch, **config_kwargs):
        config = StoreConfig(**{"rowgroup_size": 100, "reorder_rows": True, **config_kwargs})
        directory = SegmentDirectory(sch)
        return BulkLoader(sch, directory, config), directory

    def test_chunks_into_rowgroups(self, sch):
        loader, directory = self.make_loader(sch)
        rows = [(i, f"g{i % 3}") for i in range(250)]
        groups = load_rows(loader, rows)
        assert [g.row_count for g in groups] == [100, 100, 50]
        assert directory.total_rows == 250

    def test_missing_column_raises(self, sch):
        loader, _ = self.make_loader(sch)
        with pytest.raises(StorageError):
            load_columns(loader, {"k": np.arange(5, dtype=np.int32)})

    def test_unequal_lengths_raise(self, sch):
        loader, _ = self.make_loader(sch)
        with pytest.raises(StorageError):
            load_columns(
                loader,
                {"k": np.arange(5, dtype=np.int32), "grp": np.array(["a"] * 4, dtype=object)},
            )

    def test_reorder_improves_compression(self, sch):
        rng = np.random.default_rng(5)
        columns = {
            "k": rng.integers(0, 5, 2000).astype(np.int32),
            "grp": np.array([f"g{i}" for i in rng.integers(0, 4, 2000)], dtype=object),
        }
        loader_on, dir_on = self.make_loader(sch, rowgroup_size=2000, reorder_rows=True)
        loader_off, dir_off = self.make_loader(sch, rowgroup_size=2000, reorder_rows=False)
        load_columns(loader_on, {k: v.copy() for k, v in columns.items()})
        load_columns(loader_off, columns)
        assert dir_on.encoded_size_bytes < dir_off.encoded_size_bytes

    def test_rows_to_columns_handles_nulls(self, sch):
        columns, masks = rows_to_columns(sch, [(1, None), (2, "x")])
        assert masks["grp"].tolist() == [True, False]
        assert masks["k"] is None
        assert columns["grp"].tolist() == ["", "x"]


class TestRowGroupAndDirectory:
    def test_rowgroup_validates_columns(self, sch):
        seg = encode_segment(types.INT, np.arange(3, dtype=np.int32))
        with pytest.raises(StorageError):
            RowGroup(group_id=0, schema=sch, segments={"k": seg})  # missing grp

    def test_rowgroup_validates_counts(self, sch):
        seg3 = encode_segment(types.INT, np.arange(3, dtype=np.int32))
        seg4 = encode_segment(types.VARCHAR, np.array(["a"] * 4, dtype=object))
        with pytest.raises(StorageError):
            RowGroup(group_id=0, schema=sch, segments={"k": seg3, "grp": seg4})

    def test_directory_segment_infos(self, sch):
        directory = SegmentDirectory(sch)
        loader = BulkLoader(sch, directory, StoreConfig(rowgroup_size=10))
        load_rows(loader, [(i, "g") for i in range(20)])
        infos = directory.segment_infos()
        assert len(infos) == 4  # 2 groups x 2 columns
        k_infos = [i for i in infos if i.column == "k"]
        assert all(i.row_count == 10 for i in k_infos)
        assert k_infos[0].min_value == 0

    def test_directory_duplicate_group_rejected(self, sch):
        directory = SegmentDirectory(sch)
        loader = BulkLoader(sch, directory, StoreConfig(rowgroup_size=10))
        group = load_rows(loader, [(1, "a")])[0]
        with pytest.raises(StorageError):
            directory.add_row_group(group)

    def test_directory_unknown_group(self, sch):
        directory = SegmentDirectory(sch)
        with pytest.raises(StorageError):
            directory.row_group(99)
        with pytest.raises(StorageError):
            directory.remove_row_group(99)


class TestDictionarySizeLimit:
    def make_loader(self, sch, limit):
        config = StoreConfig(
            rowgroup_size=1000, reorder_rows=False, dictionary_size_limit=limit
        )
        directory = SegmentDirectory(sch)
        return BulkLoader(sch, directory, config), directory

    def test_oversized_dictionaries_split_row_groups(self):
        sch = schema(("k", types.INT, False), ("s", types.VARCHAR, False))
        # Unique long strings: dictionary bytes ~ rows * 40.
        columns = {
            "k": np.arange(1000, dtype=np.int32),
            "s": np.array([f"value-{i:05d}-{'x' * 30}" for i in range(1000)], dtype=object),
        }
        loader, directory = self.make_loader(sch, limit=10_000)
        groups = load_columns(loader, columns)
        assert len(groups) > 1, "dictionary cap must split the row group"
        assert directory.total_rows == 1000
        for group in groups:
            assert BulkLoader._dictionary_bytes(group) <= 10_000
        # Data survives the splitting intact.
        decoded = np.concatenate([g.decode_column("k")[0] for g in directory.row_groups()])
        assert sorted(decoded.tolist()) == list(range(1000))

    def test_small_dictionaries_do_not_split(self):
        sch = schema(("s", types.VARCHAR, False))
        columns = {"s": np.array(["a", "b"] * 500, dtype=object)}
        loader, directory = self.make_loader(sch, limit=10_000)
        groups = load_columns(loader, columns)
        assert len(groups) == 1
