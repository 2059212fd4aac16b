"""Tests for segment blob serialization and database persistence."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database, StoreConfig, schema, types
from repro.errors import EncodingError
from repro.storage import compat, persist
from repro.storage.blob import deserialize_segment, serialize_segment
from repro.storage.segment import encode_segment
from repro.wal.record import WalRecordType


def roundtrip_blob(segment):
    return deserialize_segment(serialize_segment(segment))


class TestSegmentBlobs:
    def test_int_segment(self):
        values = np.array([5, 3, 5, 100, -7], dtype=np.int32)
        original = encode_segment(types.INT, values)
        restored = roundtrip_blob(original)
        assert restored.dtype == original.dtype
        assert restored.scheme == original.scheme
        assert (restored.decode()[0] == values).all()
        assert restored.min_value == -7
        assert restored.max_value == 100
        assert restored.raw_size_bytes == original.raw_size_bytes

    def test_string_segment(self):
        values = np.array(["b", "a", "b", "cc"] * 50, dtype=object)
        restored = roundtrip_blob(encode_segment(types.VARCHAR, values))
        assert restored.decode()[0].tolist() == values.tolist()
        assert restored.min_value == "a"

    def test_float_raw_segment(self):
        rng = np.random.default_rng(1)
        values = rng.standard_normal(50)
        restored = roundtrip_blob(encode_segment(types.FLOAT, values))
        assert (restored.decode()[0] == values).all()

    def test_decimal_segment(self):
        dtype = types.decimal(2)
        values = np.array([150, 2500, 150], dtype=np.int64)
        restored = roundtrip_blob(encode_segment(dtype, values))
        assert restored.dtype.scale == 2
        assert (restored.decode()[0] == values).all()

    def test_bool_segment(self):
        values = np.array([True, False, True, True])
        restored = roundtrip_blob(encode_segment(types.BOOL, values))
        assert restored.decode()[0].tolist() == values.tolist()
        assert restored.min_value is False
        assert restored.max_value is True

    def test_nullable_segment(self):
        values = np.array([1, 0, 3], dtype=np.int32)
        nulls = np.array([False, True, False])
        restored = roundtrip_blob(encode_segment(types.INT, values, nulls))
        decoded, mask = restored.decode()
        assert mask.tolist() == [False, True, False]
        assert restored.null_count == 1

    def test_all_null_segment(self):
        restored = roundtrip_blob(
            encode_segment(types.INT, np.zeros(3, dtype=np.int32), np.ones(3, dtype=bool))
        )
        assert restored.min_value is None

    def test_archived_segment(self):
        values = np.array(["alpha", "beta"] * 100, dtype=object)
        archived = encode_segment(types.VARCHAR, values).to_archived()
        restored = roundtrip_blob(archived)
        assert restored.archived
        assert restored.decode()[0].tolist() == values.tolist()

    def test_varchar_with_length(self):
        dtype = types.varchar(10)
        values = np.array(["aa", "bb"], dtype=object)
        restored = roundtrip_blob(encode_segment(dtype, values))
        assert restored.dtype.length == 10

    def test_bad_magic_rejected(self):
        with pytest.raises(EncodingError):
            deserialize_segment(b"XXXX" + b"\x00" * 32)

    def test_bad_version_rejected(self):
        blob = bytearray(serialize_segment(encode_segment(types.INT, np.array([1], dtype=np.int32))))
        blob[4] = 99
        with pytest.raises(EncodingError):
            deserialize_segment(bytes(blob))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.one_of(st.none(), st.integers(-(2**31), 2**31 - 1)),
        min_size=1,
        max_size=120,
    )
)
def test_segment_blob_roundtrip_property(raw):
    values = np.array([0 if v is None else v for v in raw], dtype=np.int32)
    nulls = np.array([v is None for v in raw])
    original = encode_segment(types.INT, values, nulls if nulls.any() else None)
    restored = roundtrip_blob(original)
    decoded, mask = restored.decode()
    for i, v in enumerate(raw):
        if v is None:
            assert mask is not None and mask[i]
        else:
            assert decoded[i] == v


class TestRowSerialization:
    def test_roundtrip_with_nulls(self):
        sch = schema(("a", types.INT, False), ("b", types.VARCHAR), ("c", types.FLOAT))
        rows = [(1, "x", 1.5), (2, None, 2.5), (3, "z", None)]
        physical = [sch.coerce_row(r) for r in rows]
        blob = persist.serialize_rows(sch, physical)
        assert persist.deserialize_rows(sch, blob) == physical

    def test_empty(self):
        sch = schema(("a", types.INT))
        assert persist.deserialize_rows(sch, persist.serialize_rows(sch, [])) == []

    def test_bools_and_dates(self):
        sch = schema(("f", types.BOOL), ("d", types.DATE))
        physical = [sch.coerce_row((True, "2024-06-01")), sch.coerce_row((False, None))]
        restored = persist.deserialize_rows(sch, persist.serialize_rows(sch, physical))
        assert restored == physical
        assert isinstance(restored[0][0], bool)

    def test_truncation_at_every_offset_is_structured(self):
        from repro.errors import StorageError

        sch = schema(("a", types.INT, False), ("b", types.VARCHAR))
        physical = [sch.coerce_row(r) for r in [(1, "x"), (2, None), (3, "zzz")]]
        blob = persist.serialize_rows(sch, physical)
        for cut in range(len(blob)):
            with pytest.raises(StorageError):
                persist.deserialize_rows(sch, blob[:cut])

    def test_trailing_garbage_rejected(self):
        from repro.errors import CorruptBlobError

        sch = schema(("a", types.INT))
        blob = persist.serialize_rows(sch, [sch.coerce_row((1,))])
        with pytest.raises(CorruptBlobError):
            persist.deserialize_rows(sch, blob + b"\x00")

    def test_mismatched_null_flags_rejected(self):
        from repro.errors import CorruptBlobError

        sch = schema(("a", types.INT))
        blob = bytearray(persist.serialize_rows(sch, [sch.coerce_row((7,))]))
        blob[1] ^= 1  # flip the single null flag: payload now over-full
        with pytest.raises(CorruptBlobError):
            persist.deserialize_rows(sch, bytes(blob))


@pytest.fixture
def populated_db(tmp_path):
    db = Database(StoreConfig(rowgroup_size=32, bulk_load_threshold=20, delta_close_rows=16))
    db.sql(
        "CREATE TABLE sales (id INT NOT NULL, region VARCHAR, "
        "amount DECIMAL(10,2), d DATE)"
    )
    db.bulk_load(
        "sales",
        [(i, f"r{i % 3}", 1.5 * i, f"2024-01-{i % 28 + 1:02d}") for i in range(100)],
    )
    db.insert("sales", [(1000 + i, "fresh", 9.99, "2024-06-01") for i in range(10)])
    db.sql("DELETE FROM sales WHERE id < 5")
    db.sql("CREATE TABLE notes (k INT, txt VARCHAR) USING rowstore")
    db.insert("notes", [(1, "alpha"), (2, None)])
    db.table("notes").create_index("by_k", ["k"])
    return db


class TestDatabasePersistence:
    def test_full_roundtrip(self, populated_db, tmp_path):
        target = tmp_path / "db"
        populated_db.save(str(target))
        reopened = Database.load(str(target))

        for query in (
            "SELECT COUNT(*) AS n FROM sales",
            "SELECT region, COUNT(*) AS n FROM sales GROUP BY region ORDER BY region",
            "SELECT SUM(amount) AS s FROM sales WHERE d >= '2024-06-01'",
            "SELECT COUNT(*) AS n FROM notes",
        ):
            assert reopened.sql(query).rows == populated_db.sql(query).rows

    def test_delta_and_bitmap_survive(self, populated_db, tmp_path):
        target = tmp_path / "db"
        populated_db.save(str(target))
        reopened = Database.load(str(target))
        original = populated_db.table("sales").columnstore
        restored = reopened.table("sales").columnstore
        assert restored.delta_rows == original.delta_rows
        assert restored.delete_bitmap.total_deleted == original.delete_bitmap.total_deleted
        assert restored.live_rows == original.live_rows

    def test_dml_continues_after_load(self, populated_db, tmp_path):
        target = tmp_path / "db"
        populated_db.save(str(target))
        reopened = Database.load(str(target))
        before = reopened.sql("SELECT COUNT(*) AS n FROM sales").scalar()
        reopened.sql("INSERT INTO sales VALUES (5000, 'new', 1.00, '2025-01-01')")
        reopened.sql("DELETE FROM sales WHERE region = 'r0'")
        after = reopened.sql("SELECT COUNT(*) AS n FROM sales").scalar()
        assert after < before + 1
        # Tuple mover still works on reopened delta stores.
        reopened.run_tuple_mover("sales", include_open=True)
        assert reopened.table("sales").columnstore.delta_rows == 0

    def test_archived_table_roundtrip(self, populated_db, tmp_path):
        populated_db.run_tuple_mover("sales", include_open=True)
        populated_db.set_archival("sales", True)
        target = tmp_path / "db"
        populated_db.save(str(target))
        reopened = Database.load(str(target))
        assert reopened.sql("SELECT COUNT(*) AS n FROM sales").rows == (
            populated_db.sql("SELECT COUNT(*) AS n FROM sales").rows
        )
        for group in reopened.table("sales").columnstore.directory.row_groups():
            assert group.archived

    def test_rowstore_index_rebuilt(self, populated_db, tmp_path):
        target = tmp_path / "db"
        populated_db.save(str(target))
        reopened = Database.load(str(target))
        index = reopened.table("notes").indexes["by_k"]
        assert len(list(index.seek_equal((1,)))) == 1


class TestStoreConfigSurvivesReopen:
    """A table's storage config is written whole, to the catalog and to
    the WAL's CREATE TABLE record, so reopening rebuilds the same table."""

    def test_replay_splits_row_groups_as_the_live_table_did(self, tmp_path):
        # A 2,000-byte dictionary cap splits the tuple mover's row groups;
        # replay under the default cap would not, and the DELETE's logged
        # locators would name groups that do not exist.
        config = StoreConfig(dictionary_size_limit=2000, rowgroup_size=4096, delta_close_rows=512)
        target = str(tmp_path / "db")
        db = Database.open(target, default_config=config)
        db.sql("CREATE TABLE t (a INT, s VARCHAR)")
        for i in range(600):
            db.sql(f"INSERT INTO t VALUES ({i}, '{i:025d}')")
        db.run_tuple_mover("t")
        db.sql("DELETE FROM t WHERE a >= 300 AND a < 310")
        groups = len(db.table("t").columnstore.directory)
        assert groups > 1
        db.close()
        reopened = Database.open(target)
        assert reopened.table("t").config == config
        assert len(reopened.table("t").columnstore.directory) == groups
        assert reopened.sql("SELECT COUNT(*) AS n FROM t").scalar() == 590
        reopened.close()

    @pytest.mark.parametrize("checkpoint", [False, True], ids=["wal", "catalog"])
    def test_every_field_comes_back(self, tmp_path, checkpoint):
        config = StoreConfig(rowgroup_size=64, segment_cache_bytes=1 << 20,
                             dictionary_size_limit=4096, archival=True)
        target = str(tmp_path / "db")
        db = Database.open(target, default_config=config)
        db.sql("CREATE TABLE t (a INT)")
        if checkpoint:
            db.save(target)
        db.close()
        reopened = Database.open(target)
        assert reopened.table("t").config == config
        assert reopened.table("t").columnstore.segment_cache is not None
        reopened.close()

    def test_old_records_with_btree_order_still_load(self):
        """Catalogs and CREATE_TABLE records of builds whose delta stores
        were B-trees carry ``btree_order``; compat reads them."""
        old = {**persist.config_to_json(StoreConfig(rowgroup_size=64)), "btree_order": 64}
        columns = persist.schema_to_json(schema(("a", types.INT)))
        record = json.dumps({"schema": columns, "storage": "columnstore", "config": old})
        decode = compat.CHANGES[WalRecordType.CREATE_TABLE].decode
        assert decode(None, "t", record.encode())[2] == StoreConfig(rowgroup_size=64)
        catalog = json.dumps([{"name": "t", "config": old}]).encode()
        (entry,) = json.loads(compat.current_file("snap_000001/catalog.json", catalog))
        assert persist.config_from_json(entry["config"]) == StoreConfig(rowgroup_size=64)
        with pytest.raises(TypeError, match="btree_order"):
            persist.config_from_json(old)
