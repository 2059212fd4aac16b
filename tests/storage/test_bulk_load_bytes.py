"""A bulk load coerced and compressed as columns writes the bytes a
row-by-row load writes, and logs the blobs it wrote.

The reference path is each row through ``coerce_row``, the rows compressed
by ``BulkLoader.load_rows`` and logged as ``persist.serialize_rows``. On the
benchmark suite's star tables and its ``kv`` table (small), and on a table
of every type holding NULLs:

* every segment blob ``Database.bulk_load`` leaves equals the reference's,
  and its one ROW_GROUPS record names exactly those blobs, in the pool;
* a BULK_LOAD record holding the reference's payload replays to the same
  row groups (logs written row by row replay unchanged);
* the BULK_LOAD payload the column writer of older builds logged (the
  one in ``tests/wal/old_log``) is the row path's payload for its rows.
"""

from __future__ import annotations

import datetime
import importlib.util
import sys
from pathlib import Path

import pytest

from repro import Database, StoreConfig, schema, types
from repro.storage import compat, persist
from repro.storage.blob import serialize_segment
from repro.storage.columnstore import ColumnStoreIndex
from repro.wal.log import WAL_DIR_NAME
from repro.wal.record import WalRecord, WalRecordType, logged_blobs, scan_segment
from repro.wal.replay import apply_records

SUITE_INPUTS = Path(__file__).parents[2] / "benchmarks" / "suite" / "inputs.py"
OLD_LOG = Path(__file__).parents[1] / "wal" / "old_log"
CONFIG = StoreConfig(rowgroup_size=2048, bulk_load_threshold=1)


def _suite_inputs():
    spec = importlib.util.spec_from_file_location("suite_inputs", SUITE_INPUTS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look themselves up
    spec.loader.exec_module(module)
    return module


def _mixed_rows(n: int) -> list[tuple]:
    """Every kind, NULLs in every nullable column, numpy-free user values."""
    base = datetime.date(2020, 1, 1)
    rows = []
    for i in range(n):
        rows.append((
            i,
            None if i % 7 == 0 else i * 3 - 50,
            None if i % 5 == 0 else (i * 0.37 if i % 2 else i),
            None if i % 11 == 0 else f"s{i % 13}",
            None if i % 3 == 0 else (base + datetime.timedelta(days=i % 400)).isoformat(),
            None if i % 4 == 0 else i / 8,
            None if i % 9 == 0 else i % 2 == 0,
            2**40 + i,
        ))
    return rows


MIXED = schema(
    ("id", types.INT, False),
    ("a", types.INT),
    ("f", types.FLOAT),
    ("s", types.varchar(4)),
    ("d", types.DATE),
    ("m", types.decimal(3)),
    ("b", types.BOOL),
    ("big", types.BIGINT, False),
)


def _loads() -> list[tuple[str, str, list[tuple]]]:
    """(table, CREATE TABLE statement, user rows) of every load."""
    inputs = _suite_inputs()
    star = inputs.star_rows(5000, 1)
    loads = [
        (name, inputs.create_table_sql(name, columns), star[name])
        for name, columns in inputs.STAR_TABLES.items()
    ]
    loads.append(("kv", inputs.create_table_sql("kv", inputs.KV_TABLE), inputs.kv_rows(5000, 1)))
    loads.append(("mixed", None, _mixed_rows(3000)))
    return loads


LOADS = _loads()


def _create(db: Database, name: str, create_sql: str | None) -> None:
    if create_sql is None:
        db.create_table(name, MIXED)
    else:
        db.sql(create_sql)


def _blobs(index: ColumnStoreIndex) -> dict[tuple[int, str], bytes]:
    return {
        (group.group_id, column): serialize_segment(segment)
        for group in index.directory.row_groups()
        for column, segment in group.segments.items()
    }


def _reference(sch, rows):
    """The row path: coerced rows, their row groups' blobs, their payload."""
    physical = [sch.coerce_row(row) for row in rows]
    index = ColumnStoreIndex(sch, CONFIG)
    index.loader.load_rows(physical)
    return _blobs(index), persist.serialize_rows(sch, physical)


def _logged(root: Path, rtype: WalRecordType) -> list[WalRecord]:
    records = []
    for path in sorted((root / WAL_DIR_NAME).glob("seg_*.wal")):
        first_lsn = int(path.stem.split("_")[1])
        scan = scan_segment(path.read_bytes(), first_lsn)
        records += [r for r in scan.records if r.rtype is rtype]
    return records


@pytest.mark.parametrize("name, create_sql, rows", LOADS, ids=[load[0] for load in LOADS])
def test_blobs_and_payload_equal_the_row_path(tmp_path, name, create_sql, rows):
    root = tmp_path / "db"
    db = Database.open(str(root), default_config=CONFIG)
    _create(db, name, create_sql)
    db.bulk_load(name, rows)
    table = db.table(name)
    want_blobs, _payload = _reference(table.schema, rows)
    assert len(want_blobs) >= len(table.schema)
    assert _blobs(table.columnstore) == want_blobs
    db.close()
    assert _logged(root, WalRecordType.BULK_LOAD) == []
    [record] = _logged(root, WalRecordType.ROW_GROUPS)
    named = sorted((root / path).read_bytes() for path in logged_blobs([record]))
    assert named == sorted(want_blobs.values())


@pytest.mark.parametrize("name, create_sql, rows", LOADS, ids=[load[0] for load in LOADS])
def test_a_row_path_record_replays_to_the_same_row_groups(name, create_sql, rows):
    db = Database(CONFIG)
    _create(db, name, create_sql)
    sch = db.table(name).schema
    want_blobs, payload = _reference(sch, rows)
    record = WalRecord(lsn=1, rtype=WalRecordType.BULK_LOAD, table=name, payload=payload)
    assert apply_records(db, [record]) == 1
    assert _blobs(db.table(name).columnstore) == want_blobs


@pytest.mark.parametrize("storage", ["columnstore", "rowstore", "both"])
def test_a_small_load_and_a_heap_take_the_rows_the_row_path_takes(storage):
    """Below the threshold (delta store) and on row-store heaps the load
    is applied as rows: the same rows, NULLs included."""
    rows = _mixed_rows(40)
    db = Database(StoreConfig(bulk_load_threshold=1000))
    db.create_table("mixed", MIXED, storage)
    db.bulk_load("mixed", rows)
    want = Database(StoreConfig(bulk_load_threshold=1000))
    want.create_table("mixed", MIXED, storage)
    want.insert("mixed", rows)
    query = "SELECT * FROM mixed ORDER BY id"
    assert repr(db.sql(query).rows) == repr(want.sql(query).rows)


def test_the_old_column_payload_is_the_row_path_payload():
    """The BULK_LOAD payload older builds wrote column by column carries the
    bytes ``serialize_rows`` writes for the same rows, and reads back as
    those rows."""
    spec = importlib.util.spec_from_file_location("make_old_log", OLD_LOG / "make_log.py")
    maker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(maker)
    segment = OLD_LOG / "seg_000000000001.wal"
    records = compat.scan_segment(segment.read_bytes(), 1).records  # an earlier build's frames
    [load] = [r for r in records if r.rtype is WalRecordType.BULK_LOAD]
    db = Database()
    db.sql(maker.CREATE)
    sch = db.table("t").schema
    physical = [sch.coerce_row(maker.row(i)) for i in range(600)]
    assert load.payload == persist.serialize_rows(sch, physical)
    columns = persist.deserialize_columns(sch, load.payload)
    assert repr(list(columns.rows())) == repr(persist.deserialize_rows(sch, load.payload))
