"""Every kind of logged change survives a reopen exactly.

One script runs every change the WAL records — CREATE TABLE / INDEX,
INSERT, bulk loads above and below the threshold, DELETE, UPDATE, in
autocommit and in ``BEGIN … COMMIT`` / ``ROLLBACK`` blocks, the tuple
mover (closed deltas, then the open one too), REBUILD, archival on and
off, and DROP — on a columnstore, a row-store and a BOTH table, with a
checkpoint midway. The live database is then abandoned without a save,
and the reopened one (snapshot + replayed tail) must hold every table
exactly: compared as multisets, floats by their bits.

A log whose change cannot apply — a DELETE of a row already deleted, a
second CREATE INDEX of one name — must fail recovery at that record's
LSN.
"""

import struct
from collections import Counter

import pytest

from repro import Database, StoreConfig, schema, types
from repro.errors import CatalogError, ReplayError, StorageError
from repro.exec.batch import RID_COLUMN
from repro.planner.logical import LogicalScan

CONFIG = StoreConfig(rowgroup_size=32, bulk_load_threshold=20, delta_close_rows=16)
SCHEMA = schema(
    ("id", types.INT, False),
    ("grp", types.VARCHAR),
    ("amount", types.FLOAT),
    ("price", types.decimal(2)),
)
KINDS = ("columnstore", "rowstore", "both")


def _rows(first: int, count: int) -> list[tuple]:
    return [
        (i, f"g{i % 4}", i * 0.1 + 1 / 3, i % 50 + 0.25) for i in range(first, first + count)
    ]


def _insert_sql(table: str, first: int, count: int) -> list[str]:
    return [
        f"INSERT INTO {table} VALUES ({i}, 'g{i % 4}', {i * 0.7 + 0.1}, {i % 9}.5)"
        for i in range(first, first + count)
    ]


def run_script(db: Database, path: str) -> None:
    """Every kind of logged change, with a checkpoint midway."""
    for kind in KINDS:
        name = f"t_{kind}"
        db.create_table(name, SCHEMA, storage=kind)
        if kind != "columnstore":
            db.create_index(name, "ix_grp", ["grp"])
        db.bulk_load(name, _rows(0, 48))  # above the threshold
        db.bulk_load(name, _rows(100, 5))  # below: trickle inserts
        for sql in _insert_sql(name, 200, 6):
            db.sql(sql)
        db.sql(f"DELETE FROM {name} WHERE id < 3 OR id = 102")
        db.sql(f"UPDATE {name} SET amount = amount * 3, price = price + 1 WHERE grp = 'g2'")
    db.save(path)  # the checkpoint: everything below replays from the log

    for kind in KINDS:
        name = f"t_{kind}"
        if kind != "columnstore":
            db.create_index(name, "ix_id", ["id"])
            with pytest.raises(CatalogError):
                db.create_index(name, "ix_id", ["amount"])
        db.sql("BEGIN")
        for sql in _insert_sql(name, 300, 4):
            db.sql(sql)
        db.sql(f"UPDATE {name} SET grp = 'moved' WHERE id = 10 OR id = 301")
        db.sql(f"DELETE FROM {name} WHERE id = 11")
        db.sql("COMMIT")
        db.sql("BEGIN")
        db.sql(f"INSERT INTO {name} VALUES (400, 'gone', 0.5, 1.0)")
        db.sql(f"DELETE FROM {name} WHERE id = 12")
        db.sql(f"UPDATE {name} SET amount = 0 WHERE id = 13")
        db.sql("ROLLBACK")
        if kind == "rowstore":
            continue
        db.run_tuple_mover(name)
        for sql in _insert_sql(name, 500, 5):
            db.sql(sql)
        db.run_tuple_mover(name, include_open=True)  # the open delta moves too
        db.sql(f"DELETE FROM {name} WHERE id = 501")  # addresses a moved row
        db.sql(f"UPDATE {name} SET price = 7.75 WHERE id = 502")
        if kind == "columnstore":
            db.rebuild(name)
            db.sql(f"DELETE FROM {name} WHERE id = 20")
        db.set_archival(name, True)
        db.sql(f"UPDATE {name} SET amount = -1.5 WHERE id = 21")
        db.bulk_load(name, _rows(600, 40))
        db.set_archival(name, False)
        db.sql(f"DELETE FROM {name} WHERE id = 610")
    db.create_table("dropped", SCHEMA, storage="both")
    db.insert("dropped", _rows(0, 3))
    db.drop_table("dropped")


def _bits(value):
    return struct.pack("<d", value) if isinstance(value, float) else value


def contents(db: Database) -> dict:
    """Each table's rows as a multiset (floats by bits) and its indexes."""
    return {
        name: (
            Counter(tuple(map(_bits, row)) for row in db.sql(f"SELECT * FROM {name}").rows),
            sorted(db.table(name).indexes),
        )
        for name in db.catalog.table_names()
    }


def test_every_change_replays_to_the_live_tables(tmp_path):
    path = str(tmp_path / "db")
    live = Database.open(path, default_config=CONFIG)
    run_script(live, path)
    expected = contents(live)
    assert sorted(expected) == sorted(f"t_{kind}" for kind in KINDS)
    live.close()  # no save: the reopened state is the snapshot + the replayed tail
    reopened = Database.open(path, default_config=CONFIG)
    assert contents(reopened) == expected
    reopened.close()


def _logging(db: Database, monkeypatch) -> list:
    logged = []
    original = db._log_change

    def capture(rtype, table, payload):
        logged.append((rtype, table, payload))
        original(rtype, table, payload)

    monkeypatch.setattr(db, "_log_change", capture)
    return logged


def _fails_at_relogged(tmp_path, monkeypatch, setup, change) -> None:
    """Run ``change`` once, log its record a second time, and require
    recovery to fail with a ReplayError naming the second record."""
    path = str(tmp_path / "db")
    db = Database.open(path, default_config=CONFIG)
    setup(db)
    logged = _logging(db, monkeypatch)
    change(db)
    [(rtype, table, payload)] = logged
    db.wal.log_statement(rtype, table, payload)
    lsn = db.wal.last_lsn
    db.close()
    with pytest.raises(ReplayError, match=rf"LSN {lsn} \({rtype.name} on {table}\)"):
        Database.open(path)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("statement", ["DELETE FROM t WHERE id = 5",
                                       "UPDATE t SET amount = 2.5 WHERE id = 5"])
def test_an_address_whose_row_is_gone_fails_recovery_at_its_lsn(
    tmp_path, monkeypatch, kind, statement
):
    def setup(db):
        db.create_table("t", SCHEMA, storage=kind)
        db.bulk_load("t", _rows(0, 40))
        db.insert("t", _rows(100, 3))

    _fails_at_relogged(tmp_path, monkeypatch, setup, lambda db: db.sql(statement))


def test_a_second_create_index_of_a_name_fails_recovery_at_its_lsn(tmp_path, monkeypatch):
    def setup(db):
        db.create_table("t", SCHEMA, storage="rowstore")

    _fails_at_relogged(
        tmp_path, monkeypatch, setup, lambda db: db.create_index("t", "ix", ["grp"])
    )


def _addresses(db: Database, storage: str) -> list:
    if getattr(db.table("t"), storage) is None:
        return []
    plan = LogicalScan("t", {"id": "id", RID_COLUMN: RID_COLUMN}, None, storage)
    return [address for _id, address in sorted(db.execute(plan).rows)]


@pytest.mark.parametrize("kind", KINDS)
def test_a_statement_whose_address_deletes_nothing_rolls_back(kind):
    db = Database(CONFIG)
    db.create_table("t", SCHEMA, storage=kind)
    db.insert("t", _rows(0, 4))
    rids, locators = _addresses(db, "rowstore"), _addresses(db, "columnstore")
    db.sql("DELETE FROM t WHERE id = 3")  # the last address of each storage
    before = contents(db)
    with pytest.raises(StorageError, match="already deleted"):
        with db._atomic_statement() as txn:
            db.table("t").delete_rows(rids, locators, txn)
    assert contents(db) == before
