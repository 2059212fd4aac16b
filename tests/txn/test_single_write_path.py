"""Storage changes rows one way: inside a transaction context.

Every storage mutator takes the context it records undo and commit
stamps into; outside ``BEGIN`` that context is the autocommit scope
(:func:`repro.txn.autocommit`). One test runs each kind of row change —
trickle insert, bulk load above and below the threshold, delete of a
compressed-group row and of a delta row — on every storage kind, and
checks the two promises of the scope:

* MVCC: a reader lease pinned before the scope does not see the change;
  one pinned after it does (through the columnstore, the versioned
  storage; a bare row-store heap has no versions to pin);
* atomicity: an exception inside the scope leaves the physical state —
  next row id, delta ids, group ids, global-dictionary lengths, heap
  pages, bitmaps — exactly as it was (``fingerprint_db``).
"""

import pytest

from repro import Database, StoreConfig
from repro.db.catalog import StorageKind
from repro.mvcc import PENDING_EPOCH
from repro.storage.columnstore import DELTA, GROUP, RowLocator
from repro.txn import autocommit

from .conftest import fingerprint_db

_CONFIG = StoreConfig(rowgroup_size=16, bulk_load_threshold=8, delta_close_rows=8)
GROUP_ROW, DELTA_ROW = 3, 101


def seeded(storage: StorageKind) -> Database:
    """ids 0..15 compressed into one row group, 100..102 in a delta store."""
    db = Database(_CONFIG)
    db.sql(f"CREATE TABLE t (id INT NOT NULL, tag VARCHAR) USING {storage.value}")
    db.bulk_load("t", [(i, f"g{i % 4}") for i in range(16)])
    if storage is StorageKind.BOTH:  # its bulk load trickles: compress it
        db.run_tuple_mover("t", include_open=True)
    db.insert("t", [(i, "d") for i in range(100, 103)])
    return db


def addresses(table, key: int) -> tuple[list, list]:
    """The row-store rid and columnstore locator of the row ``id = key``."""
    rids = [rid for rid, row in table.rowstore.scan() if row[0] == key] if table.rowstore else []
    locators = []
    if table.columnstore is not None:
        units = table.columnstore.pin_scan_units(PENDING_EPOCH)
        locators = [
            RowLocator(*address)
            for address, row in table.columnstore.iter_unit_rows(units)
            if row[0] == key
        ]
    return rids, locators


def ids_at(table, epoch: int) -> list[int]:
    units = table.columnstore.pin_scan_units(epoch)
    return sorted(row[0] for _, row in table.columnstore.iter_unit_rows(units))


def trickle_insert(table, txn) -> None:
    table.insert_physical_rows([(200, "new")], txn)


def bulk_load_above(table, txn) -> None:
    rows = [(200 + i, f"b{i}") for i in range(12)]
    table.bulk_load_physical(table.schema.coerce_columns(rows), txn)


def bulk_load_below(table, txn) -> None:
    rows = [(200 + i, f"s{i}") for i in range(3)]
    table.bulk_load_physical(table.schema.coerce_columns(rows), txn)


def delete_group_row(table, txn) -> None:
    rids, locators = addresses(table, GROUP_ROW)
    assert all(locator.kind == GROUP for locator in locators)
    table.delete_rows(rids, locators, txn)


def delete_delta_row(table, txn) -> None:
    rids, locators = addresses(table, DELTA_ROW)
    assert all(locator.kind == DELTA for locator in locators)
    table.delete_rows(rids, locators, txn)


CHANGES = {
    trickle_insert: ({200}, set()),
    bulk_load_above: (set(range(200, 212)), set()),
    bulk_load_below: (set(range(200, 203)), set()),
    delete_group_row: (set(), {GROUP_ROW}),
    delete_delta_row: (set(), {DELTA_ROW}),
}


class Boom(Exception):
    pass


@pytest.mark.parametrize("storage", list(StorageKind), ids=lambda s: s.value)
@pytest.mark.parametrize("change", list(CHANGES), ids=lambda f: f.__name__)
def test_a_row_change_commits_at_its_own_epoch_or_not_at_all(change, storage):
    db = seeded(storage)
    table = db.table("t")
    added, removed = CHANGES[change]

    before = fingerprint_db(db)
    with pytest.raises(Boom):
        with autocommit(db.mvcc) as txn:
            change(table, txn)
            raise Boom
    assert fingerprint_db(db) == before

    old = db.mvcc.readers.pin(tag="before")
    with autocommit(db.mvcc) as txn:
        change(table, txn)
    new = db.mvcc.readers.pin(tag="after")
    if table.columnstore is not None:
        assert new.epoch == old.epoch + 1
        seen = set(ids_at(table, old.epoch))
        assert set(ids_at(table, new.epoch)) == (seen | added) - removed
        assert not added & seen and removed <= seen
    if table.rowstore is not None:
        ids = {row[0] for _, row in table.rowstore.scan()}
        assert added <= ids and not removed & ids
    old.release()
    new.release()
