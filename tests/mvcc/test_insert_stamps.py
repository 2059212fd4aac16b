"""One commit stamp per (transaction, delta store).

A transaction's inserts into a delta store register one hook holding the
row-id span they were given there; at commit it stamps the span's
PENDING slots with the epoch. These tests drive the two cases a span has
to survive: a statement rolled back inside ``BEGIN … COMMIT`` (its row
ids are handed out again) across a delta store closing, and two sessions
committing to disjoint tables at the same time.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import Database, StoreConfig
from repro.concurrency import ConcurrentDatabase
from repro.mvcc import PENDING_EPOCH, EpochManager
from repro.storage.deltastore import DeltaStore

CONFIG = StoreConfig(bulk_load_threshold=1000, delta_close_rows=8)


def _insert_epochs(db: Database, table: str) -> dict[int, int]:
    """Row id -> insert epoch of every row in the table's delta stores."""
    epochs = {}
    for store in db.catalog.table(table).columnstore.delta_stores():
        n = store.physical_row_count
        ids = store._buffers.row_ids[:n].tolist()
        epochs.update(zip(ids, store._buffers.inserted[:n].tolist()))
    return epochs


@pytest.fixture
def hooks_per_commit(monkeypatch):
    """How many stamp hooks each epoch commit ran."""
    counts: list[int] = []
    original = EpochManager.commit

    def spy(self, finalizers):
        finalizers = list(finalizers)
        counts.append(len(finalizers))
        return original(self, finalizers)

    monkeypatch.setattr(EpochManager, "commit", spy)
    return counts


class _FailingInsert(Exception):
    pass


def test_a_statement_rolled_back_inside_a_transaction(monkeypatch, hooks_per_commit):
    db = Database(CONFIG)
    db.sql("CREATE TABLE t (k INT NOT NULL, v INT)")
    db.sql("INSERT INTO t VALUES (0, 0)")  # autocommit: its own epoch
    before = db.mvcc.current
    db.sql("BEGIN")
    db.sql("INSERT INTO t VALUES (1, 1), (2, 2), (3, 3)")

    calls = []
    original = DeltaStore.insert

    def third_insert_fails(self, *args, **kwargs):
        calls.append(args[0])
        if len(calls) == 3:
            raise _FailingInsert("injected")
        return original(self, *args, **kwargs)

    monkeypatch.setattr(DeltaStore, "insert", third_insert_fails)
    with pytest.raises(_FailingInsert):
        db.sql("INSERT INTO t VALUES (90, 0), (91, 0), (92, 0), (93, 0)")
    monkeypatch.setattr(DeltaStore, "insert", original)
    assert calls == [4, 5, 6]  # rows 4 and 5 went in and were taken out
    assert sorted(_insert_epochs(db, "t")) == [0, 1, 2, 3]

    # The ids come round again; the store closes at 8 rows, so 8 and 9
    # open a second one.
    db.sql("INSERT INTO t VALUES (4, 4), (5, 5), (6, 6), (7, 7), (8, 8), (9, 9)")
    stores = db.catalog.table("t").columnstore.delta_stores()
    assert [s.physical_row_count for s in stores] == [8, 2]
    assert set(_insert_epochs(db, "t").values()) == {before, PENDING_EPOCH}
    hooks_per_commit.clear()
    db.sql("COMMIT")
    committed = db.mvcc.current
    assert hooks_per_commit == [2]  # one per delta store, not one per row
    assert _insert_epochs(db, "t") == {0: before, **dict.fromkeys(range(1, 10), committed)}
    at_commit = [row[0] for row in db.sql("SELECT k FROM t ORDER BY k").rows]
    assert at_commit == list(range(10))
    assert stores[0].capture(before).row_count == 1
    assert stores[0].capture(committed).row_count + stores[1].capture(committed).row_count == 10


def test_two_sessions_commit_to_disjoint_tables_at_once(hooks_per_commit):
    cdb = ConcurrentDatabase(Database(StoreConfig(bulk_load_threshold=1000, delta_close_rows=32)))
    for table in ("a", "b"):
        cdb.sql(f"CREATE TABLE {table} (k INT NOT NULL, v INT)")
    start = threading.Barrier(2)
    errors: list[BaseException] = []

    def writer(table: str) -> None:
        try:
            session = cdb.session(table)
            start.wait()
            for block in range(12):
                if block % 3 == 0:  # a block of eight rows, one commit
                    session.sql("BEGIN")
                    for k in range(8):
                        session.sql(f"INSERT INTO {table} VALUES ({block * 100 + k}, {k})")
                    session.sql("COMMIT")
                else:
                    session.sql(
                        f"INSERT INTO {table} VALUES ({block * 100}, 0), ({block * 100 + 1}, 1)"
                    )
            session.close()
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(t,)) for t in ("a", "b")]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, errors
    db = cdb.db
    for table in ("a", "b"):
        epochs = np.array(list(_insert_epochs(db, table).values()))
        assert epochs.size == 4 * 8 + 8 * 2
        assert (epochs > 0).all() and (epochs <= db.mvcc.current).all()
        # Four transactions and eight autocommit statements a table, each
        # its own commit: twelve distinct epochs.
        assert np.unique(epochs).size == 12
        assert cdb.sql(f"SELECT COUNT(*) FROM {table}").rows[0][0] == 48
    # Every commit ran one hook a delta store it wrote to (a block of
    # eight may close a 32-row store and open the next).
    assert hooks_per_commit and max(hooks_per_commit) <= 2
