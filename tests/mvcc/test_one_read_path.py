"""Every columnstore read is a capture at an epoch.

A session outside a transaction reads at its reader lease's epoch; a
single caller, or a session inside the transaction that wrote the data,
reads at ``PENDING_EPOCH`` — every committed version plus its own
pending ones. Either way a scan captures its units
(``ColumnStoreIndex.pin_scan_units``) at its first batch, not at
compile, so what runs between the two must not show through: the lease
that chose the epoch keeps every version visible at it from vacuum.
"""

import pytest

from repro import Database, StoreConfig, schema, types
from repro.concurrency import ConcurrentDatabase
from repro.settings import resolve
from repro.sql.runner import plan_query, prepare, run_physical

CONFIG = StoreConfig(rowgroup_size=64, bulk_load_threshold=40, delta_close_rows=32)
QUERY = "SELECT COUNT(*) AS n, SUM(v) AS s, MIN(id) AS lo, MAX(id) AS hi FROM t"
MODES = ["batch", "row"]
# id -> v of the rows the fixture leaves visible.
BASE = {i: i for i in range(230) if i % 10}


def answer(rows: dict[int, int]) -> list[tuple]:
    """What QUERY returns over ``rows`` (id -> v)."""
    return [(len(rows), sum(rows.values()), min(rows), max(rows))]


@pytest.fixture
def cdb():
    """Four row groups (ids 0..199), an open delta store (200..229), and
    every tenth row deleted from both."""
    db = Database(CONFIG)
    db.create_table("t", schema(("id", types.INT, False), ("v", types.INT)))
    db.bulk_load("t", [(i, i) for i in range(200)])
    db.insert("t", [(i, i) for i in range(200, 230)])
    db.sql("DELETE FROM t WHERE id % 10 = 0")
    with ConcurrentDatabase(db) as cdb:
        yield cdb


@pytest.mark.parametrize("mode", MODES)
def test_a_prepared_select_reads_its_epoch_whatever_runs_before_its_first_batch(cdb, mode):
    reader, writer = cdb.session("reader"), cdb.session("writer")
    epoch = reader.hold_snapshot()
    settings = resolve(cdb.db.settings, reader.settings, {"mode": mode})
    physical, lock_free = prepare(cdb.db, plan_query(cdb.db, QUERY), epoch, settings)
    assert lock_free
    # Between compile and the first batch: DML, the tuple mover, REBUILD
    # and vacuum, every one committed after the epoch.
    writer.sql("DELETE FROM t WHERE id < 100")
    writer.sql("INSERT INTO t VALUES (1000, 1000)")
    cdb.run_tuple_mover("t", include_open=True)
    cdb.rebuild("t")
    cdb.vacuum("t")
    index = cdb.db.table("t").columnstore
    assert sum(index.retired_counts) > 0  # the lease held them back
    assert run_physical(reader, physical, lock_free)[0] == answer(BASE)
    now = {i: v for i, v in BASE.items() if i >= 100} | {1000: 1000}
    assert writer.sql(QUERY, mode=mode).rows == answer(now)
    reader.release_snapshot()


def _own_writes(cdb, door: str) -> tuple:
    """BEGIN, then a DELETE of row-group rows and of delta rows, an
    INSERT and a bulk load (a row group born pending), through ``door``:
    (run a statement, end the transaction)."""
    if door == "database":
        db = cdb.db
        db.begin()
        run, end = db.sql, db.rollback
    else:
        session = cdb.session("writer")
        session.sql("BEGIN")
        run, end = session.sql, lambda: session.sql("ROLLBACK")
    run("DELETE FROM t WHERE id < 50")
    run("DELETE FROM t WHERE id >= 220")
    run("INSERT INTO t VALUES (500, 500)")
    # The open transaction is the database's one: the load joins it.
    cdb.db.bulk_load("t", [(i, 2 * i) for i in range(1000, 1040)])
    return run, end


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("door", ["database", "session"])
def test_a_transaction_reads_its_own_pending_writes(cdb, door, mode):
    outside = cdb.session("outside")
    run, end = _own_writes(cdb, door)
    groups = list(cdb.db.table("t").columnstore.directory.row_groups())
    assert len(groups) == 5  # the bulk load's group, still pending
    mine = {i: v for i, v in BASE.items() if 50 <= i < 220}
    mine |= {500: 500} | {i: 2 * i for i in range(1000, 1040)}
    assert run(QUERY, mode=mode).rows == answer(mine)
    # A lease reader sees none of it, in either engine.
    assert outside.sql(QUERY, mode=mode).rows == answer(BASE)
    end()
    assert run(QUERY, mode=mode).rows == answer(BASE)
