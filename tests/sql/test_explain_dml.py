"""EXPLAIN [ANALYZE] of a DELETE or UPDATE: the plans it reads through.

A DELETE or UPDATE compiles like a SELECT: a scan of the table with the
WHERE predicate emitting the matching rows' addresses (``__rid__``) and,
for an UPDATE, a projection of the SET expressions. EXPLAIN prints those
plans without running them; EXPLAIN ANALYZE applies the write, as
PostgreSQL does, and reports what its operators did.
"""

import pytest

from repro import Database, StoreConfig
from repro.concurrency import ConcurrentDatabase


@pytest.fixture
def db():
    database = Database(StoreConfig(rowgroup_size=64, bulk_load_threshold=50))
    database.sql("CREATE TABLE t (k INT NOT NULL, v INT, s VARCHAR)")
    database.bulk_load("t", [(i, i % 10, f"s{i % 4}") for i in range(256)])
    database.insert("t", [(1000 + i, i, "tail") for i in range(5)])
    return database


def text(result) -> str:
    assert result.columns == ["plan"]
    return "\n".join(line for (line,) in result.rows)


def test_explain_delete_prints_the_scan_with_its_predicate(db):
    plan = text(db.sql("EXPLAIN DELETE FROM t WHERE k = 7"))
    assert "Scan(t, columnstore, predicate=(k = 7))" in plan
    assert "ColumnStoreScan(cols=['__rid__'], predicate=(k = 7))" in plan
    assert db.sql("SELECT COUNT(*) FROM t").scalar() == 261  # not run


def test_explain_update_prints_the_projection_over_the_scan(db):
    plan = text(db.sql("EXPLAIN UPDATE t SET v = v + 1 WHERE s = 's1'"))
    assert "Project(__rid__=__rid__, k=k, v=(v + 1), s=s)" in plan
    assert "BatchProject(__rid__=__rid__, k=k, v=(v + 1), s=s)" in plan
    assert "ColumnStoreScan(cols=['k', 'v', 's', '__rid__'], predicate=(s = 's1'))" in plan
    assert db.sql("SELECT SUM(v) FROM t").scalar() == 1140 + 10


def test_set_mode_row_shows_row_operators(db):
    db.sql("SET mode = row")
    delete = text(db.sql("EXPLAIN DELETE FROM t WHERE k = 7"))
    update = text(db.sql("EXPLAIN UPDATE t SET v = 0 WHERE k < 3"))
    assert "physical (row mode)" in delete
    assert "RowColumnStoreScan(cols=['__rid__'], predicate=(k = 7))" in delete
    assert "RowProject(" in update and "RowColumnStoreScan(" in update
    assert "Batch" not in delete + update and "\nColumnStoreScan" not in delete
    db.sql("SET mode = DEFAULT")
    assert "physical (batch mode)" in text(db.sql("EXPLAIN DELETE FROM t WHERE k = 7"))


def test_explain_analyze_update_reports_the_scan_and_applies_it(db):
    plan = text(db.sql("EXPLAIN ANALYZE UPDATE t SET v = 100 WHERE s = 's2'"))
    assert "executed in" in plan
    assert "rows_emitted=64" in plan  # the scan found the 64 's2' rows
    assert "storage.scan.rows_scanned=261" in plan
    assert db.sql("SELECT COUNT(*) FROM t WHERE v = 100").scalar() == 64
    assert db.sql("SELECT COUNT(*) FROM t").scalar() == 261


def test_explain_analyze_delete_in_row_mode(db):
    plan = text(db.sql("EXPLAIN ANALYZE DELETE FROM t WHERE k >= 1000", mode="row"))
    assert "(row mode)" in plan and "RowColumnStoreScan" in plan
    assert db.sql("SELECT COUNT(*) FROM t").scalar() == 256


def test_a_both_storage_table_explains_one_plan_per_storage(db):
    db.sql("CREATE TABLE b (id INT NOT NULL, tag VARCHAR) USING both")
    db.sql("INSERT INTO b VALUES (1, 'x'), (2, 'y'), (3, 'x')")
    plan = text(db.sql("EXPLAIN UPDATE b SET tag = 'z' WHERE tag = 'x'"))
    assert "Scan(b, rowstore, predicate=(tag = 'x'))" in plan
    assert "Scan(b, columnstore, predicate=(tag = 'x'))" in plan
    assert "RowTableScan(cols=['id', 'tag', '__rid__'], predicate=(tag = 'x'))" in plan
    analyzed = text(db.sql("EXPLAIN ANALYZE DELETE FROM b WHERE tag = 'x'"))
    assert analyzed.count("executed in") == 2
    assert db.sql("SELECT id FROM b").rows == [(2,)]


def test_explain_analyze_is_a_write_in_a_session(db):
    session = ConcurrentDatabase(db).session()
    try:
        plan = text(session.sql("EXPLAIN ANALYZE DELETE FROM t WHERE k < 10"))
        assert "rows_emitted=10" in plan
        assert session.sql("SELECT COUNT(*) FROM t").scalar() == 251
        assert "ColumnStoreScan" in text(session.sql("EXPLAIN DELETE FROM t WHERE k < 20"))
        assert session.sql("SELECT COUNT(*) FROM t").scalar() == 251
    finally:
        session.close()
