"""Integer arithmetic and integer SUM / AVG past BIGINT's range.

Both engines raise ``ExecutionError`` (arithmetic overflow), as SQL Server
does, where batch mode used to wrap at int64 and the row engine to answer
with a Python integer past the range. A result at either end of the range
still answers, and every arm answers it alike. A row that does not
qualify, or whose result is NULL, never raises.
"""

from __future__ import annotations

import pytest

from repro import Database, StoreConfig
from repro.bench.harness import ARMS, REFERENCE, Failure, answer, same_answers
from repro.errors import ExecutionError

TOP, BOTTOM = 2**63 - 1, -(2**63)
# Every way of running a statement: batch mode (the reference settings),
# the row engine, each switch off, three-row batches and spilling.
_WAYS = [("batch", REFERENCE)] + [
    (arm.name, {**REFERENCE, **arm.settings}) for arm in ARMS if arm.name != "shape hit"
]


def _table(values, keys=None) -> Database:
    """``t(k, g, v BIGINT)``, ``g`` cycling through 0, 1, 2 unless
    ``keys`` are given: row groups of 64 rows, compressed once there are
    10 rows (in a delta store below that)."""
    db = Database(StoreConfig(rowgroup_size=64, bulk_load_threshold=10))
    db.sql("CREATE TABLE t (k INT NOT NULL, g INT, v BIGINT)")
    keys = keys or [i % 3 for i in range(len(values))]
    db.bulk_load("t", list(zip(range(len(values)), keys, values)))
    return db


def _raises_everywhere(db: Database, sql: str) -> None:
    for way, settings in _WAYS:
        got = answer(db, sql, **settings)
        assert isinstance(got, Failure) and got.error is ExecutionError, (way, got)
        assert "arithmetic overflow" in got.message, (way, got)


@pytest.mark.parametrize("sql", [
    "SELECT SUM(v) FROM t",
    "SELECT AVG(v) FROM t",
    "SELECT COUNT(*), SUM(v) FROM t WHERE k >= 0",
    "SELECT g, SUM(v) FROM t GROUP BY g",
    "SELECT g, COUNT(*), AVG(v) FROM t GROUP BY g",
])
def test_a_sum_past_bigint_raises_in_both_engines(sql):
    _raises_everywhere(_table([2**62] * 200), sql)


def _runs(values) -> Database:
    """``t`` of one 1,024-row group, ``g`` one run of 100 rows a value."""
    db = Database(StoreConfig(rowgroup_size=1024, bulk_load_threshold=10))
    db.sql("CREATE TABLE t (k INT NOT NULL, g INT NOT NULL, v BIGINT)")
    db.bulk_load("t", [(i, i // 100, v) for i, v in enumerate(values)])
    return db


def test_a_sum_over_runs_raises_past_bigint_and_answers_at_its_end():
    sql = "SELECT g, SUM(v) AS s FROM t GROUP BY g"
    db = _runs(([2**62, 2**62 - 1] + [0] * 98) * 3)
    assert db.sql(sql, stats=True).stats.counter("storage.scan.agg_runs_processed") == 3
    assert sorted(db.sql(sql).rows) == [(g, TOP) for g in range(3)]
    same_answers(db, sql)
    _raises_everywhere(_runs(([2**62, 2**62] + [0] * 98) * 3), sql)
    _raises_everywhere(_runs([2**60] * 300), sql)  # each run's sum, and no row's, passes


@pytest.mark.parametrize("values, total", [
    ([2**62, 2**62 - 1], TOP),
    ([-(2**62), -(2**62)], BOTTOM),
    ([TOP, 1, -1, -5], TOP - 5),  # back inside the range after each step
])
def test_a_sum_at_the_ends_of_bigint_answers(values, total):
    db = _table(values * 3, keys=[i // len(values) for i in range(3 * len(values))])
    assert db.sql("SELECT g, SUM(v) FROM t GROUP BY g").rows == [(g, total) for g in range(3)]
    same_answers(db, "SELECT g, SUM(v) AS s, COUNT(*) AS n FROM t GROUP BY g")
    same_answers(db, "SELECT SUM(v) AS s FROM t WHERE g = 1")


def test_a_scalar_sum_of_weighted_values_at_and_past_the_end_of_bigint():
    """64 rows, one compressed row group: the scan hands ``v`` on as
    weighted distinct values, and the sum is Python-exact past a bound."""
    sql = "SELECT SUM(v) AS s FROM t"
    db = _table([2**57] * 63 + [TOP - 63 * 2**57])
    assert "encoded=['v']" in db.explain_analyze(sql)
    assert db.sql(sql).rows == [(TOP,)]
    same_answers(db, sql)
    _raises_everywhere(_table([2**57] * 63 + [TOP - 63 * 2**57 + 1]), sql)


def test_one_step_past_either_end_of_a_sum_raises():
    for values in ([2**62, 2**62 - 1, 1], [-(2**62), -(2**62), -1]):
        _raises_everywhere(_table(values, keys=[0, 1, 0]), "SELECT SUM(v) FROM t WHERE g < 2")


@pytest.mark.parametrize("sql", [
    "SELECT v * 4 FROM t",
    "SELECT MIN(v) + MAX(v) FROM t",
    "SELECT SUM(v * 2) FROM t",
    "SELECT k FROM t WHERE v + v > 0",
])
def test_arithmetic_past_bigint_raises_in_both_engines(sql):
    _raises_everywhere(_table([2**62] * 10), sql)


@pytest.mark.parametrize("value, expr, result", [
    (TOP - 1, "v + 1", TOP),
    (BOTTOM + 1, "v - 1", BOTTOM),
    (2**62, "v * -2", BOTTOM),
    (2**62 - 1, "2 * v", TOP - 1),
    (BOTTOM, "0 - (v + 1)", TOP),
])
def test_arithmetic_at_the_ends_of_bigint_answers(value, expr, result):
    db = _table([value])
    assert db.sql(f"SELECT {expr} FROM t").rows == [(result,)]
    same_answers(db, f"SELECT {expr} AS x FROM t")


@pytest.mark.parametrize("value, expr", [
    (TOP, "v + 1"),
    (BOTTOM, "v - 1"),
    (2**62, "v * 2"),
    (BOTTOM, "v * -1"),
    (BOTTOM, "0 - v"),
])
def test_arithmetic_one_step_past_either_end_raises(value, expr):
    _raises_everywhere(_table([value]), f"SELECT {expr} FROM t")


def test_a_row_that_does_not_qualify_or_is_null_never_raises():
    db = _table([2**62, 3, None, 5])
    sqls = [
        "SELECT k, v * 4 AS x FROM t WHERE v < 10",
        "SELECT k, v * 4 AS x FROM t WHERE k <> 0",
        "SELECT k, CASE WHEN v < 10 THEN v * 4 ELSE 0 END AS x FROM t",
        "SELECT k, v / 0 AS x FROM t",
    ]
    for sql in sqls:
        same_answers(db, sql)
    assert sorted(db.sql(sqls[2]).rows, key=repr) == [(0, 0), (1, 12), (2, 0), (3, 20)]


def test_an_insert_of_a_constant_past_bigint_raises():
    db = _table([1])
    with pytest.raises(ExecutionError, match="arithmetic overflow"):
        db.sql(f"INSERT INTO t VALUES (9, 0, {TOP} + 1)")
    db.sql(f"INSERT INTO t VALUES (9, 0, {TOP - 1} + 1)")
    assert db.sql("SELECT v FROM t WHERE k = 9").rows == [(TOP,)]
