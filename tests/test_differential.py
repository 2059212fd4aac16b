"""Differential testing: the batch and row engines must agree everywhere.

Hypothesis generates random tables (values, NULLs) and random queries
(filters, grouped aggregates, joins, subqueries, windows); each query
runs through both engines over identical data. Any disagreement is a bug
in one engine — this is the strongest correctness net in the suite
because the engines share almost no execution code. A third arm replays
a dialect-safe subset against sqlite3, so both engines are also checked
against an independent implementation.
"""

from __future__ import annotations

import math
import sqlite3

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Database, StoreConfig, schema, types

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

# Row strategies -------------------------------------------------------- #
small_int = st.integers(min_value=-20, max_value=20)
opt_int = st.one_of(st.none(), small_int)
opt_str = st.one_of(st.none(), st.sampled_from(["red", "green", "blue", "x", ""]))
opt_float = st.one_of(
    st.none(), st.floats(min_value=-100, max_value=100, allow_nan=False, width=32)
)

rows_strategy = st.lists(st.tuples(small_int, opt_int, opt_str, opt_float), max_size=80)


def make_db(rows) -> Database:
    db = Database(StoreConfig(rowgroup_size=16, bulk_load_threshold=8, delta_close_rows=16))
    db.create_table(
        "t",
        schema(
            ("k", types.INT, False),
            ("a", types.INT),
            ("s", types.VARCHAR),
            ("f", types.FLOAT),
        ),
    )
    if rows:
        db.bulk_load("t", rows)
    return db


def normalize(rows):
    out = []
    for row in rows:
        cells = []
        for value in row:
            if isinstance(value, float):
                cells.append(round(value, 6) if math.isfinite(value) else repr(value))
            else:
                cells.append(value)
        out.append(tuple(cells))
    return sorted(out, key=repr)


def both_modes(db, sql):
    batch = db.sql(sql, mode="batch")
    row = db.sql(sql, mode="row")
    assert batch.columns == row.columns, sql
    assert normalize(batch.rows) == normalize(row.rows), sql


# Query fragments -------------------------------------------------------- #
WHERE_CLAUSES = [
    "",
    "WHERE a > 0",
    "WHERE a IS NULL",
    "WHERE a IS NOT NULL AND f < 10",
    "WHERE s = 'red' OR s = 'blue'",
    "WHERE s LIKE '%e%'",
    "WHERE k BETWEEN -5 AND 5",
    "WHERE a IN (1, 2, 3) OR f IS NULL",
    "WHERE NOT (a > 5)",
    "WHERE a + k > 0",
    "WHERE f / 2 > 1",
]

AGG_QUERIES = [
    "SELECT COUNT(*) AS n FROM t {where}",
    "SELECT COUNT(a) AS n, SUM(a) AS s FROM t {where}",
    "SELECT MIN(f) AS lo, MAX(f) AS hi FROM t {where}",
    "SELECT s, COUNT(*) AS n FROM t {where} GROUP BY s",
    "SELECT a, COUNT(*) AS n, AVG(f) AS m FROM t {where} GROUP BY a",
    "SELECT s, a, SUM(k) AS sk FROM t {where} GROUP BY s, a",
    "SELECT MIN(s) AS lo, MAX(s) AS hi FROM t {where}",
]

PLAIN_QUERIES = [
    "SELECT k, a, s, f FROM t {where}",
    "SELECT k * 2 + 1 AS v FROM t {where}",
    "SELECT CASE WHEN a > 0 THEN 'pos' WHEN a < 0 THEN 'neg' ELSE 'other' END AS b FROM t {where}",
    "SELECT DISTINCT s FROM t {where}",
    "SELECT k FROM t {where} ORDER BY k LIMIT 5",
]


@SETTINGS
@given(rows=rows_strategy, where=st.sampled_from(WHERE_CLAUSES),
       template=st.sampled_from(PLAIN_QUERIES))
def test_plain_queries_agree(rows, where, template):
    db = make_db(rows)
    both_modes(db, template.format(where=where))


@SETTINGS
@given(rows=rows_strategy, where=st.sampled_from(WHERE_CLAUSES),
       template=st.sampled_from(AGG_QUERIES))
def test_aggregate_queries_agree(rows, where, template):
    db = make_db(rows)
    both_modes(db, template.format(where=where))


dim_rows = st.lists(
    st.tuples(st.integers(min_value=-5, max_value=10), st.sampled_from(["u", "v", "w"])),
    max_size=20,
    unique_by=lambda r: r[0],
)


@SETTINGS
@given(rows=rows_strategy, dims=dim_rows,
       join_type=st.sampled_from(["JOIN", "LEFT JOIN", "RIGHT JOIN", "FULL JOIN"]))
def test_joins_agree(rows, dims, join_type):
    db = make_db(rows)
    db.create_table("d", schema(("id", types.INT, False), ("tag", types.VARCHAR)))
    if dims:
        db.bulk_load("d", dims)
    both_modes(
        db,
        f"SELECT t.k, t.a, d.tag FROM t {join_type} d ON t.a = d.id",
    )
    both_modes(
        db,
        f"SELECT d.tag, COUNT(*) AS n, SUM(t.k) AS sk "
        f"FROM t {join_type} d ON t.a = d.id GROUP BY d.tag",
    )


@SETTINGS
@given(rows=rows_strategy)
def test_trickle_and_deletes_agree(rows):
    """Mixed storage states (delta rows + delete marks) across both engines."""
    db = make_db(rows[: len(rows) // 2])
    if rows[len(rows) // 2 :]:
        db.insert("t", rows[len(rows) // 2 :])  # trickle -> delta stores
    db.sql("DELETE FROM t WHERE k > 10")
    both_modes(db, "SELECT COUNT(*) AS n, SUM(k) AS sk FROM t")
    both_modes(db, "SELECT s, COUNT(*) AS n FROM t GROUP BY s")


@pytest.mark.parametrize("grant", [None, 2048])
def test_spilling_agrees_with_row_engine(grant):
    """The spill path must agree with the row engine, not just itself."""
    rows = [(i, i % 7, ["red", "green", "blue"][i % 3], float(i % 11)) for i in range(500)]
    db = make_db(rows)
    sql = "SELECT a, s, COUNT(*) AS n, SUM(f) AS sf FROM t GROUP BY a, s"
    batch = db.sql(sql, mode="batch", grant_bytes=grant)
    row = db.sql(sql, mode="row")
    assert normalize(batch.rows) == normalize(row.rows)


# Subqueries and windows ------------------------------------------------- #
e_rows = st.lists(
    st.tuples(
        st.integers(min_value=-5, max_value=15),
        st.sampled_from(["u", "v", "w"]),
        opt_int,
    ),
    max_size=30,
    unique_by=lambda r: r[0],
)


def make_db_with_e(rows, e) -> Database:
    db = make_db(rows)
    db.create_table(
        "e",
        schema(("id", types.INT, False), ("tag", types.VARCHAR), ("v", types.INT)),
    )
    if e:
        db.bulk_load("e", e)
    return db


SUBQUERY_QUERIES = [
    "SELECT k, a FROM t WHERE a IN (SELECT id FROM e)",
    "SELECT k FROM t WHERE a NOT IN (SELECT v FROM e)",
    "SELECT k FROM t WHERE a NOT IN (SELECT v FROM e WHERE v IS NOT NULL)",
    "SELECT k FROM t WHERE k IN (SELECT id FROM e WHERE tag = 'u')",
    "SELECT k FROM t WHERE EXISTS (SELECT 1 FROM e WHERE e.id = t.a)",
    "SELECT k FROM t WHERE NOT EXISTS (SELECT 1 FROM e WHERE e.id = t.a)",
    "SELECT k FROM t WHERE EXISTS (SELECT 1 FROM e WHERE e.id = t.k AND e.tag = 'v')",
    "SELECT k FROM t WHERE k > (SELECT MIN(id) FROM e)",
    "SELECT k FROM t WHERE a = (SELECT MAX(v) FROM e)",
]

WINDOW_QUERIES = [
    "SELECT k, ROW_NUMBER() OVER (ORDER BY k) AS rn FROM t",
    "SELECT k, RANK() OVER (ORDER BY a) AS r FROM t",
    "SELECT k, DENSE_RANK() OVER (PARTITION BY s ORDER BY k) AS dr FROM t",
    "SELECT k, SUM(k) OVER (PARTITION BY s) AS sk FROM t",
    "SELECT k, COUNT(*) OVER (PARTITION BY a) AS n FROM t",
    "SELECT k, SUM(a) OVER (ORDER BY k) AS run FROM t",
    "SELECT k, MIN(f) OVER (PARTITION BY s) AS lo, MAX(f) OVER (PARTITION BY s) AS hi FROM t",
    "SELECT k, AVG(a) OVER (PARTITION BY s) AS m FROM t",
]


@SETTINGS
@given(rows=rows_strategy, e=e_rows, template=st.sampled_from(SUBQUERY_QUERIES))
def test_subqueries_agree(rows, e, template):
    db = make_db_with_e(rows, e)
    both_modes(db, template)


@SETTINGS
@given(rows=rows_strategy, template=st.sampled_from(WINDOW_QUERIES))
def test_windows_agree(rows, template):
    db = make_db(rows)
    both_modes(db, template)


# The sqlite3 oracle arm -------------------------------------------------- #
# Dialect- and semantics-safe subset: integer aggregates only (float32
# accumulation differs from sqlite's doubles), window ORDER BY keys NOT
# NULL (we sort NULLs last, sqlite first), and multiset-safe projections.
ORACLE_QUERIES = [
    "SELECT k, a, s FROM t WHERE a > 0",
    "SELECT k, f FROM t WHERE a IS NULL",
    "SELECT k FROM t WHERE s LIKE '%e%'",
    "SELECT k FROM t WHERE a IN (1, 2, 3) OR f IS NULL",
    "SELECT k FROM t WHERE NOT (a > 5)",
    "SELECT COUNT(*) AS n FROM t",
    "SELECT COUNT(a) AS n, SUM(a) AS s FROM t",
    "SELECT s, COUNT(*) AS n FROM t GROUP BY s",
    "SELECT a, SUM(k) AS sk FROM t GROUP BY a",
    "SELECT s, AVG(a) AS m FROM t GROUP BY s",
    "SELECT k, a FROM t WHERE a IN (SELECT id FROM e)",
    "SELECT k FROM t WHERE a NOT IN (SELECT v FROM e)",
    "SELECT k FROM t WHERE a NOT IN (SELECT v FROM e WHERE v IS NOT NULL)",
    "SELECT k FROM t WHERE EXISTS (SELECT 1 FROM e WHERE e.id = t.a)",
    "SELECT k FROM t WHERE NOT EXISTS (SELECT 1 FROM e WHERE e.id = t.a)",
    "SELECT k FROM t WHERE k > (SELECT MIN(id) FROM e)",
    "SELECT k, ROW_NUMBER() OVER (ORDER BY k) AS rn FROM t",
    "SELECT k, RANK() OVER (ORDER BY k) AS r FROM t",
    "SELECT k, SUM(a) OVER (PARTITION BY s) AS sk FROM t",
    "SELECT k, SUM(a) OVER (ORDER BY k) AS run FROM t",
    "SELECT k, COUNT(*) OVER (PARTITION BY a) AS n FROM t",
]


def _oracle_connection(rows, e) -> sqlite3.Connection:
    conn = sqlite3.connect(":memory:")
    conn.execute("CREATE TABLE t (k INTEGER, a INTEGER, s TEXT, f REAL)")
    conn.execute("CREATE TABLE e (id INTEGER, tag TEXT, v INTEGER)")
    conn.executemany("INSERT INTO t VALUES (?, ?, ?, ?)", rows)
    conn.executemany("INSERT INTO e VALUES (?, ?, ?)", e)
    return conn


def oracle_normalize(rows):
    out = []
    for row in rows:
        out.append(
            tuple(
                round(v, 4) if isinstance(v, float) and math.isfinite(v) else v
                for v in row
            )
        )
    return sorted(out, key=repr)


@SETTINGS
@given(rows=rows_strategy, e=e_rows, template=st.sampled_from(ORACLE_QUERIES))
def test_sqlite_oracle_agrees(rows, e, template):
    db = make_db_with_e(rows, e)
    conn = _oracle_connection(rows, e)
    try:
        theirs = conn.execute(template).fetchall()
    finally:
        conn.close()
    mine = db.sql(template).rows
    assert oracle_normalize(mine) == oracle_normalize(theirs), template


# CASE has one result type, whichever branch comes first: a numeric CASE
# of an INT and a FLOAT literal is FLOAT (it used to come out truncated),
# a NULL literal takes the type of the others (it used to fail to present
# as INT), no ELSE is a NULL group, equal literals are one group.
CASE_ORACLE_QUERIES = [
    "SELECT k, CASE WHEN k < 3 THEN 1 ELSE 2.5 END AS c FROM t",
    "SELECT k, CASE WHEN k < 3 THEN NULL ELSE 'x' END AS c FROM t",
    "SELECT CASE WHEN k < 3 THEN 1 ELSE 2.5 END AS c, COUNT(*) AS n FROM t GROUP BY c",
    "SELECT CASE WHEN k < 3 THEN NULL ELSE 'x' END AS c, COUNT(*) AS n, SUM(k) AS sk FROM t GROUP BY c",
    "SELECT CASE WHEN a > 0 THEN 'pos' WHEN a < 0 THEN 'neg' END AS g, COUNT(*) AS n FROM t GROUP BY g",
    "SELECT CASE WHEN a > 5 THEN 'far' WHEN a > 0 THEN 'near' WHEN a > -5 THEN 'near' ELSE 'far' END AS g, "
    "COUNT(*) AS n, SUM(k) AS sk FROM t GROUP BY g",
]


@SETTINGS
@given(rows=rows_strategy, template=st.sampled_from(CASE_ORACLE_QUERIES),
       mode=st.sampled_from(["batch", "row"]))
def test_case_result_type_agrees_with_sqlite_in_both_engines(rows, template, mode):
    conn = _oracle_connection(rows, [])
    try:
        theirs = conn.execute(template).fetchall()
    finally:
        conn.close()
    mine = make_db(rows).sql(template, mode=mode).rows
    assert oracle_normalize(mine) == oracle_normalize(theirs), (template, mode)


@SETTINGS
@given(rows=rows_strategy, where=st.sampled_from(WHERE_CLAUSES),
       template=st.sampled_from(PLAIN_QUERIES + AGG_QUERIES),
       mode=st.sampled_from(["batch", "row"]))
def test_stats_collection_does_not_change_results(rows, where, template, mode):
    """Stats-enabled execution must be byte-identical to stats-off.

    The instrumented-iterator wrapper sits on every operator's data path;
    this proves it is an observer, not a participant. No normalize() here:
    identical engine, identical order, identical bytes expected.
    """
    db = make_db(rows)
    sql = template.format(where=where)
    plain = db.sql(sql, mode=mode)
    with_stats = db.sql(sql, mode=mode, stats=True)
    assert plain.columns == with_stats.columns, sql
    assert plain.rows == with_stats.rows, sql
    assert plain.stats is None
    assert with_stats.stats is not None


# An INT build key used to truncate a FLOAT probe key (1.5 joined 1) and,
# once the planner pushed the build's exact bitmap onto the FLOAT column,
# the scan refused the statement. Keys of different number types compare
# by value: both shapes (3 x 3; 20,000 probe rows x 20 build rows, which
# gets the bitmap), both join orders, both engines.
FLOAT_INT_JOINS = [
    "SELECT f.x, d.name FROM f JOIN d ON f.x = d.i",
    "SELECT f.x, d.name FROM d JOIN f ON d.i = f.x",
]
FLOAT_INT_SHAPES = {
    "small": ([(1.5, 10), (2.0, 20), (3.0, 30), (None, 40), (-0.0, 50)],
              [(1, "one"), (2, "two"), (3, "three"), (0, "zero"), (None, "none")]),
    "bitmap pushed": ([((i % 70) / 2.0, i) for i in range(20_000)],
                      [(i, f"n{i}") for i in range(20)]),
}


@pytest.mark.parametrize("shape", list(FLOAT_INT_SHAPES))
@pytest.mark.parametrize("sql", FLOAT_INT_JOINS)
@pytest.mark.parametrize("mode", ["batch", "row"])
def test_float_key_against_int_key_agrees_with_sqlite(shape, sql, mode):
    f_rows, d_rows = FLOAT_INT_SHAPES[shape]
    db = Database(StoreConfig(rowgroup_size=4096, bulk_load_threshold=1))
    db.create_table("f", schema(("x", types.FLOAT), ("v", types.INT)))
    db.create_table("d", schema(("i", types.INT), ("name", types.VARCHAR)))
    db.bulk_load("f", f_rows)
    db.bulk_load("d", d_rows)
    conn = sqlite3.connect(":memory:")
    try:
        conn.execute("CREATE TABLE f (x REAL, v INTEGER)")
        conn.execute("CREATE TABLE d (i INTEGER, name TEXT)")
        conn.executemany("INSERT INTO f VALUES (?, ?)", f_rows)
        conn.executemany("INSERT INTO d VALUES (?, ?)", d_rows)
        theirs = conn.execute(sql).fetchall()
    finally:
        conn.close()
    assert theirs
    assert oracle_normalize(db.sql(sql, mode=mode).rows) == oracle_normalize(theirs)


# A join over budget partitions both sides by a hash of the key: a FLOAT
# key equal to an INT key must land in the same partition. They used to
# hash by type, so with a 1-byte budget 260 of these 2,000 matches came
# back. Both join orders, in budget and spilled.
SPILLED_FLOAT_INT_JOINS = [
    *FLOAT_INT_JOINS,
    "SELECT COUNT(*) FROM f JOIN d ON f.x = d.i",
    "SELECT COUNT(*) FROM d JOIN f ON d.i = f.x",
]


@pytest.mark.parametrize("budget", ["default", "1"])
@pytest.mark.parametrize("sql", SPILLED_FLOAT_INT_JOINS)
def test_spilled_float_key_against_int_key_agrees_with_sqlite(sql, budget):
    f_rows = [(float(i % 200), i) for i in range(2000)]
    d_rows = [(i, f"n{i}") for i in range(200)]
    db = Database(StoreConfig(rowgroup_size=4096, bulk_load_threshold=1))
    db.create_table("f", schema(("x", types.FLOAT), ("v", types.INT)))
    db.create_table("d", schema(("i", types.INT), ("name", types.VARCHAR)))
    db.bulk_load("f", f_rows)
    db.bulk_load("d", d_rows)
    if budget != "default":
        db.sql(f"SET query_memory_budget = {budget}")
    conn = sqlite3.connect(":memory:")
    try:
        conn.execute("CREATE TABLE f (x REAL, v INTEGER)")
        conn.execute("CREATE TABLE d (i INTEGER, name TEXT)")
        conn.executemany("INSERT INTO f VALUES (?, ?)", f_rows)
        conn.executemany("INSERT INTO d VALUES (?, ?)", d_rows)
        theirs = conn.execute(sql).fetchall()
    finally:
        conn.close()
    assert len(theirs) == 2000 or theirs == [(2000,)]
    answer = db.sql(sql, mode="batch", stats=True)
    assert oracle_normalize(answer.rows) == oracle_normalize(theirs)
    assert (answer.stats.total("spilled") > 0) == (budget != "default")


# Decimals are integers scaled by 10**scale: a comparison between two
# scales (or a decimal and an integer) used to compare the scaled
# integers, 150 against 15. One scale first, exactly.
DECIMAL_ROWS = [
    (1.50, 1.5, 1), (2.00, 1.9, 2), (2.50, 3.0, 2), (-0.25, -0.2, 0),
    (3.00, 3.0, 3), (None, 1.0, 1), (7.10, None, 7), (0.05, 0.1, None),
]
DECIMAL_ORACLE_QUERIES = [
    "SELECT p, q, i FROM t WHERE p = q",
    "SELECT p, q, i FROM t WHERE p = i",
    "SELECT p, q, i FROM t WHERE q != i",
    "SELECT p, q, i FROM t WHERE p < q",
    "SELECT p, q, i FROM t WHERE i >= q",
    "SELECT p, q, i FROM t WHERE p BETWEEN q AND i",
    "SELECT p, q, i FROM t WHERE i BETWEEN q AND p",
    "SELECT p, q, i FROM t WHERE p NOT BETWEEN i AND q",
    "SELECT p, q, i FROM t WHERE p > 1.9 AND q <= 3",
]


def _decimal_db() -> Database:
    db = Database(StoreConfig(rowgroup_size=4, bulk_load_threshold=2))
    db.create_table(
        "t", schema(("p", types.decimal(2)), ("q", types.decimal(1)), ("i", types.INT))
    )
    db.bulk_load("t", DECIMAL_ROWS)
    return db


@pytest.mark.parametrize("sql", DECIMAL_ORACLE_QUERIES)
@pytest.mark.parametrize("mode", ["batch", "row"])
def test_decimal_comparisons_across_scales_agree_with_sqlite(sql, mode):
    conn = sqlite3.connect(":memory:")
    try:
        conn.execute("CREATE TABLE t (p REAL, q REAL, i INTEGER)")
        conn.executemany("INSERT INTO t VALUES (?, ?, ?)", DECIMAL_ROWS)
        theirs = conn.execute(sql).fetchall()
    finally:
        conn.close()
    assert theirs
    assert oracle_normalize(_decimal_db().sql(sql, mode=mode).rows) == oracle_normalize(theirs)


def test_join_keys_of_different_scales_are_refused_by_name():
    """The join compares physical columns, so until key expressions exist
    a DECIMAL(_, 2) = INT key is an error that names both types, not an
    empty answer."""
    from repro.errors import BindingError

    db = _decimal_db()
    db.create_table("d", schema(("i", types.INT), ("q", types.decimal(1))))
    for condition in ("t.p = d.i", "d.q = t.p"):
        with pytest.raises(BindingError) as refused:
            db.sql(f"SELECT t.i FROM t JOIN d ON {condition}")
        assert "DECIMAL(18,2)" in str(refused.value)
        assert ("INT" if "d.i" in condition else "DECIMAL(18,1)") in str(refused.value)
    assert db.sql("SELECT t.i FROM t JOIN d ON t.q = d.q AND t.i = d.i").rows == []
