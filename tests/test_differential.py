"""Differential testing: every arm of the harness must agree everywhere.

Hypothesis generates random tables (values, NULLs) and random queries
(filters, grouped aggregates, joins, subqueries, windows); each example
runs its query in batch mode and under one arm of the differential
harness drawn with it (``repro.bench.harness.ARMS``: the row engine,
which shares almost no execution code with batch mode, each switch off,
three-row batches, a budget that spills, a shape hit). The oracle
properties and the statement lists below also check batch mode against
sqlite3 holding the same rows (``oracle_for``), and the lists run every
arm.
"""

from __future__ import annotations

from contextlib import closing

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Database, StoreConfig, schema, types
from repro.bench.harness import ARMS, oracle_for, same_answers, same_writes

from . import examples

SETTINGS = settings(
    max_examples=examples(40),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
arms = st.sampled_from(ARMS)

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


def agree_with_sqlite(db, sql, arms=ARMS) -> None:
    """Every one of ``arms`` answers as batch mode, and batch mode as
    sqlite3 on the same rows — which must be able to run ``sql``."""
    with closing(oracle_for(db)) as oracle:
        assert same_answers(db, sql, arms, oracle)[-1] == "sqlite3", sql


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
       template=st.sampled_from(PLAIN_QUERIES), arm=arms)
def test_plain_queries_agree(rows, where, template, arm):
    same_answers(make_db(rows), template.format(where=where), [arm])


@SETTINGS
@given(rows=rows_strategy, where=st.sampled_from(WHERE_CLAUSES),
       template=st.sampled_from(AGG_QUERIES), arm=arms)
def test_aggregate_queries_agree(rows, where, template, arm):
    same_answers(make_db(rows), template.format(where=where), [arm])


dim_rows = st.lists(
    st.tuples(st.integers(min_value=-5, max_value=10), st.sampled_from(["u", "v", "w"])),
    max_size=20,
    unique_by=lambda r: r[0],
)


@SETTINGS
@given(rows=rows_strategy, dims=dim_rows,
       join_type=st.sampled_from(["JOIN", "LEFT JOIN", "RIGHT JOIN", "FULL JOIN"]), arm=arms)
def test_joins_agree(rows, dims, join_type, arm):
    db = make_db(rows)
    db.create_table("d", schema(("id", types.INT, False), ("tag", types.VARCHAR)))
    if dims:
        db.bulk_load("d", dims)
    same_answers(db, f"SELECT t.k, t.a, d.tag FROM t {join_type} d ON t.a = d.id", [arm])
    same_answers(
        db,
        f"SELECT d.tag, COUNT(*) AS n, SUM(t.k) AS sk "
        f"FROM t {join_type} d ON t.a = d.id GROUP BY d.tag",
        [arm],
    )


@SETTINGS
@given(rows=rows_strategy, arm=arms)
def test_trickle_and_deletes_agree(rows, arm):
    """Mixed storage states (delta rows + delete marks) under every arm."""
    db = make_db(rows[: len(rows) // 2])
    if rows[len(rows) // 2 :]:
        db.insert("t", rows[len(rows) // 2 :])  # trickle -> delta stores
    db.sql("DELETE FROM t WHERE k > 10")
    same_answers(db, "SELECT COUNT(*) AS n, SUM(k) AS sk FROM t", [arm])
    same_answers(db, "SELECT s, COUNT(*) AS n FROM t GROUP BY s", [arm])


def test_a_grouped_float_sum_agrees_under_every_arm():
    """The spill arm must agree with the row engine, not just itself."""
    rows = [(i, i % 7, ["red", "green", "blue"][i % 3], float(i % 11)) for i in range(500)]
    same_answers(make_db(rows), "SELECT a, s, COUNT(*) AS n, SUM(f) AS sf FROM t GROUP BY a, s")


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
@given(rows=rows_strategy, e=e_rows, template=st.sampled_from(SUBQUERY_QUERIES), arm=arms)
def test_subqueries_agree(rows, e, template, arm):
    same_answers(make_db_with_e(rows, e), template, [arm])


@SETTINGS
@given(rows=rows_strategy, template=st.sampled_from(WINDOW_QUERIES), arm=arms)
def test_windows_agree(rows, template, arm):
    same_answers(make_db(rows), template, [arm])


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


@SETTINGS
@given(rows=rows_strategy, e=e_rows, template=st.sampled_from(ORACLE_QUERIES), arm=arms)
def test_sqlite_oracle_agrees(rows, e, template, arm):
    agree_with_sqlite(make_db_with_e(rows, e), template, [arm])


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
@given(rows=rows_strategy, template=st.sampled_from(CASE_ORACLE_QUERIES), arm=arms)
def test_case_result_type_agrees_with_sqlite(rows, template, arm):
    agree_with_sqlite(make_db(rows), template, [arm])


@SETTINGS
@given(rows=rows_strategy, where=st.sampled_from(WHERE_CLAUSES),
       template=st.sampled_from(PLAIN_QUERIES + AGG_QUERIES),
       mode=st.sampled_from(["batch", "row"]))
def test_stats_collection_does_not_change_results(rows, where, template, mode):
    """Stats-enabled execution must be byte-identical to stats-off.

    The instrumented-iterator wrapper sits on every operator's data path;
    this proves it is an observer, not a participant: identical engine,
    identical order, identical bytes expected.
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
# the scan refused the statement. A join over budget partitions both
# sides by a hash of the key, so a FLOAT key equal to an INT key must land
# in the same partition: they used to hash by type, and with a 1-byte
# budget 260 of 2,000 matches came back. Keys of different number types
# compare by value: both shapes (3 x 3; 2,000 probe rows x 20 build rows,
# which gets the bitmap), both join orders, every arm.
FLOAT_INT_JOINS = [
    "SELECT f.x, d.name FROM f JOIN d ON f.x = d.i",
    "SELECT f.x, d.name FROM d JOIN f ON d.i = f.x",
    "SELECT COUNT(*) FROM f JOIN d ON f.x = d.i",
    "SELECT COUNT(*) FROM d JOIN f ON d.i = f.x",
]
FLOAT_INT_SHAPES = {
    "small": ([(1.5, 10), (2.0, 20), (3.0, 30), (None, 40), (-0.0, 50)],
              [(1, "one"), (2, "two"), (3, "three"), (0, "zero"), (None, "none")]),
    "bitmap pushed": ([((i % 70) / 2.0, i) for i in range(2_000)],
                      [(i, f"n{i}") for i in range(20)]),
}


@pytest.mark.parametrize("shape", list(FLOAT_INT_SHAPES))
@pytest.mark.parametrize("sql", FLOAT_INT_JOINS)
def test_float_key_against_int_key_agrees_with_sqlite(shape, sql):
    f_rows, d_rows = FLOAT_INT_SHAPES[shape]
    db = Database(StoreConfig(rowgroup_size=4096, bulk_load_threshold=1))
    db.create_table("f", schema(("x", types.FLOAT), ("v", types.INT)))
    db.create_table("d", schema(("i", types.INT), ("name", types.VARCHAR)))
    db.bulk_load("f", f_rows)
    db.bulk_load("d", d_rows)
    agree_with_sqlite(db, sql)
    assert db.sql(sql).rows not in ([], [(0,)])
    assert db.sql(sql, query_memory_budget=1, stats=True).stats.total("spilled") > 0


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
def test_decimal_comparisons_across_scales_agree_with_sqlite(sql):
    db = _decimal_db()
    agree_with_sqlite(db, sql)
    assert db.sql(sql).rows


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


# BETWEEN is the Kleene AND of its two comparisons: one known FALSE makes
# it FALSE even when the other bound is NULL (it once answered NULL, so
# NOT (a BETWEEN NULL AND 0) lost every row). Compressed groups and a
# delta tail, literal and column bounds, numbers and strings.
BETWEEN_ROWS = [
    (1, 0, 2, "b"), (5, None, 9, "q"), (None, 1, 1, None), (3, 3, None, "c"),
    (-2, 0, None, "a"), (7, None, None, "z"), (0, -1, 0, "m"), (4, 6, 2, "d"),
]
BETWEEN_QUERIES = [
    "SELECT a FROM t WHERE NOT (a BETWEEN NULL AND 0)",
    "SELECT a FROM t WHERE NOT (a BETWEEN 3 AND NULL)",
    "SELECT a FROM t WHERE a NOT BETWEEN NULL AND 3",
    "SELECT a, lo, hi FROM t WHERE NOT (a BETWEEN lo AND hi)",
    "SELECT a, lo, hi FROM t WHERE a BETWEEN lo AND hi",
    "SELECT s FROM t WHERE NOT (s BETWEEN NULL AND 'c')",
    "SELECT s FROM t WHERE s NOT BETWEEN 'c' AND NULL",
    "SELECT COUNT(*) FROM t WHERE NOT (a BETWEEN NULL AND 0)",
    "SELECT a, CASE WHEN a BETWEEN lo AND 4 THEN 'T' "
    "WHEN NOT (a BETWEEN lo AND 4) THEN 'F' ELSE 'N' END FROM t",
]


def _between_db() -> Database:
    db = Database(StoreConfig(rowgroup_size=4, bulk_load_threshold=4))
    db.create_table(
        "t", schema(("a", types.INT), ("lo", types.INT), ("hi", types.INT), ("s", types.VARCHAR))
    )
    db.bulk_load("t", BETWEEN_ROWS[:6])
    db.insert("t", BETWEEN_ROWS[6:])
    return db


@pytest.mark.parametrize("sql", BETWEEN_QUERIES)
def test_between_with_null_bounds_agrees_with_sqlite(sql):
    db = _between_db()
    agree_with_sqlite(db, sql)
    assert db.sql(sql).rows


def test_predicates_selected_as_bool_columns_agree_with_sqlite():
    """Every kind of predicate is a value too, NULL where it is UNKNOWN."""
    agree_with_sqlite(
        _between_db(),
        "SELECT a, a > lo AS gt, NOT (a > lo) AS ng, a IS NULL AS n, a BETWEEN lo AND hi AS b, "
        "a IN (0, 3) AS i, s LIKE 'c%' AS l, a > 0 AND s > 'b' AS c, a > 0 OR hi IS NULL AS o "
        "FROM t",
    )


# ORDER BY is compared in order under every arm (the harness checks the
# ORDER BY key columns in order, the rows as a multiset): string, nullable
# and float keys each way, two keys in mixed directions, TOP-N cut inside
# runs of tied keys with NULLs in either key position, and windows ordered
# DESC. Compressed groups and a delta tail, so a spilled sort merges runs.
ORDER_ROWS = [
    (k, [None, 2, 1, 2, None, 1][k % 6], [None, "x", "", "y", "x"][k % 5],
     [None, 0.5, -0.0, 0.0, 2.5, 0.5, None][k % 7])
    for k in range(60)
]
ORDER_STATEMENTS = [
    "SELECT k, s FROM t ORDER BY s",
    "SELECT k, s FROM t ORDER BY s DESC",
    "SELECT k, a FROM t ORDER BY a",
    "SELECT k, a FROM t ORDER BY a DESC",
    "SELECT k, f FROM t ORDER BY f DESC",
    "SELECT k, a, s FROM t ORDER BY s DESC, a",
    "SELECT k, a, s FROM t ORDER BY a, s DESC",
    "SELECT k, a, s FROM t ORDER BY a, s LIMIT 7",
    "SELECT k, a, s FROM t ORDER BY s DESC, a DESC LIMIT 7",
    "SELECT k, a, s FROM t ORDER BY a DESC, s LIMIT 9",
    "SELECT k, a, s FROM t ORDER BY s, a DESC LIMIT 11",
    "SELECT k, RANK() OVER (PARTITION BY s ORDER BY a DESC) AS r FROM t",
    "SELECT k, DENSE_RANK() OVER (PARTITION BY s ORDER BY a DESC) AS r FROM t",
    "SELECT k, SUM(f) OVER (PARTITION BY s ORDER BY a DESC) AS run FROM t",
]


@pytest.mark.parametrize("sql", ORDER_STATEMENTS)
def test_order_agrees_in_order_under_every_arm(sql):
    db = make_db(ORDER_ROWS[:40])
    db.insert("t", ORDER_ROWS[40:])
    assert same_answers(db, sql) == [arm.name for arm in ARMS]


# Integers add and multiply in 64 bits in batch mode as in row mode: an
# INT column times an INT literal used to wrap at 32 bits there (v *
# 2147483647 gave -2 for v = 2). An UPDATE storing such a value into an
# INT column still raises.
INT_ARITHMETIC = [
    "SELECT v, v * 2147483647 AS m FROM w",
    "SELECT SUM(v * 2147483647) AS s FROM w",
    "SELECT v + 2147483647 AS p, v - 2147483647 - 2 AS q FROM w",
    "SELECT v FROM w WHERE v * 2147483647 > 4000000000",
]


def _int_db() -> Database:
    db = Database(StoreConfig(rowgroup_size=4, bulk_load_threshold=2))
    db.create_table("w", schema(("v", types.INT)))
    db.bulk_load("w", [(1,), (2,)])
    db.insert("w", [(3,), (None,)])
    return db


@pytest.mark.parametrize("sql", INT_ARITHMETIC)
def test_integer_arithmetic_agrees_with_sqlite(sql):
    agree_with_sqlite(_int_db(), sql)


def test_an_update_out_of_int_range_still_raises_under_every_arm():
    from repro.errors import TypeMismatchError

    for arm in ARMS:
        db = _int_db()
        got = arm.answer(db, "UPDATE w SET v = v + 2147483647 WHERE v > 1")
        assert got.error is TypeMismatchError, (arm.name, got)
        assert "out of range for int" in got.message
        assert sorted(db.sql("SELECT v FROM w WHERE v IS NOT NULL").rows) == [(1,), (2,), (3,)]


# A literal with more fraction digits than a DECIMAL column's scale is
# compared and added at its own value: it used to be rounded into the
# column's scale (d < 1.255 lost 1.25, d + 0.005 added nothing). A shape
# hit on a literal of another scale answers as a fresh bind (the "shape
# hit" arm); DELETE and UPDATE bind WHERE the same way, while SET still
# rounds a literal into the column.
DECIMAL_LITERALS = [
    "SELECT d FROM t WHERE d < 1.255",
    "SELECT d, d = 1.254 AS e, d != 1.254 AS n FROM t",
    "SELECT d, d + 0.005 AS e FROM t",
    "SELECT d, d + 0.125 AS e FROM t",
    "SELECT d FROM t WHERE d BETWEEN 1.251 AND 3.2501",
]


def _decimal_literal_db() -> Database:
    db = Database(StoreConfig(rowgroup_size=4, bulk_load_threshold=2))
    db.create_table("t", schema(("d", types.decimal(2)), ("i", types.INT)))
    db.bulk_load("t", [(0.25, 0), (1.25, 1)])
    db.insert("t", [(2.25, 2), (3.25, 3), (None, 4)])
    return db


@pytest.mark.parametrize("sql", DECIMAL_LITERALS)
def test_a_decimal_against_a_finer_literal_agrees_with_sqlite(sql):
    db = _decimal_literal_db()
    agree_with_sqlite(db, sql)
    assert db.sql(sql).rows


@pytest.mark.parametrize("sql", [
    "DELETE FROM t WHERE d < 1.255",
    "UPDATE t SET i = i + 10 WHERE d <= 1.249",
])
def test_dml_against_a_finer_decimal_literal_agrees_with_sqlite(sql):
    same_writes(_decimal_literal_db, sql)


def test_a_shape_hit_on_a_finer_literal_answers_as_a_fresh_bind():
    from repro.observability import get_registry

    db = _decimal_literal_db()
    assert db.sql("SELECT d FROM t WHERE d < 2.25").rows == [(0.25,), (1.25,)]
    hits = get_registry().counter("sql.shapes.hits")
    assert db.sql("SELECT d FROM t WHERE d < 1.255").rows == [(0.25,), (1.25,)]
    assert db.sql("SELECT d FROM t WHERE d < 1.25").rows == [(0.25,)]
    assert get_registry().counter("sql.shapes.hits") == hits + 2


def test_set_rounds_a_finer_literal_into_the_column():
    db = _decimal_literal_db()
    db.sql("UPDATE t SET d = 1.254 WHERE i = 0")
    assert db.sql("SELECT d FROM t WHERE i = 0").rows == [(1.25,)]


# DML under every arm: each arm applies the statement to a fresh copy of
# one table (compressed groups, a delta tail, deleted rows) and the table
# must end the same, the rows affected too; sqlite3 checks batch mode's.
DML_ROWS = [
    (k, [None, 2, -1, 0, 5, 7][k % 6], ["red", "green", "blue", None, "x"][k % 5],
     [None, 0.5, -1.25, 3.0][k % 4], [0.25, 1.5, None, 2.75, 1.25, -0.5, 3.0][k % 7])
    for k in range(60)
]
DML_STATEMENTS = [
    ("t", "UPDATE t SET a = a * 3 + k, f = f / 2 WHERE s = 'red'"),
    ("t", "UPDATE t SET s = CASE WHEN a > 0 THEN 'pos' ELSE 'neg' END WHERE a IS NOT NULL"),
    ("t", "UPDATE t SET a = NULL, s = NULL WHERE a IS NULL OR k > 50"),
    ("t", "UPDATE t SET d = d * 2 + 1, f = -f WHERE d > 1.5"),
    ("t", "UPDATE t SET k = k + 1000, d = d + 1.25 WHERE s LIKE '%e%' AND f IS NOT NULL"),
    ("t", "DELETE FROM t WHERE d BETWEEN 0.5 AND 2.25"),
    ("t", "DELETE FROM t WHERE s = 'blue' OR a IS NULL"),
    ("t", "DELETE FROM t WHERE k > 1000"),
    ("t", "UPDATE t SET a = a + 1 WHERE k < -1"),
    ("t", "DELETE FROM t"),
    ("b", "UPDATE b SET v = v * 2, tag = 'z' WHERE v > 3"),
    ("b", "DELETE FROM b WHERE tag = 'u' OR v IS NULL"),
]


def make_dml_db() -> Database:
    db = Database(StoreConfig(rowgroup_size=16, bulk_load_threshold=8, delta_close_rows=16))
    db.create_table("t", schema(
        ("k", types.INT, False), ("a", types.INT), ("s", types.VARCHAR), ("f", types.FLOAT),
        ("d", types.decimal(2)),
    ))
    db.bulk_load("t", DML_ROWS[:40])
    db.insert("t", DML_ROWS[40:])
    db.sql("DELETE FROM t WHERE k IN (3, 11, 19, 44, 57)")
    db.create_table(
        "b", schema(("id", types.INT, False), ("tag", types.VARCHAR), ("v", types.INT)),
        storage="both",
    )
    db.insert("b", [(i, ["u", "v", None][i % 3], [1, 4, None, 6][i % 4]) for i in range(12)])
    db.sql("DELETE FROM b WHERE id = 5")
    return db


@pytest.mark.parametrize("table, sql", DML_STATEMENTS)
def test_dml_agrees_under_every_arm(table, sql):
    checked = same_writes(make_dml_db, sql, table)
    assert checked == [arm.name for arm in ARMS] + ["sqlite3"]
