"""Tests for RIGHT and FULL OUTER joins (all join types, as in the paper)."""

import pytest

from repro import Database
from repro.bench.harness import same_answers, same_rows


@pytest.fixture
def db():
    database = Database()
    database.sql("CREATE TABLE f (k INT, v VARCHAR)")
    database.sql("CREATE TABLE d (id INT NOT NULL, tag VARCHAR)")
    database.sql(
        "INSERT INTO f VALUES (1, 'a'), (2, 'b'), (99, 'orphan'), (NULL, 'nullkey')"
    )
    database.sql("INSERT INTO d VALUES (1, 'one'), (2, 'two'), (3, 'unreferenced')")
    return database


class TestRightJoin:
    def test_preserves_right_side(self, db):
        result = db.sql(
            "SELECT f.v, d.tag FROM f RIGHT JOIN d ON f.k = d.id ORDER BY d.tag"
        )
        same_rows(result.rows, [("a", "one"), ("b", "two"), (None, "unreferenced")])

    def test_right_outer_keyword(self, db):
        result = db.sql("SELECT d.tag FROM f RIGHT OUTER JOIN d ON f.k = d.id")
        assert len(result.rows) == 3

    def test_every_arm_agrees(self, db):
        same_answers(db, "SELECT f.v, d.tag FROM f RIGHT JOIN d ON f.k = d.id")


class TestFullJoin:
    def test_preserves_both_sides(self, db):
        result = db.sql("SELECT f.v, d.tag FROM f FULL JOIN d ON f.k = d.id")
        same_rows(result.rows, [
            ("a", "one"), ("b", "two"), ("orphan", None), ("nullkey", None), (None, "unreferenced"),
        ])

    def test_full_outer_keyword(self, db):
        result = db.sql("SELECT f.v FROM f FULL OUTER JOIN d ON f.k = d.id")
        assert len(result.rows) == 5

    def test_every_arm_agrees(self, db):
        same_answers(db, "SELECT f.v, d.tag FROM f FULL JOIN d ON f.k = d.id")

    def test_aggregate_over_full_join(self, db):
        result = db.sql(
            "SELECT COUNT(*) AS n, COUNT(d.tag) AS matched "
            "FROM f FULL JOIN d ON f.k = d.id"
        )
        assert result.rows == [(5, 3)]


class TestOuterJoinPushdownSemantics:
    def test_null_side_filter_not_pushed_below_right_join(self, db):
        # f.v = 'a' over a RIGHT join must evaluate AFTER null extension:
        # unmatched d rows have f.v NULL and are filtered by the predicate,
        # but pushing it below would ALSO be wrong for differently-shaped
        # preserved rows. Verify end results against row-mode semantics.
        sql = (
            "SELECT f.v, d.tag FROM f RIGHT JOIN d ON f.k = d.id "
            "WHERE f.v = 'a'"
        )
        assert db.sql(sql).rows == [("a", "one")]

    def test_preserved_side_filter_pushes(self, db):
        sql = (
            "SELECT f.v, d.tag FROM f RIGHT JOIN d ON f.k = d.id "
            "WHERE d.tag = 'unreferenced'"
        )
        assert db.sql(sql).rows == [(None, "unreferenced")]

    def test_full_join_filters_stay_above(self, db):
        sql = (
            "SELECT f.v, d.tag FROM f FULL JOIN d ON f.k = d.id "
            "WHERE d.tag IS NULL"
        )
        same_rows(db.sql(sql).rows, [("orphan", None), ("nullkey", None)])


class TestSpilledOuterJoins:
    def test_right_join_spilled_matches_in_memory(self):
        db = Database()
        db.sql("CREATE TABLE f (k INT NOT NULL)")
        db.sql("CREATE TABLE d (id INT NOT NULL, pad VARCHAR)")
        db.bulk_load("f", [(i % 400,) for i in range(3000)])
        db.bulk_load("d", [(i, f"pad-{i}") for i in range(800)])  # half unmatched
        sql = (
            "SELECT COUNT(*) AS n, COUNT(f.k) AS matched "
            "FROM f RIGHT JOIN d ON f.k = d.id"
        )
        ample = db.sql(sql)
        starved = db.sql(sql, query_memory_budget=4096)
        assert ample.rows == starved.rows
        # 3000 matched pairs + 400 unmatched d rows.
        assert ample.rows == [(3400, 3000)]
