"""Tests for DISTINCT aggregates (two-level aggregation rewrite)."""

import pytest

from repro import Database
from repro.bench.harness import same_answers
from repro.errors import BindingError


@pytest.fixture
def db():
    database = Database()
    database.sql("CREATE TABLE t (g VARCHAR, v INT, w INT)")
    database.sql(
        "INSERT INTO t VALUES "
        "('a', 1, 10), ('a', 1, 20), ('a', 2, 30), "
        "('b', 5, 40), ('b', 5, 50), ('b', NULL, 60)"
    )
    return database


class TestCountDistinct:
    def test_global(self, db):
        assert db.sql("SELECT COUNT(DISTINCT v) AS n FROM t").scalar() == 3

    def test_grouped(self, db):
        result = db.sql(
            "SELECT g, COUNT(DISTINCT v) AS n FROM t GROUP BY g ORDER BY g"
        )
        assert result.rows == [("a", 2), ("b", 1)]

    def test_nulls_not_counted(self, db):
        # The b group has v values {5, NULL}: DISTINCT count is 1.
        result = db.sql("SELECT COUNT(DISTINCT v) AS n FROM t WHERE g = 'b'")
        assert result.scalar() == 1

    def test_with_where(self, db):
        assert db.sql(
            "SELECT COUNT(DISTINCT v) AS n FROM t WHERE w > 25"
        ).scalar() == 2  # {2, 5}


class TestOtherDistinctAggregates:
    def test_sum_distinct(self, db):
        assert db.sql("SELECT SUM(DISTINCT v) AS s FROM t").scalar() == 8  # 1+2+5

    def test_avg_distinct(self, db):
        assert db.sql("SELECT AVG(DISTINCT v) AS m FROM t").scalar() == pytest.approx(8 / 3)

    def test_min_max_distinct_are_plain(self, db):
        result = db.sql("SELECT MIN(DISTINCT v) AS lo, MAX(DISTINCT v) AS hi FROM t")
        assert result.rows == [(1, 5)]

    def test_count_and_sum_distinct_same_arg(self, db):
        result = db.sql(
            "SELECT g, COUNT(DISTINCT v) AS n, SUM(DISTINCT v) AS s "
            "FROM t GROUP BY g ORDER BY g"
        )
        assert result.rows == [("a", 2, 3), ("b", 1, 5)]


class TestRestrictions:
    def test_mixing_with_plain_aggregate_rejected(self, db):
        with pytest.raises(BindingError):
            db.sql("SELECT COUNT(DISTINCT v) AS n, SUM(w) AS s FROM t")

    def test_mixing_with_count_star_rejected(self, db):
        with pytest.raises(BindingError):
            db.sql("SELECT COUNT(DISTINCT v) AS n, COUNT(*) AS c FROM t")

    def test_two_different_distinct_args_rejected(self, db):
        with pytest.raises(BindingError):
            db.sql("SELECT COUNT(DISTINCT v) AS n, COUNT(DISTINCT w) AS m FROM t")


class TestModeEquivalence:
    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT COUNT(DISTINCT v) AS n FROM t",
            "SELECT g, COUNT(DISTINCT v) AS n FROM t GROUP BY g ORDER BY g",
            "SELECT g, SUM(DISTINCT v) AS s FROM t GROUP BY g ORDER BY g",
        ],
    )
    def test_every_arm_agrees(self, db, sql):
        same_answers(db, sql)
