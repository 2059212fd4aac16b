"""Subqueries: scalar, IN/NOT IN, EXISTS/NOT EXISTS, decorrelation, 3VL."""

import pytest

from repro import Database
from repro.bench.harness import same_answers
from repro.errors import BindingError


@pytest.fixture
def db():
    database = Database()
    database.sql("CREATE TABLE t (a INT NOT NULL, b INT, tag VARCHAR(10))")
    database.sql(
        "INSERT INTO t VALUES (1, 10, 'x'), (2, 20, 'y'), (3, 30, 'x'), "
        "(4, NULL, 'y'), (5, 50, NULL)"
    )
    database.sql("CREATE TABLE u (k INT NOT NULL, v INT)")
    database.sql("INSERT INTO u VALUES (1, 100), (2, 200), (3, NULL)")
    database.sql("CREATE TABLE empty_t (e INT)")
    return database


def rows(result):
    return sorted(result.rows)


class TestScalarSubqueries:
    def test_in_comparison(self, db):
        result = db.sql("SELECT a FROM t WHERE a > (SELECT MIN(k) FROM u)")
        assert rows(result) == [(2,), (3,), (4,), (5,)]

    def test_in_select_list(self, db):
        result = db.sql("SELECT a, (SELECT MAX(k) FROM u) AS m FROM t WHERE a = 1")
        assert result.rows == [(1, 3)]

    def test_in_arithmetic(self, db):
        result = db.sql("SELECT a + (SELECT MIN(k) FROM u) AS s FROM t WHERE a = 1")
        assert result.rows == [(2,)]

    def test_nested_scalar(self, db):
        result = db.sql(
            "SELECT a FROM t WHERE a = (SELECT MIN(k) FROM u WHERE k > "
            "(SELECT MIN(a) FROM t))"
        )
        assert result.rows == [(2,)]

    def test_aggregate_over_empty_is_null(self, db):
        # MAX over zero rows is NULL; NULL comparison rejects every row.
        result = db.sql("SELECT a FROM t WHERE a > (SELECT MAX(e) FROM empty_t)")
        assert result.rows == []

    def test_more_than_one_row_rejected(self, db):
        with pytest.raises(BindingError, match="more than one row"):
            db.sql("SELECT a FROM t WHERE a = (SELECT k FROM u)")

    def test_more_than_one_column_rejected(self, db):
        with pytest.raises(BindingError, match="exactly one column"):
            db.sql("SELECT a FROM t WHERE a = (SELECT k, v FROM u)")


class TestInSubqueries:
    def test_uncorrelated_in(self, db):
        result = db.sql("SELECT a FROM t WHERE a IN (SELECT k FROM u)")
        assert rows(result) == [(1,), (2,), (3,)]

    def test_uncorrelated_not_in(self, db):
        result = db.sql("SELECT a FROM t WHERE a NOT IN (SELECT k FROM u)")
        assert rows(result) == [(4,), (5,)]

    def test_not_in_with_null_in_set_is_empty(self, db):
        # v contains NULL: x NOT IN (..., NULL) is never TRUE.
        result = db.sql("SELECT a FROM t WHERE a NOT IN (SELECT v FROM u)")
        assert result.rows == []

    def test_not_in_null_free_set(self, db):
        result = db.sql(
            "SELECT a FROM t WHERE a NOT IN (SELECT v FROM u WHERE v IS NOT NULL)"
        )
        assert rows(result) == [(1,), (2,), (3,), (4,), (5,)]

    def test_in_empty_set_is_false(self, db):
        result = db.sql("SELECT a FROM t WHERE a IN (SELECT e FROM empty_t)")
        assert result.rows == []

    def test_not_in_empty_set_is_true(self, db):
        result = db.sql("SELECT a FROM t WHERE a NOT IN (SELECT e FROM empty_t)")
        assert rows(result) == [(1,), (2,), (3,), (4,), (5,)]

    def test_null_operand_in_nonempty_set(self, db):
        # b is NULL for a=4: NULL IN (...) is UNKNOWN, so the row is rejected.
        result = db.sql("SELECT a FROM t WHERE b IN (SELECT v FROM u)")
        assert result.rows == []

    def test_multi_column_inner_rejected(self, db):
        with pytest.raises(BindingError, match="exactly one column"):
            db.sql("SELECT a FROM t WHERE a IN (SELECT k, v FROM u)")

    def test_modes_agree(self, db):
        same_answers(db, "SELECT a FROM t WHERE a IN (SELECT k FROM u)")


class TestExistsSubqueries:
    def test_uncorrelated_exists(self, db):
        result = db.sql("SELECT a FROM t WHERE EXISTS (SELECT 1 FROM u)")
        assert len(result.rows) == 5

    def test_uncorrelated_exists_false(self, db):
        result = db.sql("SELECT a FROM t WHERE EXISTS (SELECT e FROM empty_t)")
        assert result.rows == []

    def test_uncorrelated_not_exists(self, db):
        result = db.sql("SELECT a FROM t WHERE NOT EXISTS (SELECT e FROM empty_t)")
        assert len(result.rows) == 5

    def test_correlated_exists(self, db):
        result = db.sql(
            "SELECT a FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.k = t.a)"
        )
        assert rows(result) == [(1,), (2,), (3,)]

    def test_correlated_not_exists(self, db):
        result = db.sql(
            "SELECT a FROM t WHERE NOT EXISTS (SELECT 1 FROM u WHERE u.k = t.a)"
        )
        assert rows(result) == [(4,), (5,)]

    def test_correlated_with_extra_inner_filter(self, db):
        result = db.sql(
            "SELECT a FROM t WHERE EXISTS "
            "(SELECT 1 FROM u WHERE u.k = t.a AND u.v > 100)"
        )
        assert rows(result) == [(2,)]

    def test_null_probe_key_never_matches(self, db):
        # b is NULL for a=4: the EXISTS probe finds nothing, NOT EXISTS keeps it.
        db.sql("CREATE TABLE w (x INT)")
        db.sql("INSERT INTO w VALUES (10), (50)")
        result = db.sql(
            "SELECT a FROM t WHERE NOT EXISTS (SELECT 1 FROM w WHERE w.x = t.b)"
        )
        assert rows(result) == [(2,), (3,), (4,)]

    def test_modes_agree(self, db):
        same_answers(db, "SELECT a FROM t WHERE NOT EXISTS (SELECT 1 FROM u WHERE u.k = t.a)")


class TestDecorrelationPlans:
    def explain(self, db, sql):
        return "\n".join(row[0] for row in db.sql("EXPLAIN " + sql).rows)

    def test_correlated_exists_plans_semi_join(self, db):
        plan = self.explain(
            db, "SELECT a FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.k = t.a)"
        )
        assert "Join(semi" in plan

    def test_correlated_not_exists_plans_anti_join(self, db):
        plan = self.explain(
            db, "SELECT a FROM t WHERE NOT EXISTS (SELECT 1 FROM u WHERE u.k = t.a)"
        )
        assert "Join(anti" in plan

    def test_uncorrelated_in_inlines_value_list(self, db):
        plan = self.explain(db, "SELECT a FROM t WHERE a IN (SELECT k FROM u)")
        assert "IN (" in plan

    def test_explain_analyze_semi_join_counters(self, db):
        result = db.sql(
            "EXPLAIN ANALYZE SELECT a FROM t WHERE EXISTS "
            "(SELECT 1 FROM u WHERE u.k = t.a)"
        )
        text = "\n".join(row[0] for row in result.rows)
        assert "semi" in text
        assert "actual: rows=" in text
        assert "build_rows=" in text

    def test_correlated_not_in_rejected(self, db):
        with pytest.raises(BindingError, match="NOT EXISTS"):
            db.sql(
                "SELECT a FROM t WHERE a NOT IN "
                "(SELECT k FROM u WHERE u.k = t.a)"
            )

    def test_non_equality_correlation_rejected(self, db):
        with pytest.raises(BindingError, match="correlated"):
            db.sql(
                "SELECT a FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.k > t.a)"
            )


class TestSubqueryInteractions:
    def test_in_subquery_with_aggregation(self, db):
        result = db.sql(
            "SELECT a FROM t WHERE tag IN "
            "(SELECT tag FROM t GROUP BY tag HAVING COUNT(*) > 1)"
        )
        assert rows(result) == [(1,), (2,), (3,), (4,)]

    def test_subquery_in_having(self, db):
        result = db.sql(
            "SELECT tag, COUNT(*) AS n FROM t GROUP BY tag "
            "HAVING COUNT(*) > (SELECT MIN(k) FROM u)"
        )
        assert sorted(result.rows) == [("x", 2), ("y", 2)]

    def test_exists_combined_with_plain_predicate(self, db):
        result = db.sql(
            "SELECT a FROM t WHERE a > 1 AND EXISTS "
            "(SELECT 1 FROM u WHERE u.k = t.a)"
        )
        assert rows(result) == [(2,), (3,)]
