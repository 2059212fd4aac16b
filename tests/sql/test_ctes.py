"""WITH clauses: inlining, chaining, shadowing, and the unsupported edges."""

import pytest

from repro import Database
from repro.bench.harness import same_answers
from repro.errors import BindingError, SqlSyntaxError


@pytest.fixture
def db():
    database = Database()
    database.sql("CREATE TABLE t (a INT NOT NULL, b INT, tag VARCHAR(10))")
    database.sql(
        "INSERT INTO t VALUES (1, 10, 'x'), (2, 20, 'y'), (3, 30, 'x'), (4, 40, 'y')"
    )
    return database


class TestBasicCtes:
    def test_single_cte(self, db):
        result = db.sql(
            "WITH big AS (SELECT a FROM t WHERE b > 15) "
            "SELECT a FROM big ORDER BY a"
        )
        assert result.rows == [(2,), (3,), (4,)]

    def test_cte_with_aliases(self, db):
        result = db.sql(
            "WITH r AS (SELECT a AS id, b AS val FROM t) "
            "SELECT id FROM r WHERE val = 20"
        )
        assert result.rows == [(2,)]

    def test_cte_with_aggregate_body(self, db):
        result = db.sql(
            "WITH per_tag AS (SELECT tag, SUM(b) AS total FROM t GROUP BY tag) "
            "SELECT tag, total FROM per_tag ORDER BY tag"
        )
        assert result.rows == [("x", 40), ("y", 60)]

    def test_multiple_ctes(self, db):
        result = db.sql(
            "WITH ids AS (SELECT a FROM t WHERE b > 15), "
            "vals AS (SELECT a, b FROM t) "
            "SELECT v.a, v.b FROM ids i JOIN vals v ON i.a = v.a ORDER BY v.a"
        )
        assert result.rows == [(2, 20), (3, 30), (4, 40)]

    def test_chained_ctes(self, db):
        result = db.sql(
            "WITH first AS (SELECT a, b FROM t WHERE a > 1), "
            "second AS (SELECT a FROM first WHERE b < 35) "
            "SELECT COUNT(*) AS n FROM second"
        )
        assert result.rows == [(2,)]

    def test_same_cte_referenced_twice(self, db):
        result = db.sql(
            "WITH vals AS (SELECT a, b FROM t) "
            "SELECT x.a, y.a AS other FROM vals x JOIN vals y ON x.b = y.b "
            "WHERE x.a <> y.a"
        )
        assert result.rows == []

    def test_cte_joined_to_base_table(self, db):
        result = db.sql(
            "WITH picked AS (SELECT a FROM t WHERE tag = 'x') "
            "SELECT t.b FROM t JOIN picked p ON t.a = p.a ORDER BY t.b"
        )
        assert result.rows == [(10,), (30,)]

    def test_cte_shadows_base_table(self, db):
        result = db.sql(
            "WITH t AS (SELECT a FROM t WHERE a = 1) SELECT a FROM t"
        )
        assert result.rows == [(1,)]

    def test_cte_feeding_subquery(self, db):
        result = db.sql(
            "WITH picked AS (SELECT a FROM t WHERE b > 25) "
            "SELECT a FROM t WHERE a IN (SELECT a FROM picked) ORDER BY a"
        )
        assert result.rows == [(3,), (4,)]

    def test_modes_agree(self, db):
        sql = (
            "WITH per_tag AS (SELECT tag, SUM(b) AS total FROM t GROUP BY tag) "
            "SELECT tag, total FROM per_tag"
        )
        same_answers(db, sql)

    def test_explain_shows_inlined_plan(self, db):
        result = db.sql(
            "EXPLAIN WITH big AS (SELECT a FROM t WHERE b > 15) "
            "SELECT a FROM big"
        )
        text = "\n".join(row[0] for row in result.rows)
        # The CTE is inlined: the plan scans the base table directly.
        assert "Scan(t" in text
        assert "-- physical" in text


class TestCteErrors:
    def test_recursive_unsupported(self, db):
        with pytest.raises(SqlSyntaxError, match="RECURSIVE"):
            db.sql("WITH RECURSIVE r AS (SELECT a FROM t) SELECT a FROM r")

    def test_duplicate_name_rejected(self, db):
        with pytest.raises(BindingError, match="duplicate CTE name"):
            db.sql(
                "WITH x AS (SELECT a FROM t), x AS (SELECT b FROM t) "
                "SELECT a FROM x"
            )

    def test_nested_with_in_cte_body_unsupported(self, db):
        with pytest.raises(SqlSyntaxError, match="not supported: WITH"):
            db.sql(
                "WITH outer_cte AS (WITH inner_cte AS (SELECT a FROM t) "
                "SELECT a FROM inner_cte) SELECT a FROM outer_cte"
            )

    def test_with_inside_subquery_unsupported(self, db):
        with pytest.raises(SqlSyntaxError, match="top level"):
            db.sql(
                "SELECT a FROM t WHERE a = "
                "(WITH m AS (SELECT MIN(a) AS lo FROM t) SELECT lo FROM m)"
            )

    def test_later_cte_cannot_see_earlier_only_backwards(self, db):
        # Forward references are unknown tables.
        with pytest.raises(Exception):
            db.sql(
                "WITH first AS (SELECT a FROM second), "
                "second AS (SELECT a FROM t) SELECT a FROM first"
            )
