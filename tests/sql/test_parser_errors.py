"""Parser diagnostics: line/column positions and not-supported messages."""

import pytest

from repro import Database
from repro.errors import SqlSyntaxError
from repro.sql.parser import parse_statement


@pytest.fixture
def db():
    database = Database()
    database.sql("CREATE TABLE t (a INT, b INT)")
    return database


def error_for(sql: str) -> SqlSyntaxError:
    with pytest.raises(SqlSyntaxError) as info:
        parse_statement(sql)
    return info.value


class TestPositions:
    def test_error_carries_line_and_column(self):
        # "FRM" parses as an alias for a, so the parser trips on 't'.
        err = error_for("SELECT a FRM t")
        assert err.line == 1
        assert err.column == 14
        assert "line 1, column 14" in str(err)

    def test_offending_token_named(self):
        err = error_for("SELECT a FRM t")
        assert "'t'" in str(err)

    def test_multiline_position(self):
        err = error_for("SELECT a\nFROM t\nWHERE a == 1")
        assert err.line == 3
        assert "line 3" in str(err)

    def test_lexer_error_position(self):
        err = error_for("SELECT a FROM t WHERE a = $1")
        assert err.line == 1
        assert err.column == 27

    def test_missing_closing_paren(self):
        err = error_for("SELECT a FROM t WHERE a IN (1, 2")
        assert err.line == 1
        assert "expected" in str(err).lower()

    def test_incomplete_statement(self):
        err = error_for("SELECT a FROM")
        assert "line 1" in str(err)


class TestNotSupportedMessages:
    def test_recursive_cte(self):
        err = error_for("WITH RECURSIVE r AS (SELECT 1 AS x) SELECT x FROM r")
        assert "not supported: RECURSIVE" in str(err)

    def test_union(self):
        err = error_for("SELECT a FROM t UNION SELECT b FROM t")
        assert "not supported: UNION" in str(err)

    def test_intersect(self):
        err = error_for("SELECT a FROM t INTERSECT SELECT b FROM t")
        assert "set operations" in str(err)

    def test_window_frames(self):
        err = error_for(
            "SELECT SUM(a) OVER (ORDER BY a ROWS UNBOUNDED PRECEDING) AS s FROM t"
        )
        assert "not supported: window frames" in str(err)
        assert "default frame" in str(err)

    def test_unknown_window_function(self):
        err = error_for("SELECT LAG(a) OVER (ORDER BY a) AS x FROM t")
        assert "not supported: window function LAG" in str(err)

    def test_with_inside_subquery(self):
        err = error_for(
            "SELECT a FROM t WHERE a = "
            "(WITH m AS (SELECT 1 AS x) SELECT x FROM m)"
        )
        assert "declare CTEs at the top level" in str(err)

    def test_nested_with_in_cte(self):
        err = error_for(
            "WITH o AS (WITH i AS (SELECT 1 AS x) SELECT x FROM i) "
            "SELECT x FROM o"
        )
        assert "WITH nested inside a CTE body" in str(err)

    def test_distinct_in_window(self):
        err = error_for("SELECT COUNT(DISTINCT a) OVER () AS c FROM t")
        assert "DISTINCT inside a window function" in str(err)


class TestParserAcceptsNewSurface:
    def test_exists_parses(self):
        parse_statement("SELECT a FROM t WHERE EXISTS (SELECT b FROM t)")

    def test_not_exists_parses(self):
        parse_statement("SELECT a FROM t WHERE NOT EXISTS (SELECT b FROM t)")

    def test_in_subquery_parses(self):
        parse_statement("SELECT a FROM t WHERE a IN (SELECT b FROM t)")

    def test_scalar_subquery_parses(self):
        parse_statement("SELECT a FROM t WHERE a = (SELECT MAX(b) FROM t)")

    def test_with_parses(self):
        stmt = parse_statement("WITH c AS (SELECT a FROM t) SELECT a FROM c")
        assert len(stmt.ctes) == 1

    def test_explain_with_parses(self):
        parse_statement("EXPLAIN WITH c AS (SELECT a FROM t) SELECT a FROM c")

    def test_window_parses(self):
        parse_statement(
            "SELECT a, SUM(b) OVER (PARTITION BY a ORDER BY b DESC) AS s FROM t"
        )

    def test_errors_surface_through_database(self, db):
        with pytest.raises(SqlSyntaxError, match="line 1, column"):
            db.sql("SELECT a FRM t")


class TestNumericLiterals:
    """A malformed or out-of-range number is a syntax error at its offset,
    never a Python ValueError / OverflowError escaping the parser."""

    @pytest.mark.parametrize(
        "sql, column",
        [
            ("SELECT 1.2.3 FROM t", 8),
            ("SELECT a FROM t WHERE a = 1e", 27),
            ("SELECT a FROM t WHERE a = 1e+", 27),
            ("SELECT a FROM t WHERE a = .5.5", 27),
            ("SELECT a FROM t\nWHERE a = 2.5e", 11),
        ],
    )
    def test_malformed_number(self, sql, column):
        err = error_for(sql)
        assert "malformed number" in str(err)
        assert (err.line, err.column) == (sql[: err.position].count("\n") + 1, column)

    def test_integer_outside_int64(self):
        err = error_for("SELECT a FROM t WHERE a = 9223372036854775808")
        assert "integer literal out of range" in str(err)
        assert (err.line, err.column) == (1, 27)

    def test_largest_int64_is_a_literal(self, db):
        assert db.sql("SELECT a FROM t WHERE a = 9223372036854775807").rows == []
        assert db.sql("SELECT a FROM t WHERE a = -9223372036854775807").rows == []

    def test_fractional_type_parameter(self):
        err = error_for("CREATE TABLE u (s VARCHAR(1.5))")
        assert "expected numeric type parameter" in str(err)

    @pytest.mark.parametrize(
        "sql",
        ["SELECT 1.2.3 FROM t", "INSERT INTO t VALUES (1e, 2)",
         "UPDATE t SET a = 99999999999999999999"],
    )
    def test_errors_surface_through_database(self, db, sql):
        with pytest.raises(SqlSyntaxError, match="line 1, column"):
            db.sql(sql)
