"""Tests for n-ary scalar functions: COALESCE, CONCAT, SUBSTR, ROUND."""

import pytest

from repro import Database
from repro.bench.harness import same_answers
from repro.errors import BindingError
from repro.exec.batch import Batch
from repro.exec.expressions import ExecutionError, FunctionCall, col, lit


@pytest.fixture
def batch():
    return Batch.from_pydict(
        {
            "a": [1, None, 3],
            "b": [None, 20, 30],
            "s": ["hello", "wor", None],
            "f": [1.2345, 2.5, None],
        }
    )


def rows_of(batch):
    names = batch.names
    return [dict(zip(names, row)) for row in batch.to_rows()]


def check_consistency(expr, batch):
    values, nulls = expr.eval_batch(batch)
    for i, row in enumerate(rows_of(batch)):
        expected = expr.eval_row(row)
        if nulls is not None and nulls[i]:
            assert expected is None
        else:
            got = values[i]
            got = got.item() if hasattr(got, "item") else got
            assert expected == pytest.approx(got) if isinstance(got, float) else expected == got


class TestCoalesce:
    def test_picks_first_non_null(self, batch):
        expr = FunctionCall("coalesce", col("a"), col("b"))
        values, nulls = expr.eval_batch(batch)
        assert values.tolist() == [1, 20, 3]
        assert nulls is None

    def test_falls_through_to_literal(self, batch):
        expr = FunctionCall("coalesce", col("a"), lit(-1))
        values, _ = expr.eval_batch(batch)
        assert values.tolist() == [1, -1, 3]

    def test_all_null_row_stays_null(self):
        b = Batch.from_pydict({"x": [None], "y": [None]})
        _, nulls = FunctionCall("coalesce", col("x"), col("y")).eval_batch(b)
        assert nulls[0]

    def test_row_mode(self, batch):
        check_consistency(FunctionCall("coalesce", col("a"), col("b"), lit(0)), batch)


class TestConcat:
    def test_null_becomes_empty(self, batch):
        expr = FunctionCall("concat", col("s"), lit("!"))
        values, nulls = expr.eval_batch(batch)
        assert values.tolist() == ["hello!", "wor!", "!"]
        assert nulls is None

    def test_numbers_stringify(self, batch):
        expr = FunctionCall("concat", lit("v="), col("a"))
        values, _ = expr.eval_batch(batch)
        assert values[0] == "v=1"
        assert values[1] == "v="  # NULL -> ''

    def test_row_mode(self, batch):
        check_consistency(FunctionCall("concat", col("s"), col("s")), batch)


class TestSubstr:
    def test_one_based(self, batch):
        expr = FunctionCall("substr", col("s"), lit(2), lit(3))
        values, nulls = expr.eval_batch(batch)
        assert values[0] == "ell"
        assert values[1] == "or"
        assert nulls.tolist() == [False, False, True]

    def test_without_length(self, batch):
        expr = FunctionCall("substr", col("s"), lit(3))
        values, _ = expr.eval_batch(batch)
        assert values[0] == "llo"

    def test_row_mode(self, batch):
        check_consistency(FunctionCall("substr", col("s"), lit(1), lit(2)), batch)


class TestRound:
    def test_default_digits(self, batch):
        expr = FunctionCall("round", col("f"))
        values, nulls = expr.eval_batch(batch)
        assert values[0] == 1.0
        assert nulls.tolist() == [False, False, True]

    def test_with_digits(self, batch):
        expr = FunctionCall("round", col("f"), lit(2))
        values, _ = expr.eval_batch(batch)
        assert values[0] == pytest.approx(1.23)

    def test_row_mode(self, batch):
        check_consistency(FunctionCall("round", col("f"), lit(1)), batch)


class TestArityValidation:
    def test_unary_rejects_two_args(self):
        with pytest.raises(ExecutionError):
            FunctionCall("abs", col("a"), col("b"))

    def test_substr_needs_at_least_two(self):
        with pytest.raises(ExecutionError):
            FunctionCall("substr", col("s"))

    def test_unknown_function(self):
        with pytest.raises(ExecutionError):
            FunctionCall("frobnicate", col("a"))


class TestSqlIntegration:
    @pytest.fixture
    def db(self):
        database = Database()
        database.sql("CREATE TABLE t (a INT, s VARCHAR, f FLOAT)")
        database.sql(
            "INSERT INTO t VALUES (1, 'alpha', 1.25), (NULL, 'beta', NULL), (3, NULL, 9.875)"
        )
        return database

    def test_coalesce_sql(self, db):
        result = db.sql("SELECT COALESCE(a, 0) AS v FROM t ORDER BY v")
        assert [r[0] for r in result.rows] == [0, 1, 3]

    def test_concat_sql(self, db):
        result = db.sql("SELECT CONCAT(s, '-', a) AS v FROM t WHERE a = 1")
        assert result.rows == [("alpha-1",)]

    def test_substr_sql(self, db):
        result = db.sql("SELECT SUBSTR(s, 1, 2) AS v FROM t WHERE s IS NOT NULL ORDER BY v")
        assert [r[0] for r in result.rows] == ["al", "be"]

    def test_round_sql(self, db):
        result = db.sql("SELECT ROUND(f, 1) AS v FROM t WHERE a = 3")
        assert result.rows == [(9.9,)]

    def test_modes_agree(self, db):
        sql = (
            "SELECT COALESCE(s, 'missing') AS s2, CONCAT(s, '/', f) AS c "
            "FROM t ORDER BY s2"
        )
        same_answers(db, sql)

    def test_bad_arity_is_binding_error(self, db):
        with pytest.raises(BindingError):
            db.sql("SELECT SUBSTR(s) AS v FROM t")
