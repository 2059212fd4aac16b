"""Tests for predicate analysis, expression rewriting, memory grants and
type inference — the supporting modules of the planner/executor."""

import numpy as np
import pytest

from repro import Database, schema, types
from repro.exec.batch import Batch
from repro.exec.expressions import (
    And,
    Arithmetic,
    Between,
    Case,
    Comparison,
    FunctionCall,
    InList,
    IsNull,
    Like,
    Not,
    Or,
    col,
    lit,
)
from repro.exec.memory import MemoryGrant, batch_bytes
from repro.exec.predicates import (
    combine_conjuncts,
    extract_column_ranges,
    single_column_of,
    split_conjuncts,
)
from repro.planner.rewrite import map_expression, rename_columns


class TestSplitConjuncts:
    def test_none(self):
        assert split_conjuncts(None) == []

    def test_flat(self):
        expr = Comparison("=", col("a"), lit(1))
        assert split_conjuncts(expr) == [expr]

    def test_nested_ands_flatten(self):
        a = Comparison("=", col("a"), lit(1))
        b = Comparison("=", col("b"), lit(2))
        c = Comparison("=", col("c"), lit(3))
        assert split_conjuncts(And(And(a, b), c)) == [a, b, c]

    def test_or_not_split(self):
        expr = Or(Comparison("=", col("a"), lit(1)), Comparison("=", col("b"), lit(2)))
        assert split_conjuncts(expr) == [expr]

    def test_combine_inverse(self):
        a = Comparison("=", col("a"), lit(1))
        b = Comparison("=", col("b"), lit(2))
        assert combine_conjuncts([]) is None
        assert combine_conjuncts([a]) is a
        combined = combine_conjuncts([a, b])
        assert split_conjuncts(combined) == [a, b]


class TestExtractRanges:
    def test_comparison_directions(self):
        ranges = extract_column_ranges(
            [Comparison(">=", col("a"), lit(5)), Comparison("<", col("a"), lit(10))]
        )
        assert ranges["a"].low == 5
        assert ranges["a"].high == 10

    def test_flipped_sides(self):
        ranges = extract_column_ranges([Comparison(">", lit(10), col("a"))])
        assert ranges["a"].high == 10
        assert ranges["a"].low is None

    def test_equality_pins_both(self):
        ranges = extract_column_ranges([Comparison("=", col("a"), lit(7))])
        assert (ranges["a"].low, ranges["a"].high) == (7, 7)

    def test_between(self):
        ranges = extract_column_ranges([Between(col("a"), lit(1), lit(9))])
        assert (ranges["a"].low, ranges["a"].high) == (1, 9)

    def test_in_list_bounds(self):
        ranges = extract_column_ranges([InList(col("a"), [4, 2, 8])])
        assert (ranges["a"].low, ranges["a"].high) == (2, 8)

    def test_tightening(self):
        ranges = extract_column_ranges(
            [Comparison(">", col("a"), lit(0)), Comparison(">", col("a"), lit(5))]
        )
        assert ranges["a"].low == 5

    def test_column_vs_column_ignored(self):
        assert extract_column_ranges([Comparison("<", col("a"), col("b"))]) == {}

    def test_not_equal_ignored(self):
        ranges = extract_column_ranges([Comparison("!=", col("a"), lit(1))])
        assert ranges.get("a") is None or (ranges["a"].low is None and ranges["a"].high is None)

    def test_single_column_of(self):
        assert single_column_of(Comparison("=", col("a"), lit(1))) == "a"
        assert single_column_of(Comparison("=", col("a"), col("b"))) is None
        assert single_column_of(lit(1)) is None


class TestRewrite:
    def full_expr(self):
        return And(
            Or(
                Comparison("<", Arithmetic("+", col("a"), lit(1)), col("b")),
                Like(col("s"), "x%"),
            ),
            Not(IsNull(col("a"))),
            Between(col("b"), lit(0), lit(10)),
            InList(col("s"), ["p", "q"]),
            Case([(Comparison("=", col("a"), lit(1)), lit("one"))], lit("other")),
            FunctionCall("coalesce", col("a"), col("b")),
        )

    def test_rename_columns_complete(self):
        renamed = rename_columns(self.full_expr(), {"a": "t.a", "s": "t.s"})
        refs = renamed.referenced_columns()
        assert refs == {"t.a", "b", "t.s"}

    def test_rename_does_not_mutate_original(self):
        expr = self.full_expr()
        rename_columns(expr, {"a": "x"})
        assert "a" in expr.referenced_columns()

    def test_renamed_expression_still_evaluates(self):
        expr = Comparison(">", col("a"), lit(1))
        renamed = rename_columns(expr, {"a": "q"})
        batch = Batch.from_pydict({"q": [0, 5]})
        values, _ = renamed.eval_batch(batch)
        assert values.tolist() == [False, True]

    def test_map_expression_replaces_nodes(self):
        expr = Arithmetic("+", col("a"), lit(1))

        def bump_literals(node):
            from repro.exec.expressions import Literal

            if isinstance(node, Literal) and node.value == 1:
                return Literal(100)
            return None

        mapped = map_expression(expr, bump_literals)
        assert mapped.eval_row({"a": 1}) == 101
        assert expr.eval_row({"a": 1}) == 2  # original untouched


class TestMemoryGrant:
    def test_reserve_within_budget(self):
        grant = MemoryGrant(budget_bytes=100)
        assert grant.try_reserve(60)
        assert grant.reserved_bytes == 60
        assert not grant.try_reserve(41)
        assert grant.try_reserve(40)

    def test_exhaustion_returns_false(self):
        grant = MemoryGrant(budget_bytes=100)
        assert grant.try_reserve(80)
        assert not grant.try_reserve(30)

    def test_release_and_peak(self):
        grant = MemoryGrant(budget_bytes=100)
        grant.try_reserve(70)
        grant.release(50)
        assert grant.reserved_bytes == 20
        assert grant.peak_bytes == 70

    def test_release_never_negative(self):
        grant = MemoryGrant()
        grant.release(10)
        assert grant.reserved_bytes == 0

    def test_batch_bytes_counts_strings(self):
        small = batch_bytes({"a": np.zeros(10, dtype=np.int64)})
        big = batch_bytes({"a": np.array(["x" * 100] * 10, dtype=object)})
        assert big > small


class TestSchemaInference:
    @pytest.fixture
    def db(self):
        database = Database()
        database.create_table(
            "t",
            schema(
                ("i", types.INT, False),
                ("d", types.DATE),
                ("m", types.decimal(2)),
                ("s", types.VARCHAR),
            ),
        )
        return database

    def test_result_dtypes_surface(self, db):
        db.sql("INSERT INTO t VALUES (1, '2024-05-05', 10.50, 'x')")
        result = db.sql("SELECT i, d, m, s FROM t")
        assert [str(d) for d in result.dtypes] == [
            "INT", "DATE", "DECIMAL(18,2)", "VARCHAR",
        ]

    def test_aggregate_result_dtypes(self, db):
        db.sql("INSERT INTO t VALUES (1, '2024-05-05', 10.50, 'x')")
        result = db.sql(
            "SELECT COUNT(*) AS n, SUM(i) AS si, SUM(m) AS sm, AVG(i) AS ai FROM t"
        )
        assert [str(d) for d in result.dtypes] == [
            "BIGINT", "BIGINT", "DECIMAL(18,2)", "FLOAT",
        ]
        assert result.rows == [(1, 1, 10.5, 1.0)]
