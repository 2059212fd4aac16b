"""Window functions: ranking, partitioned and running aggregates, errors."""

import pytest

from repro import Database
from repro.errors import BindingError, SqlSyntaxError
from repro.exec.operators.window import WindowSpec, compute_window_columns


@pytest.fixture
def db():
    database = Database()
    database.sql("CREATE TABLE t (a INT NOT NULL, b INT, tag VARCHAR(10))")
    database.sql(
        "INSERT INTO t VALUES (1, 10, 'x'), (2, 20, 'y'), (3, 30, 'x'), "
        "(4, 20, 'y'), (5, NULL, NULL)"
    )
    return database


def by_a(result):
    return sorted(result.rows)


class TestRankingFunctions:
    def test_row_number(self, db):
        result = db.sql(
            "SELECT a, ROW_NUMBER() OVER (ORDER BY a DESC) AS rn FROM t"
        )
        assert by_a(result) == [(1, 5), (2, 4), (3, 3), (4, 2), (5, 1)]

    def test_row_number_partitioned(self, db):
        result = db.sql(
            "SELECT a, ROW_NUMBER() OVER (PARTITION BY tag ORDER BY a) AS rn FROM t"
        )
        assert by_a(result) == [(1, 1), (2, 1), (3, 2), (4, 2), (5, 1)]

    def test_rank_with_ties(self, db):
        # b=20 twice: both rank 2, the next value ranks 4.
        result = db.sql(
            "SELECT a, RANK() OVER (ORDER BY b) AS r FROM t WHERE b IS NOT NULL"
        )
        assert by_a(result) == [(1, 1), (2, 2), (3, 4), (4, 2)]

    def test_dense_rank_with_ties(self, db):
        result = db.sql(
            "SELECT a, DENSE_RANK() OVER (ORDER BY b) AS r FROM t WHERE b IS NOT NULL"
        )
        assert by_a(result) == [(1, 1), (2, 2), (3, 3), (4, 2)]

    def test_order_nulls_sort_last(self, db):
        result = db.sql("SELECT a, ROW_NUMBER() OVER (ORDER BY b) AS rn FROM t")
        assert by_a(result) == [(1, 1), (2, 2), (3, 4), (4, 3), (5, 5)]


class TestWindowAggregates:
    def test_count_star_whole_table(self, db):
        result = db.sql("SELECT a, COUNT(*) OVER () AS n FROM t")
        assert by_a(result) == [(1, 5), (2, 5), (3, 5), (4, 5), (5, 5)]

    def test_partitioned_sum(self, db):
        result = db.sql("SELECT a, SUM(b) OVER (PARTITION BY tag) AS s FROM t")
        assert by_a(result) == [(1, 40), (2, 40), (3, 40), (4, 40), (5, None)]

    def test_null_partition_keys_group_together(self, db):
        result = db.sql("SELECT a, COUNT(*) OVER (PARTITION BY tag) AS n FROM t")
        assert by_a(result) == [(1, 2), (2, 2), (3, 2), (4, 2), (5, 1)]

    def test_running_sum(self, db):
        result = db.sql("SELECT a, SUM(b) OVER (ORDER BY a) AS s FROM t")
        assert by_a(result) == [(1, 10), (2, 30), (3, 60), (4, 80), (5, 80)]

    def test_running_sum_peers_share_value(self, db):
        # ORDER BY b: rows with b=20 are peers and see the same running sum.
        result = db.sql(
            "SELECT a, SUM(b) OVER (ORDER BY b) AS s FROM t WHERE b IS NOT NULL"
        )
        assert by_a(result) == [(1, 10), (2, 50), (3, 80), (4, 50)]

    def test_count_arg_skips_nulls(self, db):
        result = db.sql("SELECT a, COUNT(b) OVER () AS n FROM t")
        assert by_a(result) == [(1, 4), (2, 4), (3, 4), (4, 4), (5, 4)]

    def test_min_max_partitioned(self, db):
        result = db.sql(
            "SELECT a, MIN(b) OVER (PARTITION BY tag) AS lo, "
            "MAX(b) OVER (PARTITION BY tag) AS hi FROM t"
        )
        assert by_a(result) == [
            (1, 10, 30),
            (2, 20, 20),
            (3, 10, 30),
            (4, 20, 20),
            (5, None, None),
        ]

    def test_avg(self, db):
        result = db.sql(
            "SELECT a, AVG(b) OVER (PARTITION BY tag) AS m FROM t WHERE tag = 'x'"
        )
        assert by_a(result) == [(1, 20.0), (3, 20.0)]

    def test_multiple_windows_one_select(self, db):
        result = db.sql(
            "SELECT a, ROW_NUMBER() OVER (ORDER BY a) AS rn, "
            "SUM(b) OVER (PARTITION BY tag) AS s FROM t WHERE tag IS NOT NULL"
        )
        assert by_a(result) == [(1, 1, 40), (2, 2, 40), (3, 3, 40), (4, 4, 40)]

    def test_window_over_expression(self, db):
        result = db.sql("SELECT a, SUM(b) OVER (PARTITION BY a * 0) AS s FROM t")
        assert by_a(result) == [(1, 80), (2, 80), (3, 80), (4, 80), (5, 80)]

    def test_window_output_usable_in_order_by(self, db):
        result = db.sql(
            "SELECT a, ROW_NUMBER() OVER (ORDER BY a DESC) AS rn FROM t "
            "ORDER BY rn LIMIT 2"
        )
        assert result.rows == [(5, 1), (4, 2)]

    def test_modes_agree(self, db):
        sql = (
            "SELECT a, RANK() OVER (PARTITION BY tag ORDER BY b) AS r, "
            "SUM(b) OVER (ORDER BY a) AS s FROM t"
        )
        assert by_a(db.sql(sql, mode="batch")) == by_a(db.sql(sql, mode="row"))


class TestWindowSpill:
    def test_spilled_window_equals_in_memory(self):
        """Over budget, rows go to spill files by their partition key (the
        one spill partition hash): every NULL key to the same file, a FLOAT
        key by value (-0.0 and 0.0 are one partition). The answer is the
        in-memory one, in input order."""
        db = Database()
        db.sql("CREATE TABLE w (a INT NOT NULL, g FLOAT, v INT)")
        keys = ["NULL" if i % 7 == 0 else "-0.0" if i % 10 == 5 else
                str(i % 5 + (0.5 if i % 3 == 0 else 0.0)) for i in range(400)]
        db.sql("INSERT INTO w VALUES " + ", ".join(
            f"({i}, {key}, {i % 11})" for i, key in enumerate(keys)))
        sql = ("SELECT a, g, SUM(v) OVER (PARTITION BY g) AS s, "
               "ROW_NUMBER() OVER (PARTITION BY g ORDER BY a) AS rn FROM w")
        expected = db.sql(sql).rows
        spilled = db.sql(sql, grant_bytes=1024, stats=True)
        assert spilled.rows == expected
        (window,) = spilled.stats.find("BatchWindow")
        assert window.details["partitions_spilled"] > 1


class TestWindowPlans:
    def test_explain_shows_window_node(self, db):
        result = db.sql(
            "EXPLAIN SELECT a, ROW_NUMBER() OVER (ORDER BY a) AS rn FROM t"
        )
        text = "\n".join(row[0] for row in result.rows)
        assert "Window(row_number" in text
        assert "BatchWindow(row_number" in text

    def test_explain_row_mode(self, db):
        result = db.sql(
            "EXPLAIN SELECT a, SUM(b) OVER (PARTITION BY tag) AS s FROM t",
            mode="row",
        )
        text = "\n".join(row[0] for row in result.rows)
        assert "RowWindow(sum" in text

    def test_explain_analyze_window_counters(self, db):
        result = db.sql(
            "EXPLAIN ANALYZE SELECT a, SUM(b) OVER (PARTITION BY tag) AS s FROM t"
        )
        text = "\n".join(row[0] for row in result.rows)
        assert "BatchWindow(sum" in text
        assert "actual: rows=5" in text

    def test_filter_pushes_below_window(self, db):
        # The WHERE filters before the window computes, and stays below it.
        result = db.sql(
            "EXPLAIN SELECT a, SUM(b) OVER () AS s FROM t WHERE a > 1"
        )
        text = "\n".join(row[0] for row in result.rows)
        window_at = text.index("Window(")
        scan_at = text.index("Scan(t")
        assert window_at < scan_at


class TestWindowErrors:
    def test_rejected_in_where(self, db):
        with pytest.raises(BindingError, match="select list"):
            db.sql("SELECT a FROM t WHERE ROW_NUMBER() OVER (ORDER BY a) = 1")

    def test_rejected_with_group_by(self, db):
        with pytest.raises(BindingError, match="GROUP BY"):
            db.sql(
                "SELECT tag, SUM(b) AS s, ROW_NUMBER() OVER (ORDER BY tag) AS rn "
                "FROM t GROUP BY tag"
            )

    def test_frames_unsupported(self, db):
        with pytest.raises(SqlSyntaxError, match="window frames"):
            db.sql(
                "SELECT a, SUM(b) OVER (ORDER BY a ROWS BETWEEN 1 PRECEDING "
                "AND CURRENT ROW) AS s FROM t"
            )

    def test_unknown_window_function(self, db):
        with pytest.raises(SqlSyntaxError, match="NTILE"):
            db.sql("SELECT a, NTILE(2) OVER (ORDER BY a) AS n FROM t")

    def test_distinct_in_window_unsupported(self, db):
        with pytest.raises(SqlSyntaxError, match="DISTINCT"):
            db.sql("SELECT a, SUM(DISTINCT b) OVER () AS s FROM t")

    def test_spec_validation(self):
        from repro.errors import ExecutionError

        with pytest.raises(ExecutionError, match="requires an argument"):
            WindowSpec(func="sum", arg=None, partition_by=(), order_by=(), name="w")
        with pytest.raises(ExecutionError, match="unknown window function"):
            WindowSpec(
                func="nope", arg="b", partition_by=(), order_by=(), name="w"
            )


class TestComputeWindowColumns:
    def test_direct_computation(self):
        rows = [
            {"g": "a", "v": 3},
            {"g": "a", "v": 1},
            {"g": "b", "v": 2},
        ]
        specs = [
            WindowSpec(
                func="row_number",
                arg=None,
                partition_by=("g",),
                order_by=(("v", False),),
                name="rn",
            ),
            WindowSpec(
                func="sum", arg="v", partition_by=("g",), order_by=(), name="s"
            ),
        ]
        out = compute_window_columns(rows, specs)
        assert out["rn"] == [2, 1, 1]
        assert out["s"] == [4, 4, 2]
