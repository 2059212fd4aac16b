"""Tests for statistics: selectivity heuristics and segment histograms."""

import pytest

from repro import Database, StoreConfig, schema, types
from repro.exec.expressions import (
    Between,
    Comparison,
    InList,
    IsNull,
    Like,
    Not,
    Or,
    col,
    lit,
)
from repro.planner.stats import (
    ColumnStats,
    Histogram,
    HistogramBucket,
    TableStats,
    join_cardinality,
    selectivity,
)


def stats_with(name, **kwargs):
    return TableStats(row_count=1000, columns={name: ColumnStats(**kwargs)})


class TestSelectivityHeuristics:
    def test_no_predicate(self):
        assert selectivity(None, TableStats()) == 1.0

    def test_equality_uses_ndv(self):
        stats = stats_with("a", ndv=50)
        assert selectivity(Comparison("=", col("a"), lit(3)), stats) == pytest.approx(0.02)

    def test_inequality_complements(self):
        stats = stats_with("a", ndv=4)
        assert selectivity(Comparison("!=", col("a"), lit(3)), stats) == pytest.approx(0.75)

    def test_range_interpolates(self):
        stats = stats_with("a", min_value=0, max_value=100)
        estimate = selectivity(Comparison("<", col("a"), lit(25)), stats)
        assert estimate == pytest.approx(0.25)

    def test_in_list_scales_with_ndv(self):
        stats = stats_with("a", ndv=10)
        assert selectivity(InList(col("a"), [1, 2]), stats) == pytest.approx(0.2)

    def test_is_null_uses_null_fraction(self):
        stats = stats_with("a", null_fraction=0.3)
        assert selectivity(IsNull(col("a")), stats) == pytest.approx(0.3)
        assert selectivity(IsNull(col("a"), negated=True), stats) == pytest.approx(0.7)

    def test_not_complements(self):
        stats = stats_with("a", ndv=10)
        estimate = selectivity(Not(Comparison("=", col("a"), lit(1))), stats)
        assert estimate == pytest.approx(0.9)

    def test_or_combines_independently(self):
        stats = stats_with("a", ndv=10)
        estimate = selectivity(
            Or(Comparison("=", col("a"), lit(1)), Comparison("=", col("a"), lit(2))),
            stats,
        )
        assert estimate == pytest.approx(1 - 0.9 * 0.9)

    def test_conjunction_multiplies(self):
        stats = TableStats(
            row_count=1000,
            columns={"a": ColumnStats(ndv=10), "b": ColumnStats(ndv=10)},
        )
        from repro.exec.expressions import And

        estimate = selectivity(
            And(Comparison("=", col("a"), lit(1)), Comparison("=", col("b"), lit(2))),
            stats,
        )
        assert estimate == pytest.approx(0.01)

    def test_like_default(self):
        assert selectivity(Like(col("s"), "x%"), TableStats()) == pytest.approx(0.1)

    def test_join_cardinality(self):
        assert join_cardinality(1000, 100, 100, 50) == pytest.approx(1000)
        assert join_cardinality(10, 10, None, None) == pytest.approx(10)


class TestHistogram:
    def make_histogram(self):
        # Skewed: 900 rows in [0, 10], 100 rows in [10, 100].
        return Histogram(
            buckets=[
                HistogramBucket(0, 10, 900),
                HistogramBucket(10, 100, 100),
            ]
        )

    def test_range_fraction_respects_skew(self):
        hist = self.make_histogram()
        low_end = hist.range_fraction(0, 10)
        high_end = hist.range_fraction(50, 100)
        assert low_end > 0.85
        assert high_end < 0.1

    def test_unbounded_ends(self):
        hist = self.make_histogram()
        assert hist.range_fraction(None, None) == pytest.approx(1.0)
        assert hist.range_fraction(100, None) < 0.02

    def test_point_bucket(self):
        hist = Histogram(buckets=[HistogramBucket(5, 5, 10)])
        assert hist.range_fraction(5, 5) == pytest.approx(1.0)
        assert hist.range_fraction(6, 9) == 0.0

    def test_empty(self):
        assert Histogram().range_fraction(0, 1) == pytest.approx(1 / 3)

    def test_string_buckets_all_or_nothing(self):
        hist = Histogram(buckets=[HistogramBucket("a", "m", 50), HistogramBucket("n", "z", 50)])
        assert hist.range_fraction("a", "m") == pytest.approx(0.5)
        assert hist.range_fraction(None, None) == pytest.approx(1.0)

    def test_histogram_beats_uniform_on_skew(self):
        """The estimator with histogram must out-predict min/max-only."""
        uniform = ColumnStats(min_value=0, max_value=100)
        with_hist = ColumnStats(min_value=0, max_value=100, histogram=self.make_histogram())
        stats_uniform = TableStats(row_count=1000, columns={"a": uniform})
        stats_hist = TableStats(row_count=1000, columns={"a": with_hist})
        predicate = Between(col("a"), lit(0), lit(10))
        true_fraction = 0.9  # by construction
        uniform_est = selectivity(predicate, stats_uniform)
        hist_est = selectivity(predicate, stats_hist)
        assert abs(hist_est - true_fraction) < abs(uniform_est - true_fraction)


class TestHistogramFromSegments:
    def test_columnstore_stats_include_histogram(self):
        db = Database(StoreConfig(rowgroup_size=100, bulk_load_threshold=50))
        db.create_table("t", schema(("a", types.INT, False)))
        # Date-ordered-like data: each row group covers a narrow range.
        db.bulk_load("t", [(i,) for i in range(400)])
        stats = db.table("t").stats()
        hist = stats.columns["a"].histogram
        assert hist is not None
        assert len(hist.buckets) == 4  # one per row group
        # Narrow range falls in one bucket -> ~25% of rows.
        assert hist.range_fraction(0, 99) == pytest.approx(0.25, abs=0.02)

    def test_estimate_improves_on_clustered_data(self):
        db = Database(StoreConfig(rowgroup_size=100, bulk_load_threshold=50))
        db.create_table("t", schema(("a", types.INT, False)))
        # 90% of values in [0, 10], clustered, then a tail in [0, 1000].
        rows = [(i % 10,) for i in range(360)] + [(i * 25,) for i in range(40)]
        db.bulk_load("t", rows)
        plan = db.scan_plan("t")
        plan.predicate = Between(col("a"), lit(0), lit(10))
        estimate = db.optimizer.estimate_rows(plan)
        true_count = sum(1 for (v,) in rows if 0 <= v <= 10)
        # Uniform min/max estimate would be ~ 400 * 11/1000 = 4.4 rows —
        # badly wrong; the histogram should land within 2x of truth.
        assert true_count / 2 <= estimate <= true_count * 2


class TestBetweenRangeFraction:
    """Regressions for `_range_fraction_between` guard and clamping bugs."""

    def test_between_interpolates(self):
        stats = stats_with("a", min_value=0, max_value=100)
        estimate = selectivity(Between(col("a"), lit(10), lit(35)), stats)
        assert estimate == pytest.approx(0.25)

    def test_string_high_bound_falls_back_to_default(self):
        # min_value numeric but max_value a string used to reach float()
        # and raise-or-misestimate; both bounds must be guarded like in
        # `_range_fraction`.
        from repro.planner.stats import RANGE_DEFAULT_SELECTIVITY

        stats = stats_with("a", min_value=0, max_value="zzz")
        estimate = selectivity(Between(col("a"), lit(1), lit(2)), stats)
        assert estimate == pytest.approx(RANGE_DEFAULT_SELECTIVITY)

    def test_string_low_bound_falls_back_to_default(self):
        from repro.planner.stats import RANGE_DEFAULT_SELECTIVITY

        stats = stats_with("a", min_value="aaa", max_value="zzz")
        estimate = selectivity(Between(col("a"), lit("b"), lit("c")), stats)
        assert estimate == pytest.approx(RANGE_DEFAULT_SELECTIVITY)

    def test_between_clamped_to_column_domain(self):
        # BETWEEN -1000 AND 2000 over [0, 100] covers the whole column,
        # not 30x of it; the raw width must be clamped to the overlap.
        stats = stats_with("a", min_value=0, max_value=100)
        estimate = selectivity(Between(col("a"), lit(-1000), lit(2000)), stats)
        assert estimate == pytest.approx(1.0)

    def test_between_partial_overlap_clamps_low_end(self):
        # [-50, 50] overlaps [0, 100] in [0, 50] -> 50%, not 100/100.
        stats = stats_with("a", min_value=0, max_value=100)
        estimate = selectivity(Between(col("a"), lit(-50), lit(50)), stats)
        assert estimate == pytest.approx(0.5)

    def test_between_fully_outside_domain_is_zero(self):
        stats = stats_with("a", min_value=0, max_value=100)
        estimate = selectivity(Between(col("a"), lit(500), lit(600)), stats)
        assert estimate == pytest.approx(0.0, abs=1e-6)

    def test_inverted_between_is_zero(self):
        stats = stats_with("a", min_value=0, max_value=100)
        estimate = selectivity(Between(col("a"), lit(60), lit(40)), stats)
        assert estimate == pytest.approx(0.0, abs=1e-6)


# Every range form's estimate, with and without a histogram. The values
# are the estimator's before one range rule replaced its two copies;
# None marks a pair whose types do not compare, which raised TypeError
# then (TestMismatchedTypes).
PINNED_PREDICATES = {
    "a < 25": Comparison("<", col("a"), lit(25)),
    "a <= 25": Comparison("<=", col("a"), lit(25)),
    "a >= 25": Comparison(">=", col("a"), lit(25)),
    "25 > a": Comparison(">", lit(25), col("a")),
    "a < -10": Comparison("<", col("a"), lit(-10)),
    "a > 500": Comparison(">", col("a"), lit(500)),
    "a = 7": Comparison("=", col("a"), lit(7)),
    "a != 7": Comparison("!=", col("a"), lit(7)),
    "a < NULL": Comparison("<", col("a"), lit(None)),
    "a < b": Comparison("<", col("a"), col("b")),
    "a BETWEEN 10 AND 35": Between(col("a"), lit(10), lit(35)),
    "a BETWEEN -1000 AND 2000": Between(col("a"), lit(-1000), lit(2000)),
    "a BETWEEN 60 AND 40": Between(col("a"), lit(60), lit(40)),
    "a BETWEEN 5 AND 5": Between(col("a"), lit(5), lit(5)),
    "a BETWEEN NULL AND 50": Between(col("a"), lit(None), lit(50)),
    "a BETWEEN b AND 50": Between(col("a"), col("b"), lit(50)),
    "a IN (1, 2, 3)": InList(col("a"), [1, 2, 3]),
    "a < 'k'": Comparison("<", col("a"), lit("k")),
    "a > 'm'": Comparison(">", col("a"), lit("m")),
    "a BETWEEN 'c' AND 'p'": Between(col("a"), lit("c"), lit("p")),
    "a BETWEEN 'p' AND 'c'": Between(col("a"), lit("p"), lit("c")),
}
PINNED_STATS = {
    "minmax": ColumnStats(min_value=0, max_value=100, ndv=20),
    "histogram": ColumnStats(
        min_value=0,
        max_value=100,
        histogram=Histogram([HistogramBucket(0, 10, 900), HistogramBucket(10, 100, 100)]),
    ),
    "point": ColumnStats(min_value=5, max_value=5),
    "strings": ColumnStats(min_value="b", max_value="y"),
    "string_histogram": ColumnStats(
        min_value="a",
        max_value="z",
        histogram=Histogram([HistogramBucket("a", "m", 50), HistogramBucket("n", "z", 50)]),
    ),
    "none": ColumnStats(),
}
PINNED_ESTIMATES = {
    "minmax": (
        0.25, 0.25, 0.75, 0.25, 1e-09, 1e-09, 0.05, 0.95, 0.5, 0.5, 0.25, 1.0, 1e-09,
        1e-09, 1e-09, 0.3333333333333333, 0.15, 0.3333333333333333, 0.3333333333333333,
        0.3333333333333333, 0.3333333333333333,
    ),
    "histogram": (
        0.9166666666666666, 0.9166666666666666, 0.08333333333333334, 0.9166666666666666,
        1e-09, 1e-09, 0.05, 0.95, 0.5, 0.5, 0.02777777777777778, 1.0, 1e-09, 1e-09,
        1e-09, 0.3333333333333333, 0.15000000000000002, None, None, None, None,
    ),
    "point": (
        0.3333333333333333, 0.3333333333333333, 0.3333333333333333, 0.3333333333333333,
        0.3333333333333333, 0.3333333333333333, 0.05, 0.95, 0.5, 0.5,
        0.3333333333333333, 0.3333333333333333, 0.3333333333333333, 0.3333333333333333,
        1e-09, 0.3333333333333333, 0.15000000000000002, 0.3333333333333333,
        0.3333333333333333, 0.3333333333333333, 0.3333333333333333,
    ),
    "strings": (
        0.3333333333333333, 0.3333333333333333, 0.3333333333333333, 0.3333333333333333,
        0.3333333333333333, 0.3333333333333333, 0.05, 0.95, 0.5, 0.5,
        0.3333333333333333, 0.3333333333333333, 0.3333333333333333, 0.3333333333333333,
        1e-09, 0.3333333333333333, 0.15000000000000002, 0.3333333333333333,
        0.3333333333333333, 0.3333333333333333, 0.3333333333333333,
    ),
    "string_histogram": (
        None, None, None, None, None, None, 0.05, 0.95, 0.5, 0.5, None, None, None,
        None, 1e-09, 0.3333333333333333, 0.15000000000000002, 0.5, 1.0, 1.0, 1e-09,
    ),
    "none": (
        0.3333333333333333, 0.3333333333333333, 0.3333333333333333, 0.3333333333333333,
        0.3333333333333333, 0.3333333333333333, 0.05, 0.95, 0.5, 0.5,
        0.3333333333333333, 0.3333333333333333, 0.3333333333333333, 0.3333333333333333,
        1e-09, 0.3333333333333333, 0.15000000000000002, 0.3333333333333333,
        0.3333333333333333, 0.3333333333333333, 0.3333333333333333,
    ),
}


@pytest.mark.parametrize("stats_name", sorted(PINNED_STATS))
def test_range_estimates_are_pinned(stats_name):
    stats = TableStats(row_count=1000, columns={"a": PINNED_STATS[stats_name]})
    for (name, predicate), expected in zip(
        PINNED_PREDICATES.items(), PINNED_ESTIMATES[stats_name]
    ):
        if expected is not None:
            assert selectivity(predicate, stats) == expected, name


class TestMismatchedTypes:
    def test_incomparable_buckets_count_none(self):
        """A literal that does not compare with a histogram's buckets
        estimates nothing in range, where it once raised TypeError."""
        stats = TableStats(row_count=1000, columns={"a": PINNED_STATS["histogram"]})
        assert selectivity(Comparison("<", col("a"), lit("k")), stats) == 1e-09


class TestUnboundedValues:
    def test_disjoint_range_reads_zero_over_an_infinite_span(self):
        """No value is below -inf. The estimate once divided an infinite
        overlap by an infinite span and read the NaN as every row."""
        stats = stats_with("a", min_value=-5.0, max_value=float("inf"))
        assert selectivity(Comparison("<", col("a"), lit(float("-inf"))), stats) == 1e-09
