"""Statistics and cardinality estimation.

Table statistics come straight from the storage layer: segment metadata
(row counts, min/max) for columnstores, page accounting for row stores,
plus cheap NDV estimates from global dictionaries. Selectivity heuristics
follow the classical System-R defaults the paper's optimizer also leans on
when histograms run out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..exec.expressions import (
    Between,
    Comparison,
    Expr,
    InList,
    IsNull,
    Like,
    Not,
    Or,
)
from ..exec.predicates import split_conjuncts

EQ_DEFAULT_SELECTIVITY = 0.05
RANGE_DEFAULT_SELECTIVITY = 1 / 3
LIKE_DEFAULT_SELECTIVITY = 0.1
NULL_DEFAULT_SELECTIVITY = 0.02


@dataclass
class HistogramBucket:
    """One bucket: value range plus the rows it holds."""

    low: Any
    high: Any
    rows: int


@dataclass
class Histogram:
    """A range histogram assembled from segment [min, max] metadata.

    Every compressed segment contributes one bucket (its value range and
    row count) — the directory already stores this, so the histogram is
    free to build and mirrors how SQL Server leans on segment metadata
    when estimating range predicates over columnstores. Buckets overlap;
    within a bucket values are assumed uniform.
    """

    buckets: list[HistogramBucket] = field(default_factory=list)

    @property
    def total_rows(self) -> int:
        return sum(bucket.rows for bucket in self.buckets)

    def range_fraction(self, low: Any, high: Any) -> float:
        """Estimated fraction of rows with ``low <= value <= high``."""
        total = self.total_rows
        if total == 0:
            return RANGE_DEFAULT_SELECTIVITY
        covered = 0.0
        for bucket in self.buckets:
            covered += bucket.rows * _bucket_overlap(bucket, low, high)
        return max(0.0, min(1.0, covered / total))


def _bucket_overlap(bucket: HistogramBucket, low: Any, high: Any) -> float:
    """Fraction of a bucket's rows inside [low, high] (uniform assumption)."""
    b_low, b_high = bucket.low, bucket.high
    if b_low is None or b_high is None:
        return 0.0
    try:
        b_low_f, b_high_f = float(b_low), float(b_high)
        low_f = float(low) if low is not None else b_low_f
        high_f = float(high) if high is not None else b_high_f
    except (TypeError, ValueError):
        # Non-numeric (string) buckets: all-or-nothing containment check.
        if (low is None or b_high >= low) and (high is None or b_low <= high):
            return 1.0
        return 0.0
    if high_f < b_low_f or low_f > b_high_f:
        return 0.0
    if b_high_f == b_low_f:
        return 1.0
    span = b_high_f - b_low_f
    overlap = min(high_f, b_high_f) - max(low_f, b_low_f)
    return max(0.0, min(1.0, overlap / span))


@dataclass
class ColumnStats:
    """Per-column statistics used for selectivity estimation."""

    min_value: Any = None
    max_value: Any = None
    ndv: int | None = None
    null_fraction: float = 0.0
    histogram: Histogram | None = None


@dataclass
class TableStats:
    """Statistics of one stored table."""

    row_count: int = 0
    columns: dict[str, ColumnStats] = field(default_factory=dict)

    def column(self, name: str) -> ColumnStats:
        return self.columns.get(name, ColumnStats())


def selectivity(predicate: Expr | None, stats: TableStats) -> float:
    """Estimated fraction of rows satisfying ``predicate``."""
    if predicate is None:
        return 1.0
    result = 1.0
    for conjunct in split_conjuncts(predicate):
        result *= _conjunct_selectivity(conjunct, stats)
    return max(min(result, 1.0), 1e-9)


def _conjunct_selectivity(expr: Expr, stats: TableStats) -> float:
    if isinstance(expr, Comparison):
        return _comparison_selectivity(expr, stats)
    if isinstance(expr, Between):
        return _range_fraction_between(expr, stats)
    if isinstance(expr, InList):
        refs = expr.referenced_columns()
        if len(refs) == 1:
            col_stats = stats.column(next(iter(refs)))
            if col_stats.ndv:
                return min(1.0, len(expr.values) / col_stats.ndv)
        return min(1.0, len(expr.values) * EQ_DEFAULT_SELECTIVITY)
    if isinstance(expr, Like):
        return LIKE_DEFAULT_SELECTIVITY
    if isinstance(expr, IsNull):
        refs = expr.referenced_columns()
        base = NULL_DEFAULT_SELECTIVITY
        if len(refs) == 1:
            base = stats.column(next(iter(refs))).null_fraction or NULL_DEFAULT_SELECTIVITY
        return 1.0 - base if expr.negated else base
    if isinstance(expr, Not):
        return max(0.0, 1.0 - _conjunct_selectivity(expr.operand, stats))
    if isinstance(expr, Or):
        miss = 1.0
        for disjunct in expr.disjuncts:
            miss *= 1.0 - _conjunct_selectivity(disjunct, stats)
        return 1.0 - miss
    return 0.5  # unknown shapes: coin flip


def _comparison_selectivity(cmp: Comparison, stats: TableStats) -> float:
    from ..exec.predicates import _normalize_comparison

    column, literal, op = _normalize_comparison(cmp)
    if column is None:
        return 0.5 if cmp.op != "=" else 0.1
    col_stats = stats.column(column)
    if op == "=":
        if col_stats.ndv:
            return 1.0 / col_stats.ndv
        return EQ_DEFAULT_SELECTIVITY
    if op == "!=":
        if col_stats.ndv:
            return 1.0 - 1.0 / col_stats.ndv
        return 1.0 - EQ_DEFAULT_SELECTIVITY
    return _range_fraction(col_stats, literal, op)


def _range_fraction(col_stats: ColumnStats, literal: Any, op: str) -> float:
    if col_stats.histogram is not None and col_stats.histogram.buckets:
        if op in ("<", "<="):
            return col_stats.histogram.range_fraction(None, literal)
        return col_stats.histogram.range_fraction(literal, None)
    low, high = col_stats.min_value, col_stats.max_value
    if (
        low is None
        or high is None
        or isinstance(low, str)
        or isinstance(high, str)
        or high == low
    ):
        return RANGE_DEFAULT_SELECTIVITY
    try:
        span = float(high) - float(low)
        if op in ("<", "<="):
            fraction = (float(literal) - float(low)) / span
        else:
            fraction = (float(high) - float(literal)) / span
    except (TypeError, ValueError):
        return RANGE_DEFAULT_SELECTIVITY
    return max(0.0, min(1.0, fraction))


def _range_fraction_between(expr: Between, stats: TableStats) -> float:
    from ..exec.expressions import Column, Literal

    if not (
        isinstance(expr.operand, Column)
        and isinstance(expr.low, Literal)
        and isinstance(expr.high, Literal)
    ):
        return RANGE_DEFAULT_SELECTIVITY
    if expr.low.value is None or expr.high.value is None:
        return 0.0  # a NULL bound is never TRUE, not an open interval
    col_stats = stats.column(expr.operand.name)
    if col_stats.histogram is not None and col_stats.histogram.buckets:
        return col_stats.histogram.range_fraction(expr.low.value, expr.high.value)
    low, high = col_stats.min_value, col_stats.max_value
    if (
        low is None
        or high is None
        or isinstance(low, str)
        or isinstance(high, str)
        or high == low
    ):
        return RANGE_DEFAULT_SELECTIVITY
    try:
        span = float(high) - float(low)
        # Clamp the BETWEEN range to its overlap with [min, max]: literals
        # outside the column's domain must not inflate the fraction.
        overlap = min(float(expr.high.value), float(high)) - max(
            float(expr.low.value), float(low)
        )
    except (TypeError, ValueError):
        return RANGE_DEFAULT_SELECTIVITY
    return max(0.0, min(1.0, overlap / span))


def join_cardinality(
    left_rows: float, right_rows: float, left_ndv: int | None, right_ndv: int | None
) -> float:
    """Classic equi-join estimate: |L|*|R| / max(ndv(L), ndv(R))."""
    ndv = max(left_ndv or 0, right_ndv or 0)
    if ndv <= 0:
        ndv = max(1, int(min(left_rows, right_rows)))
    return left_rows * right_rows / ndv
