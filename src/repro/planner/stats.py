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
    Column,
    Comparison,
    Expr,
    InList,
    IsNull,
    Like,
    Literal,
    Not,
    Or,
)
from ..exec.predicates import ColumnRange, split_conjuncts

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
        rng = ColumnRange(low, high)
        # A bucket whose bounds do not compare with the range counts none.
        covered = sum(b.rows * (rng.share(b.low, b.high) or 0.0) for b in self.buckets)
        return max(0.0, min(1.0, covered / total))


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
    if isinstance(expr, (Comparison, Between)):
        return _interval_selectivity(expr, stats)
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


def _interval_selectivity(expr: Comparison | Between, stats: TableStats) -> float:
    """NDV for ``=`` / ``!=``, else the share of the column's values the
    conjunct's range holds."""
    point = isinstance(expr, Comparison) and expr.op in ("=", "!=")
    found = ColumnRange.of(Comparison("=", expr.left, expr.right) if point else expr)
    if found is None:
        if isinstance(expr, Comparison):
            return 0.1 if expr.op == "=" else 0.5
        # Literal bounds without a range hold a NULL: never TRUE.
        literals = isinstance(expr.low, Literal) and isinstance(expr.high, Literal)
        return 0.0 if literals and isinstance(expr.operand, Column) else RANGE_DEFAULT_SELECTIVITY
    column, rng = found
    col_stats = stats.column(column)
    if point:
        equal = 1.0 / col_stats.ndv if col_stats.ndv else EQ_DEFAULT_SELECTIVITY
        return equal if expr.op == "=" else 1.0 - equal
    if col_stats.histogram is not None and col_stats.histogram.buckets:
        return col_stats.histogram.range_fraction(rng.low, rng.high)
    low, high = col_stats.min_value, col_stats.max_value
    if low is None or high is None or isinstance(low, str) or isinstance(high, str) or high == low:
        return RANGE_DEFAULT_SELECTIVITY
    share = rng.share(low, high)
    return RANGE_DEFAULT_SELECTIVITY if share is None else share


def join_cardinality(
    left_rows: float, right_rows: float, left_ndv: int | None, right_ndv: int | None
) -> float:
    """Classic equi-join estimate: |L|*|R| / max(ndv(L), ndv(R))."""
    ndv = max(left_ndv or 0, right_ndv or 0)
    if ndv <= 0:
        ndv = max(1, int(min(left_rows, right_rows)))
    return left_rows * right_rows / ndv
