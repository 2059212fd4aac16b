"""Predicate analysis shared by the scan operator and the planner.

Splits predicates into conjuncts and reads a single-column conjunct as
the range of values it admits (:class:`ColumnRange`): segment
elimination, range pruning and the planner's range estimates all ask it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Iterable

from .expressions import And, Between, Column, Comparison, Expr, InList, Literal


def split_conjuncts(expr: Expr | None) -> list[Expr]:
    """Flatten nested ANDs into a conjunct list (empty for None)."""
    if expr is None:
        return []
    if isinstance(expr, And):
        out: list[Expr] = []
        for conjunct in expr.conjuncts:
            out.extend(split_conjuncts(conjunct))
        return out
    return [expr]


def combine_conjuncts(conjuncts: list[Expr]) -> Expr | None:
    """Inverse of :func:`split_conjuncts`."""
    if not conjuncts:
        return None
    if len(conjuncts) == 1:
        return conjuncts[0]
    return And(*conjuncts)


@dataclass
class ColumnRange:
    """The values of one column a conjunct (or an AND of conjuncts on it)
    admits: the one place a literal meets a segment's or a column's
    [min, max]. A ``None`` end is unbounded, a strict one excludes its
    bound; ``exact``: a non-NULL value is inside if and only if the
    conjunct is TRUE for it (an IN list's range is only its hull).
    Comparisons are Python's, so a NaN or an incomparable pair answers
    no question with yes."""

    low: Any = None
    high: Any = None
    low_strict: bool = False
    high_strict: bool = False
    exact: bool = True

    @classmethod
    def of(cls, conjunct: Expr) -> tuple[str, ColumnRange] | None:
        """(column, range) of ``col <op> literal`` (either side), ``col
        BETWEEN a AND b`` or ``col IN (...)``; None for ``!=``, a NULL
        literal or bound, and any other shape."""
        if isinstance(conjunct, Comparison):
            column, value, op = conjunct.left, conjunct.right, conjunct.op
            if isinstance(column, Literal):
                column, value, op = value, column, _FLIPPED[op]
            if not (isinstance(column, Column) and isinstance(value, Literal)):
                return None
            value = value.value
            if value is None or op == "!=":
                return None
            if op == "=":
                return column.name, cls(value, value)
            if op in ("<", "<="):
                return column.name, cls(high=value, high_strict=op == "<")
            return column.name, cls(low=value, low_strict=op == ">")
        if isinstance(conjunct, Between):
            column, bounds = conjunct.operand, (conjunct.low, conjunct.high)
            if isinstance(column, Column) and all(
                isinstance(b, Literal) and b.value is not None for b in bounds
            ):
                return column.name, cls(bounds[0].value, bounds[1].value)
        if isinstance(conjunct, InList) and isinstance(conjunct.operand, Column):
            if conjunct.values:
                hull = cls(min(conjunct.values), max(conjunct.values), exact=False)
                return conjunct.operand.name, hull
        return None

    def __and__(self, other: ColumnRange) -> ColumnRange:
        """The range both admit (exact when both are): the tighter end,
        a strict one over an inclusive one at the same bound."""
        out = replace(self, exact=self.exact and other.exact)
        low, high = other.low, other.high
        if low is not None and (
            out.low is None or low > out.low or (low == out.low and other.low_strict)
        ):
            out.low, out.low_strict = low, other.low_strict
        if high is not None and (
            out.high is None or high < out.high or (high == out.high and other.high_strict)
        ):
            out.high, out.high_strict = high, other.high_strict
        return out

    def excludes(self, lo: Any, hi: Any) -> bool:
        """No non-NULL value of a segment with [lo, hi] can pass (True for
        an all-NULL segment, whose ``lo`` is None, and for an empty range)."""
        if lo is None:
            return True
        low, high, low_strict, high_strict = self.low, self.high, self.low_strict, self.high_strict
        try:
            return bool(
                (low is not None and (hi < low or (low_strict and hi == low)))
                or (high is not None and (lo > high or (high_strict and lo == high)))
                or (
                    low is not None
                    and high is not None
                    and (low > high or (low == high and (low_strict or high_strict)))
                )
            )
        except TypeError:
            return False

    def contains(self, lo: Any, hi: Any) -> bool:
        """Every non-NULL value of a segment with [lo, hi] passes: only an
        exact range says so, and it always does of an all-NULL segment."""
        if not self.exact or lo is None:
            return self.exact
        low, high = self.low, self.high
        try:
            return bool(
                (low is None or lo > low or (not self.low_strict and lo == low))
                and (high is None or hi < high or (not self.high_strict and hi == high))
            )
        except TypeError:
            return False

    def share(self, lo: Any, hi: Any) -> float | None:
        """Estimated share of values spread evenly over [lo, hi] inside,
        both ends inclusive (an even spread gives a strict end no width):
        numbers interpolate, other values count all or nothing; 0.0 of an
        all-NULL [lo, hi], None when the values do not compare."""
        if lo is None or hi is None:
            return 0.0
        low, high = self.low, self.high
        try:
            lo_f, hi_f = float(lo), float(hi)
            low_f = lo_f if low is None else float(low)
            high_f = hi_f if high is None else float(high)
        except (TypeError, ValueError):
            try:
                return float((low is None or hi >= low) and (high is None or lo <= high))
            except TypeError:
                return None
        if high_f < lo_f or low_f > hi_f:
            return 0.0
        if hi_f == lo_f:
            return 1.0
        return max(0.0, min(1.0, (min(high_f, hi_f) - max(low_f, lo_f)) / (hi_f - lo_f)))


_FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!="}


def extract_column_ranges(conjuncts: list[Expr]) -> dict[str, ColumnRange]:
    """Per-column ranges: the intersection of every conjunct's range."""
    return intersect_ranges(map(ColumnRange.of, conjuncts))


def intersect_ranges(
    found: Iterable[tuple[str, ColumnRange] | None],
) -> dict[str, ColumnRange]:
    """Per column, the intersection of the ``(column, range)`` pairs
    :meth:`ColumnRange.of` read (None, no range, is skipped)."""
    ranges: dict[str, ColumnRange] = {}
    for column, rng in filter(None, found):
        ranges[column] = ranges[column] & rng if column in ranges else rng
    return ranges


def single_column_of(expr: Expr) -> str | None:
    """The only column an expression references, or None if not exactly one."""
    refs = expr.referenced_columns()
    if len(refs) == 1:
        return next(iter(refs))
    return None
