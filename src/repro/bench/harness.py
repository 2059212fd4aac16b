"""Shared benchmark harness: timing, table rendering, result checking.

The benchmark scripts in ``benchmarks/`` use these helpers to produce the
paper-style tables EXPERIMENTS.md records. Timing uses a best-of-N
(minimum) policy to damp interpreter noise, and every timed comparison
first asserts both engines return identical rows — a speedup over a wrong
answer is not a result.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable

from ..db.database import Database


@dataclass
class Timing:
    """Best-of-N wall-clock timing of one callable."""

    seconds: float
    runs: int
    result_rows: int


def time_call(fn: Callable[[], Any], repeat: int = 3) -> Timing:
    """Best-of-``repeat`` timing; returns the timed function's last result size."""
    best = float("inf")
    rows = 0
    for _ in range(max(1, repeat)):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
        try:
            rows = len(result)
        except TypeError:
            rows = 0
    return Timing(seconds=best, runs=repeat, result_rows=rows)


def time_query(db: Database, sql: str, repeat: int = 3, **overrides) -> Timing:
    return time_call(lambda: db.sql(sql, **overrides), repeat=repeat)


def query_stats(db: Database, sql: str, **overrides) -> dict[str, Any]:
    """Run a query with runtime stats collection and return a flat dict.

    The dict is :meth:`repro.observability.ExecutionStats.to_dict` output:
    elapsed/rows/mode at the top level, per-operator actuals under
    ``operators``, and engine counter deltas under ``counters``. Benchmarks
    assert effects (segment elimination, spilling) on these counters rather
    than reaching into operator internals.
    """
    result = db.sql(sql, stats=True, **overrides)
    if result is None or result.stats is None:
        raise AssertionError(f"no stats collected for {sql!r}")
    return result.stats.to_dict()


def assert_same_result(db_a: Database, db_b: Database, sql: str, mode_a: str, mode_b: str) -> int:
    """Both engines must agree before a timing counts; returns row count."""
    result_a = db_a.sql(sql, mode=mode_a)
    result_b = db_b.sql(sql, mode=mode_b)
    rows_a = sorted(result_a.rows, key=repr)
    rows_b = sorted(result_b.rows, key=repr)
    if _rounded(rows_a) != _rounded(rows_b):
        raise AssertionError(
            f"engines disagree on {sql!r}:\n  {mode_a}: {rows_a[:3]}...\n"
            f"  {mode_b}: {rows_b[:3]}..."
        )
    return len(rows_a)


def _rounded(rows: list[tuple]) -> list[tuple]:
    out = []
    for row in rows:
        out.append(
            tuple(round(v, 6) if isinstance(v, float) else v for v in row)
        )
    return out


@dataclass
class ReportTable:
    """A fixed-column report table printed like the paper's tables."""

    title: str
    headers: list[str]
    rows: list[list[Any]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, *values: Any) -> None:
        if len(values) != len(self.headers):
            raise ValueError(
                f"row has {len(values)} cells for {len(self.headers)} headers"
            )
        self.rows.append(list(values))

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def render(self) -> str:
        cells = [[_fmt(v) for v in row] for row in self.rows]
        widths = [len(h) for h in self.headers]
        for row in cells:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = [self.title, "=" * len(self.title)]
        lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(self.headers)))
        lines.append("  ".join("-" * w for w in widths))
        for row in cells:
            lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def print(self) -> None:  # pragma: no cover - console convenience
        print()
        print(self.render())
        print()


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value >= 100:
            return f"{value:,.0f}"
        if value >= 1:
            return f"{value:,.2f}"
        return f"{value:.4f}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


def fmt_bytes(n: int) -> str:
    """Human-readable byte count."""
    units = ["B", "KiB", "MiB", "GiB"]
    value = float(n)
    for unit in units:
        if value < 1024 or unit == units[-1]:
            return f"{value:,.1f} {unit}"
        value /= 1024
    return f"{value:,.1f} GiB"
