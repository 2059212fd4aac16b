"""EXPLAIN ANALYZE reporting: the executed plan annotated with stats.

:class:`ExecutionStats` is the programmatic handle one stats-enabled
execution returns (``Result.stats``): the per-operator tree with runtime
counters, plus the delta of the process-wide metrics registry over the
execution (segment eliminations, cache hits, spill bytes, ...).

The tree walk relies on ``child_operators()`` being the single source of
truth for plan shape — the same contract ``explain_lines`` uses — so the
ANALYZE rendering can never drift from the EXPLAIN rendering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .opstats import OperatorStats, operator_stats


@dataclass
class OperatorNodeStats:
    """One operator of an executed plan, with its runtime counters."""

    label: str
    depth: int
    runtime: OperatorStats
    rows_in: int
    details: dict[str, Any] = field(default_factory=dict)

    def lines(self) -> list[str]:
        pad = "  " * self.depth
        out = [f"{pad}{self.label}"]
        runtime = self.runtime
        if runtime.touched:
            actual = (
                f"rows={runtime.rows}, batches={runtime.batches}, "
                f"time={runtime.wall_seconds * 1000:.2f}ms"
            )
            if self.rows_in:
                actual += f", rows_in={self.rows_in}"
            if runtime.peak_grant_bytes:
                actual += f", peak_grant={runtime.peak_grant_bytes:,}B"
            if runtime.spill_bytes:
                actual += f", spill={runtime.spill_bytes:,}B"
            out.append(f"{pad}  * actual: {actual}")
        if self.details:
            inner = ", ".join(
                # A dict-valued detail (the scan's morph reasons) reads
                # "morph: key_not_dictionary=7 output=14".
                f"{k}: " + " ".join(f"{r}={n}" for r, n in sorted(v.items()))
                if isinstance(v, dict)
                else f"{k}={v}"
                for k, v in self.details.items()
            )
            out.append(f"{pad}  * {inner}")
        return out


@dataclass
class ExecutionStats:
    """Everything one stats-enabled execution observed about itself."""

    elapsed_seconds: float
    row_count: int
    mode: str
    operators: list[OperatorNodeStats]
    counters: dict[str, float]

    @classmethod
    def capture(
        cls,
        root,
        mode: str,
        elapsed_seconds: float,
        row_count: int,
        counters: dict[str, float],
    ) -> "ExecutionStats":
        """Walk an executed operator tree and collect its stats."""
        operators: list[OperatorNodeStats] = []
        _walk(root, 0, operators)
        return cls(
            elapsed_seconds=elapsed_seconds,
            row_count=row_count,
            mode=mode,
            operators=operators,
            counters=dict(counters),
        )

    # ------------------------------------------------------------------ #
    # Programmatic access
    # ------------------------------------------------------------------ #
    def counter(self, name: str) -> float:
        """A registry counter's growth during this execution (0 if none)."""
        return self.counters.get(name, 0)

    def find(self, label_substring: str) -> list[OperatorNodeStats]:
        """Operators whose label contains the substring (e.g. 'Scan')."""
        return [o for o in self.operators if label_substring in o.label]

    def total(self, detail: str) -> float:
        """Sum of one per-operator detail across the plan
        (e.g. ``total('units_eliminated')``)."""
        return sum(o.details.get(detail, 0) for o in self.operators)

    # ------------------------------------------------------------------ #
    # Rendering
    # ------------------------------------------------------------------ #
    def render(self, include_counters: bool = True) -> str:
        lines = [
            f"-- executed in {self.elapsed_seconds * 1000:.1f} ms, "
            f"{self.row_count} rows ({self.mode} mode) --"
        ]
        for node in self.operators:
            lines.extend(node.lines())
        if include_counters and self.counters:
            lines.append("-- storage counters (delta over this execution) --")
            for name in sorted(self.counters):
                value = self.counters[name]
                shown = int(value) if float(value).is_integer() else round(value, 6)
                lines.append(f"  {name}={shown}")
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        """A plain-data summary (benchmark reports serialize this)."""
        return {
            "elapsed_seconds": self.elapsed_seconds,
            "rows": self.row_count,
            "mode": self.mode,
            "counters": dict(self.counters),
            "operators": [
                {
                    "label": node.label,
                    "depth": node.depth,
                    "rows": node.runtime.rows,
                    "batches": node.runtime.batches,
                    "wall_seconds": node.runtime.wall_seconds,
                    "peak_grant_bytes": node.runtime.peak_grant_bytes,
                    "spill_bytes": node.runtime.spill_bytes,
                    "rows_in": node.rows_in,
                    **{f"detail.{k}": v for k, v in node.details.items()},
                }
                for node in self.operators
            ],
        }


def _walk(operator, depth: int, out: list[OperatorNodeStats]) -> None:
    children = operator.child_operators()
    runtime = operator_stats(operator)
    rows_in = sum(operator_stats(child).rows for child in children)
    out.append(
        OperatorNodeStats(
            label=operator.describe(),
            depth=depth,
            runtime=runtime,
            rows_in=rows_in,
            details=_operator_details(operator),
        )
    )
    for child in children:
        _walk(child, depth + 1, out)


def _operator_details(operator) -> dict[str, Any]:
    """Nonzero fields of an operator's own stats dataclass (ScanStats,
    JoinStats, ...) — the operator-specific counters."""
    own = getattr(operator, "stats", None)
    if own is None:
        return {}
    details = {}
    for name, value in vars(own).items():
        if value not in (0, 0.0, False, None, [], {}):
            details[name] = value
    return details
