"""Logical query plan nodes.

A small relational algebra: scan, filter, project, equi-join, aggregate,
sort, limit. Column names in a plan are unique end to end — the binder (or
query builder) qualifies ambiguous names before planning, so joins never
produce duplicate columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..errors import PlanningError
from ..exec.expressions import Expr
from ..exec.operators.hash_aggregate import AggregateSpec
from ..exec.operators.window import WindowSpec


class LogicalNode:
    """Base class of logical plan nodes."""

    def children(self) -> Sequence["LogicalNode"]:
        return ()

    def output_names(self) -> list[str]:
        raise NotImplementedError

    def explain_lines(self, depth: int = 0) -> list[str]:
        pad = "  " * depth
        lines = [f"{pad}{self}"]
        for child in self.children():
            lines.extend(child.explain_lines(depth + 1))
        return lines


@dataclass
class LogicalScan(LogicalNode):
    """Scan of a named table.

    ``projections`` maps plan-level output names to storage column names
    (identity unless the binder qualified names); ``RID_COLUMN`` among
    them is the row address. ``predicate`` holds pushed-down conjuncts
    over *plan-level* names. ``storage`` names the storage of a
    BOTH-storage table to read (``"rowstore"`` or ``"columnstore"``);
    None lets the builder choose by mode.
    """

    table: str
    projections: dict[str, str]
    predicate: Expr | None = None
    storage: str | None = None

    def output_names(self) -> list[str]:
        return list(self.projections)

    def __str__(self) -> str:
        pred = f", predicate={self.predicate}" if self.predicate is not None else ""
        storage = f", {self.storage}" if self.storage is not None else ""
        return f"Scan({self.table}{storage}{pred})"


@dataclass
class LogicalFilter(LogicalNode):
    child: LogicalNode
    predicate: Expr

    def children(self) -> Sequence[LogicalNode]:
        return (self.child,)

    def output_names(self) -> list[str]:
        return self.child.output_names()

    def __str__(self) -> str:
        return f"Filter({self.predicate})"


@dataclass
class LogicalProject(LogicalNode):
    child: LogicalNode
    projections: list[tuple[str, Expr]]

    def children(self) -> Sequence[LogicalNode]:
        return (self.child,)

    def output_names(self) -> list[str]:
        return [name for name, _ in self.projections]

    def __str__(self) -> str:
        inner = ", ".join(f"{n}={e}" for n, e in self.projections)
        return f"Project({inner})"


@dataclass
class LogicalJoin(LogicalNode):
    """Equi-join on column-name pairs; left child is the probe side by
    convention (the optimizer may swap sides)."""

    left: LogicalNode
    right: LogicalNode
    left_keys: list[str]
    right_keys: list[str]
    join_type: str = "inner"  # inner | left | right | full | semi | anti
    use_bitmap: bool | None = None  # None = let the optimizer decide

    def __post_init__(self) -> None:
        if len(self.left_keys) != len(self.right_keys) or not self.left_keys:
            raise PlanningError("join requires equal-length, non-empty key lists")

    def children(self) -> Sequence[LogicalNode]:
        return (self.left, self.right)

    def output_names(self) -> list[str]:
        if self.join_type in ("semi", "anti"):
            return self.left.output_names()
        return self.left.output_names() + self.right.output_names()

    def __str__(self) -> str:
        keys = ", ".join(f"{l}={r}" for l, r in zip(self.left_keys, self.right_keys))
        return f"Join({self.join_type}, {keys}, bitmap={self.use_bitmap})"


@dataclass
class LogicalAggregate(LogicalNode):
    """GROUP BY over plan columns plus aggregate specs.

    ``group_keys`` name existing child columns (the binder projects
    computed grouping expressions first).
    """

    child: LogicalNode
    group_keys: list[str]
    aggregates: list[AggregateSpec] = field(default_factory=list)

    def children(self) -> Sequence[LogicalNode]:
        return (self.child,)

    def output_names(self) -> list[str]:
        return [*self.group_keys, *(s.name for s in self.aggregates)]

    def __str__(self) -> str:
        aggs = ", ".join(f"{s.func} AS {s.name}" for s in self.aggregates)
        return f"Aggregate(keys={self.group_keys}, aggs=[{aggs}])"


@dataclass
class LogicalWindow(LogicalNode):
    """Window functions over the child: every spec appends one column.

    The operator preserves the child's row order; a Sort above it (bound
    from ORDER BY) establishes the presentation order.
    """

    child: LogicalNode
    specs: list[WindowSpec]

    def children(self) -> Sequence[LogicalNode]:
        return (self.child,)

    def output_names(self) -> list[str]:
        return [*self.child.output_names(), *(s.name for s in self.specs)]

    def __str__(self) -> str:
        inner = ", ".join(f"{s.func} AS {s.name}" for s in self.specs)
        return f"Window({inner})"


@dataclass
class LogicalSort(LogicalNode):
    child: LogicalNode
    keys: list[tuple[str, bool]]  # (column, descending)

    def children(self) -> Sequence[LogicalNode]:
        return (self.child,)

    def output_names(self) -> list[str]:
        return self.child.output_names()

    def __str__(self) -> str:
        inner = ", ".join(f"{n}{' DESC' if d else ''}" for n, d in self.keys)
        return f"Sort({inner})"


@dataclass
class LogicalLimit(LogicalNode):
    child: LogicalNode
    limit: int

    def children(self) -> Sequence[LogicalNode]:
        return (self.child,)

    def output_names(self) -> list[str]:
        return self.child.output_names()

    def __str__(self) -> str:
        return f"Limit({self.limit})"
