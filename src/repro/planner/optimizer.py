"""The optimizer: rewrites a logical plan and emits a physical plan."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Mapping, Sequence

from ..exec.operators.base import BatchOperator
from ..exec.row_engine import RowOperator
from ..observability import ExecutionStats, get_registry, opstats, snapshot_delta
from ..settings import DEFAULTS
from ..types import DataType
from .logical import (
    LogicalAggregate,
    LogicalFilter,
    LogicalJoin,
    LogicalLimit,
    LogicalNode,
    LogicalProject,
    LogicalScan,
    LogicalSort,
    LogicalWindow,
)
from .physical import CatalogView, PhysicalBuilder
from .rules import choose_join_sides, place_bitmaps, prune_columns, push_filters
from .stats import join_cardinality, selectivity


@dataclass
class PhysicalPlan:
    """An executable plan: root operator plus result column names."""

    root: Any  # BatchOperator | RowOperator
    mode: str
    columns: list[str]
    logical: LogicalNode

    def rows(self, dtypes: Sequence[DataType] | None = None) -> Iterator[tuple[Any, ...]]:
        """Execute and yield result rows as tuples: physical values, or —
        given the result columns' types — presented, user-facing ones."""
        if isinstance(self.root, BatchOperator):
            for batch in self.root.batches():
                yield from batch.to_rows(dtypes)
        else:
            assert isinstance(self.root, RowOperator)
            names = self.columns
            present = [t.present for t in dtypes] if dtypes is not None else None
            for row in self.root.rows():
                if present is None:
                    yield tuple(row[name] for name in names)
                else:
                    yield tuple(p(row[name]) for p, name in zip(present, names))

    def explain(self) -> str:
        physical = "\n".join(self.root.explain_lines())
        logical = "\n".join(self.logical.explain_lines())
        return f"-- logical --\n{logical}\n-- physical ({self.mode} mode) --\n{physical}"

    def run_with_stats(
        self, dtypes: Sequence[DataType] | None = None
    ) -> tuple[list[tuple[Any, ...]], ExecutionStats]:
        """Execute with per-operator stats collection on.

        Returns the materialized rows (as :meth:`rows` yields them) plus the
        :class:`ExecutionStats` handle: the operator tree annotated with
        runtime counters (via the instrumented iterators every operator
        inherits) and the metrics-registry delta over the execution
        (segment eliminations, cache hits, spill bytes, ...).
        """
        import time

        registry = get_registry()
        before = registry.snapshot()
        with opstats.collect():
            start = time.perf_counter()
            rows = list(self.rows(dtypes))
            elapsed = time.perf_counter() - start
        counters = snapshot_delta(before, registry.snapshot())
        stats = ExecutionStats.capture(
            self.root,
            mode=self.mode,
            elapsed_seconds=elapsed,
            row_count=len(rows),
            counters=counters,
        )
        return rows, stats


class Optimizer:
    """Rule pipeline + cardinality estimation + physical building."""

    def __init__(self, catalog: CatalogView) -> None:
        self.catalog = catalog

    # ------------------------------------------------------------------ #
    # Cardinality estimation
    # ------------------------------------------------------------------ #
    def estimate_rows(self, node: LogicalNode) -> float:
        if isinstance(node, LogicalScan):
            stats = self.catalog.table(node.table).stats()
            predicate = node.predicate
            if predicate is not None:
                from .rewrite import rename_columns

                predicate = rename_columns(predicate, dict(node.projections))
            return stats.row_count * selectivity(predicate, stats)
        if isinstance(node, LogicalFilter):
            # Post-pushdown residual filters: use default selectivities
            # against empty column stats.
            from .stats import TableStats

            return self.estimate_rows(node.child) * selectivity(
                node.predicate, TableStats()
            )
        if isinstance(node, LogicalJoin):
            left = self.estimate_rows(node.left)
            right = self.estimate_rows(node.right)
            if node.join_type == "semi":
                return left * 0.5
            if node.join_type == "anti":
                return left * 0.5
            ndv_left = self._key_ndv(node.left, node.left_keys[0])
            ndv_right = self._key_ndv(node.right, node.right_keys[0])
            cardinality = join_cardinality(left, right, ndv_left, ndv_right)
            if node.join_type == "left":
                cardinality = max(cardinality, left)
            return cardinality
        if isinstance(node, LogicalAggregate):
            child = self.estimate_rows(node.child)
            if not node.group_keys:
                return 1.0
            ndv = 1.0
            for key in node.group_keys:
                ndv *= self._key_ndv(node.child, key) or 100
            return min(child, ndv)
        if isinstance(node, LogicalLimit):
            return min(self.estimate_rows(node.child), float(node.limit))
        if isinstance(node, (LogicalProject, LogicalSort, LogicalWindow)):
            return self.estimate_rows(node.children()[0])
        return 1000.0

    def _key_ndv(self, node: LogicalNode, column: str) -> int | None:
        """NDV of a column if it traces back to a base-table scan."""
        if isinstance(node, LogicalScan):
            storage = node.projections.get(column)
            if storage is None:
                return None
            return self.catalog.table(node.table).stats().column(storage).ndv
        if isinstance(node, (LogicalFilter, LogicalSort, LogicalLimit)):
            return self._key_ndv(node.children()[0], column)
        if isinstance(node, LogicalProject):
            from ..exec.expressions import Column

            for name, expr in node.projections:
                if name == column and isinstance(expr, Column):
                    return self._key_ndv(node.child, expr.name)
            return None
        if isinstance(node, LogicalJoin):
            return self._key_ndv(node.left, column) or self._key_ndv(node.right, column)
        return None

    # ------------------------------------------------------------------ #
    # Pipeline
    # ------------------------------------------------------------------ #
    def optimize(self, plan: LogicalNode) -> LogicalNode:
        plan = push_filters(plan)
        plan = prune_columns(plan)
        plan = choose_join_sides(plan, self.estimate_rows)
        plan = place_bitmaps(plan, self.estimate_rows)
        return plan

    def compile(
        self,
        plan: LogicalNode,
        settings: Mapping[str, Any] | None = None,
        optimize: bool = True,
    ) -> PhysicalPlan:
        """Optimize (optionally) and build an executable physical plan
        under ``settings`` (:func:`repro.settings.resolve`; the defaults
        when not given)."""
        if optimize:
            plan = self.optimize(plan)
        settings = DEFAULTS if settings is None else settings
        result = PhysicalBuilder(self.catalog, settings).build(plan)
        return PhysicalPlan(
            root=result.op,
            mode=result.mode,
            columns=plan.output_names(),
            logical=plan,
        )
