"""Expression rewriting utilities used by the optimizer and binder."""

from __future__ import annotations

from typing import Callable

from ..errors import PlanningError
from ..exec.expressions import (
    And,
    Arithmetic,
    Between,
    Case,
    Column,
    Comparison,
    Expr,
    FunctionCall,
    InList,
    IsNull,
    Like,
    Literal,
    Not,
    Or,
)
from ..exec.operators.hash_aggregate import AggregateSpec
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


def rename_columns(expr: Expr, mapping: dict[str, str]) -> Expr:
    """A copy of ``expr`` with column names substituted via ``mapping``.

    Names absent from the mapping are kept. The input tree is not
    modified.
    """

    def rename(node: Expr) -> Expr | None:
        if isinstance(node, Column):
            return Column(mapping.get(node.name, node.name))
        return None

    return map_expression(expr, rename)


def map_expression(expr: Expr, leaf_fn: Callable[[Expr], Expr | None]) -> Expr:
    """Generic bottom-up rewrite: ``leaf_fn`` may replace any node.

    ``leaf_fn`` returns a replacement node or ``None`` to keep the
    (rebuilt) original.
    """

    def rebuild(node: Expr) -> Expr:
        replaced = leaf_fn(node)
        if replaced is not None:
            return replaced
        if isinstance(node, (Column, Literal)):
            return node
        if isinstance(node, Arithmetic):
            return Arithmetic(node.op, rebuild(node.left), rebuild(node.right))
        if isinstance(node, Comparison):
            return Comparison(node.op, rebuild(node.left), rebuild(node.right))
        if isinstance(node, And):
            return And(*[rebuild(c) for c in node.conjuncts])
        if isinstance(node, Or):
            return Or(*[rebuild(d) for d in node.disjuncts])
        if isinstance(node, Not):
            return Not(rebuild(node.operand))
        if isinstance(node, IsNull):
            return IsNull(rebuild(node.operand), node.negated)
        if isinstance(node, Between):
            return Between(rebuild(node.operand), rebuild(node.low), rebuild(node.high))
        if isinstance(node, InList):
            return InList(rebuild(node.operand), node.values, node.has_null)
        if isinstance(node, Like):
            return Like(rebuild(node.operand), node.pattern, node.negated)
        if isinstance(node, Case):
            branches = [(rebuild(c), rebuild(v)) for c, v in node.branches]
            default = rebuild(node.default) if node.default is not None else None
            return Case(branches, default)
        if isinstance(node, FunctionCall):
            return FunctionCall(node.name, *[rebuild(o) for o in node.operands])
        raise PlanningError(f"cannot rewrite expression node {type(node).__name__}")

    return rebuild(expr)


def map_plan(node: LogicalNode, leaf_fn: Callable[[Expr], Expr | None]) -> LogicalNode:
    """A copy of a join-free logical plan, every expression in it
    rewritten by :func:`map_expression`. The input plan is not modified
    and shares nothing mutable with the copy."""

    def expr(e: Expr | None) -> Expr | None:
        return None if e is None else map_expression(e, leaf_fn)

    if isinstance(node, LogicalScan):
        return LogicalScan(node.table, dict(node.projections), expr(node.predicate))
    if isinstance(node, LogicalJoin):
        raise PlanningError("cannot rewrite a join plan")
    child = map_plan(node.children()[0], leaf_fn)
    if isinstance(node, LogicalFilter):
        return LogicalFilter(child, expr(node.predicate))
    if isinstance(node, LogicalProject):
        return LogicalProject(child, [(name, expr(e)) for name, e in node.projections])
    if isinstance(node, LogicalAggregate):
        specs = [AggregateSpec(s.func, expr(s.expr), s.name) for s in node.aggregates]
        return LogicalAggregate(child, list(node.group_keys), specs)
    if isinstance(node, LogicalWindow):
        return LogicalWindow(child, list(node.specs))
    if isinstance(node, LogicalSort):
        return LogicalSort(child, list(node.keys))
    if isinstance(node, LogicalLimit):
        return LogicalLimit(child, node.limit)
    raise PlanningError(f"cannot rewrite plan node {type(node).__name__}")
