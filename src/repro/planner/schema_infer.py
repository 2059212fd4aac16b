"""Output-type inference over logical plans.

Walks a logical plan bottom-up to determine the :class:`DataType` of every
output column — used by the database facade to present physical values
(scaled decimals, day-number dates) as Python values.
"""

from __future__ import annotations

from ..errors import PlanningError
from ..exec.batch import RID_COLUMN
from ..exec.operators.hash_aggregate import COUNT_STAR
from ..exec.operators.window import RANKING_FUNCS
from ..types import BIGINT, FLOAT, VARCHAR, DataType, TypeKind
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
from .physical import CatalogView

def infer_output_dtypes(node: LogicalNode, catalog: CatalogView) -> dict[str, DataType]:
    """Map each output column of ``node`` to its DataType."""
    if isinstance(node, LogicalScan):
        schema = catalog.table(node.table).schema
        return {  # a row address leaves a plan as itself, as a VARCHAR cell does
            plan: VARCHAR if storage == RID_COLUMN else schema.dtype(storage)
            for plan, storage in node.projections.items()
        }
    if isinstance(node, (LogicalFilter, LogicalSort, LogicalLimit)):
        return infer_output_dtypes(node.children()[0], catalog)
    if isinstance(node, LogicalProject):
        child = infer_output_dtypes(node.child, catalog)
        resolver = _make_resolver(child)
        return {name: expr.infer_dtype(resolver) for name, expr in node.projections}
    if isinstance(node, LogicalJoin):
        out = infer_output_dtypes(node.left, catalog)
        if node.join_type not in ("semi", "anti"):
            out.update(infer_output_dtypes(node.right, catalog))
        return out
    if isinstance(node, LogicalAggregate):
        child = infer_output_dtypes(node.child, catalog)
        resolver = _make_resolver(child)
        out = {key: child[key] for key in node.group_keys}
        for spec in node.aggregates:
            out[spec.name] = _aggregate_dtype(spec, resolver)
        return out
    if isinstance(node, LogicalWindow):
        out = infer_output_dtypes(node.child, catalog)
        for spec in node.specs:
            out[spec.name] = _window_dtype(spec, out)
        return out
    raise PlanningError(f"unknown logical node {type(node).__name__}")


def _make_resolver(dtypes: dict[str, DataType]):
    def resolver(name: str) -> DataType:
        try:
            return dtypes[name]
        except KeyError:
            raise PlanningError(f"unknown column {name!r} during type inference") from None

    return resolver


def _aggregate_dtype(spec, resolver) -> DataType:
    if spec.func in (COUNT_STAR, "count"):
        return BIGINT
    arg = spec.expr.infer_dtype(resolver)
    if spec.func in ("min", "max"):
        return arg
    if spec.func == "sum":
        if arg.kind is TypeKind.INT:
            return BIGINT
        return arg
    # AVG: decimals stay scaled (presentation divides), everything else float.
    if arg.kind is TypeKind.DECIMAL:
        return arg
    return FLOAT


def _window_dtype(spec, child: dict[str, DataType]) -> DataType:
    """Output type of a window spec; same rules as the aggregates."""
    if spec.func in RANKING_FUNCS or spec.func in (COUNT_STAR, "count"):
        return BIGINT
    try:
        arg = child[spec.arg]
    except KeyError:
        raise PlanningError(
            f"unknown column {spec.arg!r} during type inference"
        ) from None
    if spec.func in ("min", "max"):
        return arg
    if spec.func == "sum":
        return BIGINT if arg.kind is TypeKind.INT else arg
    if arg.kind is TypeKind.DECIMAL:
        return arg
    return FLOAT
