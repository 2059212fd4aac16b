"""Physical plan construction: logical nodes → executable operators.

Implements the paper's mode selection: fragments rooted in columnstore
scans run in batch mode, row-store fragments run in row mode, and adapters
bridge the two (mixed-mode plans). ``mode`` can force everything to batch
or row for the E3/E4 comparisons.

Bitmap-filter wiring happens here: when a join was marked ``use_bitmap``
and its probe side bottoms out in a columnstore scan that still exposes
the probe key, the join registers itself to push its build-side bitmap
into that scan before probing starts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Protocol

from ..errors import PlanningError
from ..exec.expressions import Column
from ..exec.memory import MemoryGrant
from ..exec.operators.filter import BatchFilter
from ..exec.operators.hash_aggregate import BatchHashAggregate
from ..exec.operators.hash_join import BatchHashJoin
from ..exec.operators.project import BatchProject
from ..exec.operators.scan import ColumnStoreScan
from ..exec.operators.sort import BatchSort, BatchTop
from ..exec.operators.window import BatchWindow
from ..exec.row_engine import (
    RowColumnStoreScan,
    RowFilter,
    RowHashAggregate,
    RowHashJoin,
    RowProject,
    RowSort,
    RowsToBatches,
    RowTableScan,
    RowTop,
    RowWindow,
)
from ..settings import MODES
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
from .rewrite import rename_columns
from .stats import TableStats

BATCH = "batch"
ROW = "row"


class TableSource(Protocol):
    """What the physical builder needs to know about a stored table."""

    name: str

    @property
    def columnstore(self):  # ColumnStoreIndex | None
        ...

    @property
    def rowstore(self):  # RowStoreTable | None
        ...

    def stats(self) -> TableStats:
        ...


class CatalogView(Protocol):
    def table(self, name: str) -> TableSource:
        ...


@dataclass
class PhysResult:
    """A built fragment: its mode, operator, and bitmap-wiring map.

    ``bitmap_map`` maps plan-level column names to (scan, storage column)
    pairs for columns that flow unchanged from a columnstore scan — the
    positions where a join bitmap can be pushed.
    """

    mode: str
    op: object  # BatchOperator | RowOperator
    bitmap_map: dict[str, tuple[ColumnStoreScan, str]] = field(default_factory=dict)


class PhysicalBuilder:
    """Builds executable operator trees from optimized logical plans."""

    def __init__(self, catalog: CatalogView, settings: Mapping[str, Any]) -> None:
        """``settings``: every setting, resolved for the statement built."""
        if settings["mode"] not in MODES:
            raise PlanningError(f"unknown execution mode {settings['mode']!r}")
        self.catalog = catalog
        self.settings = settings
        self.mode = settings["mode"]
        self.batch_size = settings["batch_size"]

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    def build(self, node: LogicalNode) -> PhysResult:
        if isinstance(node, LogicalScan):
            return self._build_scan(node)
        if isinstance(node, LogicalFilter):
            return self._build_filter(node)
        if isinstance(node, LogicalProject):
            return self._build_project(node)
        if isinstance(node, LogicalJoin):
            return self._build_join(node)
        if isinstance(node, LogicalAggregate):
            return self._build_aggregate(node)
        if isinstance(node, LogicalWindow):
            return self._build_window(node)
        if isinstance(node, LogicalSort):
            return self._build_sort(node)
        if isinstance(node, LogicalLimit):
            return self._build_limit(node)
        raise PlanningError(f"unknown logical node {type(node).__name__}")

    # ------------------------------------------------------------------ #
    # Scans
    # ------------------------------------------------------------------ #
    def _build_scan(self, node: LogicalScan) -> PhysResult:
        source = self.catalog.table(node.table)
        storage_names = list(dict.fromkeys(node.projections.values()))
        renamed = {plan: name for plan, name in node.projections.items() if plan != name}
        predicate = node.predicate
        storage_predicate = (
            rename_columns(predicate, renamed) if predicate is not None and renamed else predicate
        )
        # The storage the plan names, else the columnstore unless in row mode.
        wants = node.storage
        if source.columnstore is not None and wants != "rowstore" and self.mode != ROW:
            scan = ColumnStoreScan(
                source.columnstore,
                storage_names,
                predicate=storage_predicate,
                batch_size=self.batch_size,
                encoded_eval=self.settings["enable_encoded_eval"],
                segment_elimination=self.settings["enable_segment_elimination"],
            )
            op, bitmap_map = self._rename_batch(scan, node.projections)
            return PhysResult(BATCH, op, bitmap_map)

        if source.rowstore is not None and wants != "columnstore":
            row_scan = self._rowstore_access_path(
                source, storage_names, storage_predicate
            )
        elif source.columnstore is not None:
            row_scan = RowColumnStoreScan(
                source.columnstore, storage_names, predicate=storage_predicate
            )
        else:
            raise PlanningError(f"table {node.table!r} has no storage")
        op = self._rename_row(row_scan, node.projections)
        if self.mode == BATCH:
            return PhysResult(BATCH, RowsToBatches(op, self.batch_size))
        return PhysResult(ROW, op)

    def _rowstore_access_path(self, source, storage_names, storage_predicate):
        """Heap scan, or a B+tree index seek when a sargable conjunct
        matches an index's leading column (the OLTP access path)."""
        from ..exec.predicates import extract_column_ranges, split_conjuncts
        from ..exec.row_engine import RowIndexSeek

        indexes = getattr(source, "indexes", None) or {}
        if storage_predicate is not None and indexes:
            conjuncts = split_conjuncts(storage_predicate)
            ranges = extract_column_ranges(conjuncts)
            for index in indexes.values():
                leading = index.columns[0]
                rng = ranges.get(leading)
                if rng is None or (rng.low is None and rng.high is None):
                    continue
                return RowIndexSeek(
                    source.rowstore,
                    index,
                    storage_names,
                    low=rng.low,
                    high=rng.high,
                    predicate=storage_predicate,
                )
        return RowTableScan(
            source.rowstore, storage_names, predicate=storage_predicate
        )

    def _rename_batch(self, scan, projections: dict[str, str]):
        """Rename storage columns to plan names; build the bitmap map."""
        bitmap_map = {plan: (scan, storage) for plan, storage in projections.items()}
        if all(plan == storage for plan, storage in projections.items()):
            return scan, bitmap_map
        projected = BatchProject(
            scan, [(plan, Column(storage)) for plan, storage in projections.items()]
        )
        return projected, bitmap_map

    def _rename_row(self, scan, projections: dict[str, str]):
        if all(plan == storage for plan, storage in projections.items()):
            return scan
        return RowProject(
            scan, [(plan, Column(storage)) for plan, storage in projections.items()]
        )

    # ------------------------------------------------------------------ #
    # Unary operators
    # ------------------------------------------------------------------ #
    def _build_filter(self, node: LogicalFilter) -> PhysResult:
        child = self.build(node.child)
        if child.mode == BATCH:
            return PhysResult(
                BATCH, BatchFilter(child.op, node.predicate), child.bitmap_map
            )
        return PhysResult(ROW, RowFilter(child.op, node.predicate), child.bitmap_map)

    def _build_project(self, node: LogicalProject) -> PhysResult:
        child = self.build(node.child)
        # Pass-through columns keep their bitmap wiring.
        bitmap_map = {}
        for name, expr in node.projections:
            if isinstance(expr, Column) and expr.name in child.bitmap_map:
                bitmap_map[name] = child.bitmap_map[expr.name]
        if child.mode == BATCH:
            return PhysResult(BATCH, BatchProject(child.op, node.projections), bitmap_map)
        return PhysResult(ROW, RowProject(child.op, node.projections), bitmap_map)

    def _build_aggregate(self, node: LogicalAggregate) -> PhysResult:
        child = self.build(node.child)
        if child.mode == BATCH:
            op = BatchHashAggregate(
                child.op,
                node.group_keys,
                node.aggregates,
                grant=MemoryGrant(),
                batch_size=self.batch_size,
            )
            # The aggregate tells its child which columns it can take
            # still encoded (code-space keys, weighted runs). A scan
            # decides per unit and per column, a join produces and
            # passes on what it can, any other operator ignores it.
            if self.settings["enable_encoded_agg"]:
                child.op.declare_encoded(op.takes_encoded())
            return PhysResult(BATCH, op)
        return PhysResult(ROW, RowHashAggregate(child.op, node.group_keys, node.aggregates))

    def _build_window(self, node: LogicalWindow) -> PhysResult:
        child = self.build(node.child)
        if child.mode == BATCH:
            op = BatchWindow(
                child.op, node.specs, self.batch_size, grant=MemoryGrant()
            )
            return PhysResult(BATCH, op)
        return PhysResult(ROW, RowWindow(child.op, node.specs))

    def _build_sort(self, node: LogicalSort) -> PhysResult:
        child = self.build(node.child)
        if child.mode == BATCH:
            op = BatchSort(
                child.op, node.keys, self.batch_size, grant=MemoryGrant()
            )
            return PhysResult(BATCH, op)
        return PhysResult(ROW, RowSort(child.op, node.keys))

    def _build_limit(self, node: LogicalLimit) -> PhysResult:
        keys = None
        child_node = node.child
        if isinstance(child_node, LogicalSort):
            # Fuse Sort + Limit into TOP-N.
            keys = child_node.keys
            child = self.build(child_node.child)
        else:
            child = self.build(child_node)
        if child.mode == BATCH:
            return PhysResult(BATCH, BatchTop(child.op, node.limit, keys=keys))
        return PhysResult(ROW, RowTop(child.op, node.limit, keys=keys))

    # ------------------------------------------------------------------ #
    # Joins
    # ------------------------------------------------------------------ #
    def _build_join(self, node: LogicalJoin) -> PhysResult:
        probe = self.build(node.left)
        build = self.build(node.right)
        join_type = node.join_type

        if probe.mode == ROW and build.mode == ROW and self.mode != BATCH:
            op = RowHashJoin(
                build.op, probe.op, node.right_keys, node.left_keys, join_type
            )
            return PhysResult(ROW, op, dict(probe.bitmap_map))

        probe_op = (
            probe.op if probe.mode == BATCH else RowsToBatches(probe.op, self.batch_size)
        )
        build_op = (
            build.op if build.mode == BATCH else RowsToBatches(build.op, self.batch_size)
        )
        bitmap_target = None
        bitmap_column = None
        if (
            self.settings["enable_bitmaps"]
            and node.use_bitmap
            and node.left_keys[0] in probe.bitmap_map
        ):
            bitmap_target, bitmap_column = probe.bitmap_map[node.left_keys[0]]
        op = BatchHashJoin(
            build=build_op,
            probe=probe_op,
            build_keys=node.right_keys,
            probe_keys=node.left_keys,
            join_type=join_type,
            grant=MemoryGrant(),
            create_bitmap=self.settings["enable_bitmaps"] and bool(node.use_bitmap),
            bitmap_target=bitmap_target,
            bitmap_column=bitmap_column,
            batch_size=self.batch_size,
        )
        # Probe-side bitmap wiring survives the join (fact columns pass through).
        return PhysResult(BATCH, op, dict(probe.bitmap_map))
