"""Row-mode execution: the tuple-at-a-time Volcano baseline.

Every operator pulls one row (a name -> value dict) at a time from its
child and interprets expressions per row — the classical engine whose
per-row overhead batch mode amortizes away. The paper's headline numbers
(10x-100x) compare exactly this engine over a row store against batch mode
over a columnstore; benchmark E3/E4 reproduce that comparison.

The engine deliberately shares the expression tree and aggregate specs
with batch mode, so both engines compute identical results.
"""

from __future__ import annotations

import abc
import heapq
from typing import Any, Iterator

from ..errors import ExecutionError
from ..governance.context import checkpoint as governance_checkpoint
from ..governance.context import governed_rows
from ..observability.opstats import OperatorStats, instrument_rows, operator_stats
from ..rowstore.table import RowStoreTable
from ..storage.columnstore import ColumnStoreIndex
from .batch import DEFAULT_BATCH_SIZE, Batch
from .expressions import Expr, predicate_true
from .operators.base import BatchOperator
from .operators.hash_aggregate import COUNT_STAR, AggregateSpec
from .operators.sort import _NullsLast
from .operators.window import WindowSpec, compute_window_columns

RID_COLUMN = "__rid__"

# Source scans re-check governance every this many *scanned* rows (the
# emission wrappers only see rows that survive the predicate).
_SCAN_CHECK_INTERVAL = 256


class RowOperator(abc.ABC):
    """A pull-based tuple-at-a-time operator.

    Like :class:`BatchOperator`, every concrete ``rows`` implementation is
    wrapped with the observability instrumented iterator at class-creation
    time, so batch-vs-row comparisons report runtime stats on both sides —
    and with the governance wrapper, so a governed statement hits a
    cancellation checkpoint every few dozen emitted rows.
    """

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        rows = cls.__dict__.get("rows")
        if rows is not None and not getattr(rows, "_instrumented", False):
            cls.rows = instrument_rows(governed_rows(rows))

    @property
    @abc.abstractmethod
    def output_names(self) -> list[str]:
        """Names of the fields each produced row dict carries."""

    @abc.abstractmethod
    def rows(self) -> Iterator[dict[str, Any]]:
        """Produce output rows one at a time."""

    @property
    def op_stats(self) -> OperatorStats:
        """Runtime counters (filled while stats collection is on)."""
        return operator_stats(self)

    def explain_lines(self, depth: int = 0) -> list[str]:
        pad = "  " * depth
        lines = [f"{pad}{self.describe()}"]
        for child in self.child_operators():
            lines.extend(child.explain_lines(depth + 1))
        return lines

    def describe(self) -> str:
        return type(self).__name__

    def child_operators(self) -> list["RowOperator"]:
        return []


class RowTableScan(RowOperator):
    """Heap scan of a row-store table with a residual predicate."""

    def __init__(
        self,
        table: RowStoreTable,
        columns: list[str],
        predicate: Expr | None = None,
        include_rids: bool = False,
    ) -> None:
        self.table = table
        self.columns = list(columns)
        self.predicate = predicate
        self.include_rids = include_rids
        self._positions = [table.schema.position(c) for c in columns]
        self._all_names = table.schema.names

    @property
    def output_names(self) -> list[str]:
        return self.columns + ([RID_COLUMN] if self.include_rids else [])

    def describe(self) -> str:
        return f"RowTableScan(cols={self.columns}, predicate={self.predicate})"

    def rows(self) -> Iterator[dict[str, Any]]:
        names = self._all_names
        predicate = self.predicate
        # Checkpoint on *scanned* rows, not emitted ones: a selective
        # predicate can reject thousands of rows between yields, and the
        # emission-side governance wrapper never runs while we filter.
        for scanned, (rid, row) in enumerate(self.table.scan()):
            if scanned % _SCAN_CHECK_INTERVAL == 0:
                governance_checkpoint()
            row_map = dict(zip(names, row))
            if predicate is not None and not predicate_true(predicate, row_map):
                continue
            out = {c: row_map[c] for c in self.columns}
            if self.include_rids:
                out[RID_COLUMN] = rid
            yield out


class RowIndexSeek(RowOperator):
    """B+tree index seek on a row-store table.

    Seeks the index on its leading column's [low, high] bounds, fetches
    the base rows, and applies the residual predicate — the classical
    OLTP access path the optimizer prefers over a heap scan when a
    selective sargable predicate matches an index.
    """

    def __init__(
        self,
        table: RowStoreTable,
        index,
        columns: list[str],
        low: Any,
        high: Any,
        predicate: Expr | None = None,
        include_rids: bool = False,
    ) -> None:
        self.table = table
        self.index = index
        self.columns = list(columns)
        self.low = low
        self.high = high
        self.predicate = predicate
        self.include_rids = include_rids
        self._all_names = table.schema.names

    @property
    def output_names(self) -> list[str]:
        return self.columns + ([RID_COLUMN] if self.include_rids else [])

    def describe(self) -> str:
        bounds = f"[{self.low!r}..{self.high!r}]"
        return (
            f"RowIndexSeek(index=({', '.join(self.index.columns)}), "
            f"range={bounds}, residual={self.predicate})"
        )

    def rows(self) -> Iterator[dict[str, Any]]:
        names = self._all_names
        predicate = self.predicate
        low_key = (self.low,) if self.low is not None else None
        high_key = (self.high,) if self.high is not None else None
        for scanned, rid in enumerate(self.index.seek_range(low_key, high_key)):
            if scanned % _SCAN_CHECK_INTERVAL == 0:
                governance_checkpoint()
            row = self.table.get(rid)
            if row is None:
                continue
            row_map = dict(zip(names, row))
            if predicate is not None and not predicate_true(predicate, row_map):
                continue
            out = {c: row_map[c] for c in self.columns}
            if self.include_rids:
                out[RID_COLUMN] = rid
            yield out


class RowColumnStoreScan(RowOperator):
    """Row-mode scan over a columnstore index (mixed-mode plans).

    Decompresses row groups and feeds rows one at a time — storage is
    columnar but execution pays full per-row interpretation, isolating the
    batch-execution benefit in benchmark E4.
    """

    def __init__(
        self,
        index: ColumnStoreIndex,
        columns: list[str],
        predicate: Expr | None = None,
    ) -> None:
        self.index = index
        self.columns = list(columns)
        self.predicate = predicate
        self._all_names = index.schema.names
        self._pinned_units = None

    @property
    def output_names(self) -> list[str]:
        return list(self.columns)

    def describe(self) -> str:
        return f"RowColumnStoreScan(cols={self.columns}, predicate={self.predicate})"

    def pin(self, epoch: int) -> None:
        """Pin to the units committed as of ``epoch`` (same contract as
        :meth:`ColumnStoreScan.pin`): row-mode columnstore scans are
        pinnable too, so a mixed-mode plan over a columnstore can run
        lock-free against a snapshot while per-table latch writers
        mutate the live structures.
        """
        self._pinned_units = self.index.pin_scan_units(epoch)

    @property
    def pinned(self) -> bool:
        return self._pinned_units is not None

    def rows(self) -> Iterator[dict[str, Any]]:
        names = self._all_names
        predicate = self.predicate
        source = (
            self.index.iter_unit_rows(self._pinned_units)
            if self._pinned_units is not None
            else self.index._iter_live_rows()
        )
        for scanned, row in enumerate(source):
            if scanned % _SCAN_CHECK_INTERVAL == 0:
                governance_checkpoint()
            row_map = dict(zip(names, row))
            if predicate is not None and not predicate_true(predicate, row_map):
                continue
            yield {c: row_map[c] for c in self.columns}


class RowFilter(RowOperator):
    def __init__(self, child: RowOperator, predicate: Expr) -> None:
        self.child = child
        self.predicate = predicate

    @property
    def output_names(self) -> list[str]:
        return self.child.output_names

    def describe(self) -> str:
        return f"RowFilter({self.predicate})"

    def child_operators(self) -> list[RowOperator]:
        return [self.child]

    def rows(self) -> Iterator[dict[str, Any]]:
        predicate = self.predicate
        for row in self.child.rows():
            if predicate_true(predicate, row):
                yield row


class RowProject(RowOperator):
    def __init__(self, child: RowOperator, projections: list[tuple[str, Expr]]) -> None:
        self.child = child
        self.projections = list(projections)

    @property
    def output_names(self) -> list[str]:
        return [name for name, _ in self.projections]

    def describe(self) -> str:
        inner = ", ".join(f"{n}={e}" for n, e in self.projections)
        return f"RowProject({inner})"

    def child_operators(self) -> list[RowOperator]:
        return [self.child]

    def rows(self) -> Iterator[dict[str, Any]]:
        for row in self.child.rows():
            yield {name: expr.eval_row(row) for name, expr in self.projections}


class RowHashJoin(RowOperator):
    """Tuple-at-a-time hash join (inner / left / semi / anti)."""

    def __init__(
        self,
        build: RowOperator,
        probe: RowOperator,
        build_keys: list[str],
        probe_keys: list[str],
        join_type: str = "inner",
    ) -> None:
        if join_type not in ("inner", "left", "right", "full", "semi", "anti"):
            raise ExecutionError(f"unknown join type {join_type!r}")
        overlap = set(build.output_names) & set(probe.output_names)
        if overlap and join_type not in ("semi", "anti"):
            raise ExecutionError(f"join children share column names {sorted(overlap)}")
        self.build_child = build
        self.probe_child = probe
        self.build_keys = list(build_keys)
        self.probe_keys = list(probe_keys)
        self.join_type = join_type

    @property
    def output_names(self) -> list[str]:
        if self.join_type in ("semi", "anti"):
            return self.probe_child.output_names
        return self.probe_child.output_names + self.build_child.output_names

    def describe(self) -> str:
        return f"RowHashJoin({self.join_type}, {self.build_keys}<->{self.probe_keys})"

    def child_operators(self) -> list[RowOperator]:
        return [self.probe_child, self.build_child]

    def rows(self) -> Iterator[dict[str, Any]]:
        table: dict[tuple, list[dict[str, Any]]] = {}
        unmatched_build: list[dict[str, Any]] = []
        preserve_build = self.join_type in ("right", "full")
        for row in self.build_child.rows():
            key = tuple(row[k] for k in self.build_keys)
            if any(v is None for v in key):
                if preserve_build:
                    unmatched_build.append(row)
                continue
            table.setdefault(key, []).append(row)
        matched_keys: set[tuple] = set()
        build_names = self.build_child.output_names
        probe_null_row = {name: None for name in self.probe_child.output_names}
        null_row = {name: None for name in build_names}
        for probe_row in self.probe_child.rows():
            key = tuple(probe_row[k] for k in self.probe_keys)
            matches = table.get(key) if not any(v is None for v in key) else None
            if matches and preserve_build:
                matched_keys.add(key)
            if self.join_type in ("inner", "right"):
                for build_row in matches or ():
                    yield {**probe_row, **build_row}
            elif self.join_type in ("left", "full"):
                if matches:
                    for build_row in matches:
                        yield {**probe_row, **build_row}
                else:
                    yield {**probe_row, **null_row}
            elif self.join_type == "semi":
                if matches:
                    yield probe_row
            elif self.join_type == "anti":
                if not matches:
                    yield probe_row
        if preserve_build:
            for key, rows in table.items():
                if key in matched_keys:
                    continue
                unmatched_build.extend(rows)
            for build_row in unmatched_build:
                yield {**probe_null_row, **build_row}


class RowHashAggregate(RowOperator):
    """Tuple-at-a-time hash aggregation sharing AggregateSpec with batch."""

    def __init__(
        self,
        child: RowOperator,
        group_keys: list[str],
        aggregates: list[AggregateSpec],
    ) -> None:
        self.child = child
        self.group_keys = list(group_keys)
        self.aggregates = list(aggregates)

    @property
    def output_names(self) -> list[str]:
        return [*self.group_keys, *(s.name for s in self.aggregates)]

    def describe(self) -> str:
        aggs = ", ".join(f"{s.func} AS {s.name}" for s in self.aggregates)
        return f"RowHashAggregate(keys={self.group_keys}, aggs=[{aggs}])"

    def child_operators(self) -> list[RowOperator]:
        return [self.child]

    def rows(self) -> Iterator[dict[str, Any]]:
        # state per group: [count_per_spec, value_per_spec]
        groups: dict[tuple, list[list[Any]]] = {}
        order: list[tuple] = []
        for row in self.child.rows():
            key = tuple(row[k] for k in self.group_keys)
            state = groups.get(key)
            if state is None:
                state = [[0] * len(self.aggregates), [None] * len(self.aggregates)]
                groups[key] = state
                order.append(key)
            counts, values = state
            for i, spec in enumerate(self.aggregates):
                if spec.func == COUNT_STAR:
                    counts[i] += 1
                    continue
                value = spec.expr.eval_row(row)
                if value is None:
                    continue
                counts[i] += 1
                if spec.func == "count":
                    continue
                current = values[i]
                if current is None:
                    values[i] = value
                elif spec.func == "min":
                    values[i] = min(current, value)
                elif spec.func == "max":
                    values[i] = max(current, value)
                else:  # sum / avg
                    values[i] = current + value
        if not groups and not self.group_keys:
            groups[()] = [[0] * len(self.aggregates), [None] * len(self.aggregates)]
            order.append(())
        for key in order:
            counts, values = groups[key]
            out = dict(zip(self.group_keys, key))
            for i, spec in enumerate(self.aggregates):
                if spec.func in (COUNT_STAR, "count"):
                    out[spec.name] = counts[i]
                elif spec.func == "avg":
                    out[spec.name] = values[i] / counts[i] if counts[i] else None
                else:
                    out[spec.name] = values[i] if counts[i] else None
            yield out


class RowWindow(RowOperator):
    """Window computation, tuple-at-a-time surface: materializes the
    child, computes every spec per partition (shared helper with batch
    mode), then re-emits rows in input order with the window columns
    appended."""

    def __init__(self, child: RowOperator, specs: list[WindowSpec]) -> None:
        if not specs:
            raise ExecutionError("window requires at least one spec")
        self.child = child
        self.specs = list(specs)

    @property
    def output_names(self) -> list[str]:
        return self.child.output_names + [spec.name for spec in self.specs]

    def describe(self) -> str:
        inner = ", ".join(f"{s.func} AS {s.name}" for s in self.specs)
        return f"RowWindow({inner})"

    def child_operators(self) -> list[RowOperator]:
        return [self.child]

    def rows(self) -> Iterator[dict[str, Any]]:
        materialized = [dict(row) for row in self.child.rows()]
        computed = compute_window_columns(materialized, self.specs)
        for i, row in enumerate(materialized):
            for spec in self.specs:
                row[spec.name] = computed[spec.name][i]
            yield row


class RowSort(RowOperator):
    def __init__(self, child: RowOperator, keys: list[tuple[str, bool]]) -> None:
        if not keys:
            raise ExecutionError("sort requires at least one key")
        self.child = child
        self.keys = list(keys)

    @property
    def output_names(self) -> list[str]:
        return self.child.output_names

    def describe(self) -> str:
        return f"RowSort({self.keys})"

    def child_operators(self) -> list[RowOperator]:
        return [self.child]

    def rows(self) -> Iterator[dict[str, Any]]:
        materialized = list(self.child.rows())
        for name, descending in reversed(self.keys):
            materialized.sort(key=lambda r: _NullsLast(r[name]), reverse=descending)
        yield from materialized


class RowTop(RowOperator):
    """TOP-N / LIMIT over rows (bounded heap when ordered)."""

    def __init__(
        self,
        child: RowOperator,
        limit: int,
        keys: list[tuple[str, bool]] | None = None,
    ) -> None:
        if limit < 0:
            raise ExecutionError("LIMIT must be non-negative")
        self.child = child
        self.limit = limit
        self.keys = list(keys) if keys else []

    @property
    def output_names(self) -> list[str]:
        return self.child.output_names

    def describe(self) -> str:
        return f"RowTop(limit={self.limit}, keys={self.keys})"

    def child_operators(self) -> list[RowOperator]:
        return [self.child]

    def rows(self) -> Iterator[dict[str, Any]]:
        if self.limit == 0:
            return
        if not self.keys:
            for i, row in enumerate(self.child.rows()):
                if i >= self.limit:
                    return
                yield row
            return
        # Ordered TOP-N: full sort then head (simple and correct; the
        # batch engine is the performance path).
        sorter = RowSort(self.child, self.keys)
        for i, row in enumerate(sorter.rows()):
            if i >= self.limit:
                return
            yield row


# ---------------------------------------------------------------------- #
# Mode adapters (mixed-mode plans)
# ---------------------------------------------------------------------- #
class RowsToBatches(BatchOperator):
    """Adapter: wraps a row operator so batch operators can consume it."""

    def __init__(self, child: RowOperator, batch_size: int = DEFAULT_BATCH_SIZE) -> None:
        self.child = child
        self.batch_size = batch_size

    @property
    def output_names(self) -> list[str]:
        return self.child.output_names

    def describe(self) -> str:
        return "RowsToBatches"

    def child_operators(self) -> list:
        return [self.child]

    def batches(self) -> Iterator[Batch]:
        names = self.child.output_names
        buffer: list[dict[str, Any]] = []
        for row in self.child.rows():
            buffer.append(row)
            if len(buffer) >= self.batch_size:
                yield _rows_to_batch(names, buffer)
                buffer = []
        if buffer:
            yield _rows_to_batch(names, buffer)


class BatchesToRows(RowOperator):
    """Adapter: row operators over a batch child."""

    def __init__(self, child: BatchOperator) -> None:
        self.child = child

    @property
    def output_names(self) -> list[str]:
        return self.child.output_names

    def describe(self) -> str:
        return "BatchesToRows"

    def child_operators(self) -> list:
        return [self.child]

    def rows(self) -> Iterator[dict[str, Any]]:
        names = self.child.output_names
        for batch in self.child.batches():
            for row in batch.to_rows():
                yield dict(zip(names, row))


def _rows_to_batch(names: list[str], buffered: list[dict[str, Any]]) -> Batch:
    data = {name: [row[name] for row in buffered] for name in names}
    return Batch.from_pydict(data)
