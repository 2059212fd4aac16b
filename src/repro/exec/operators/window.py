"""Window-function operator (batch mode) and the shared computation.

Implements the SQL default frame only: with an ORDER BY the aggregate is a
running, *peers-inclusive* accumulation (RANGE UNBOUNDED PRECEDING ..
CURRENT ROW); without one the whole partition shares a single value.
Ranking functions (ROW_NUMBER / RANK / DENSE_RANK) follow the same peer
structure. NULL partition keys form one partition; order keys order
rows as the engines' sorts do (:func:`~repro.exec.batch.sort_keys`).

Both engines materialize the input as one batch (the row engine's as
object columns) and order it once, partition keys most significant: a
partition, and a peer group, starts where an adjacent key changes. Rows
come out in their *input* order with the window columns appended — a
final Sort (if any) reorders afterwards, so batch and row mode agree row
for row.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import chain
from typing import Any, Iterator

import numpy as np

from ...errors import ExecutionError
from ...types import python_values
from ..batch import DEFAULT_BATCH_SIZE, Batch, concat_batches, slice_into_batches, sort_keys
from ..memory import MemoryGrant, batch_bytes
from ..spill import SpillFile, spill_by_key
from .base import BatchOperator
from .hash_aggregate import COUNT_STAR

RANKING_FUNCS = {"row_number", "rank", "dense_rank"}
WINDOW_FUNCS = RANKING_FUNCS | {COUNT_STAR, "count", "sum", "min", "max", "avg"}


@dataclass(frozen=True)
class WindowSpec:
    """One window computation: function, argument column, partitioning.

    ``arg`` names a child column (the binder projects computed argument
    expressions first, like aggregate arguments). ``partition_by`` and
    ``order_by`` likewise name child columns.
    """

    func: str
    arg: str | None
    partition_by: tuple[str, ...]
    order_by: tuple[tuple[str, bool], ...]  # (column, descending)
    name: str

    def __post_init__(self) -> None:
        if self.func not in WINDOW_FUNCS:
            raise ExecutionError(f"unknown window function {self.func!r}")
        needs_arg = self.func not in RANKING_FUNCS and self.func != COUNT_STAR
        if needs_arg and self.arg is None:
            raise ExecutionError(f"window {self.func} requires an argument")
        if not needs_arg and self.arg is not None:
            raise ExecutionError(f"window {self.func} takes no argument")


def compute_window_columns(batch: Batch, specs: list[WindowSpec]) -> Batch:
    """The dense ``batch`` with one column per spec appended, row for row."""
    for spec in specs:
        batch = batch.with_column(spec.name, *_compute_one(batch, spec))
    return batch


def _compute_one(batch: Batch, spec: WindowSpec) -> tuple[np.ndarray, np.ndarray | None]:
    """One ordering, partition keys most significant: a partition (a peer
    group) starts where a partition (an order) key changes."""
    n = batch.row_count
    by_partition = sort_keys([(batch.column(c), batch.null_mask(c), False)
                              for c in spec.partition_by])
    by_order = sort_keys([(batch.column(c), batch.null_mask(c), d) for c, d in spec.order_by])
    order = np.lexsort(by_order + by_partition) if by_order or by_partition else np.arange(n)
    partition_starts = _starts(by_partition, order)
    peer_starts = partition_starts | _starts(by_order, order)
    if spec.func in RANKING_FUNCS:
        position = np.arange(n)
        first = np.maximum.accumulate(np.where(partition_starts, position, 0))
        if spec.func == "row_number":
            ranks = position - first + 1
        elif spec.func == "rank":
            ranks = np.maximum.accumulate(np.where(peer_starts, position, 0)) - first + 1
        else:
            peers = np.cumsum(peer_starts)
            ranks = peers - peers[first] + 1
        out = np.empty(n, dtype=np.int64)
        out[order] = ranks
        return out, None
    out = _aggregate(batch, spec, order, partition_starts, peer_starts)
    # A SUM / AVG / MIN / MAX over an object column (any of the row
    # engine's) keeps its Python values, never retyped by the first one.
    kept = spec.func not in (COUNT_STAR, "count") and batch.column(spec.arg).dtype == object
    column = Batch.from_pydict({"": out}, dtypes={"": np.dtype(object)} if kept else None)
    return column.columns[""], column.null_masks[""]


def _starts(keys: list[np.ndarray], order: np.ndarray) -> np.ndarray:
    """Where, in ``order``, a run of equal ``keys`` begins."""
    starts = np.zeros(order.size, dtype=bool)
    starts[:1] = True
    for key in keys:
        ordered = key[order]
        starts[1:] |= ordered[1:] != ordered[:-1]
    return starts


def _aggregate(
    batch: Batch, spec: WindowSpec, order: np.ndarray, partition_starts: np.ndarray,
    peer_starts: np.ndarray,
) -> list[Any]:
    """The running aggregate, accumulated in Python in ``order`` and
    peers-inclusive: every row of a peer group gets the value after it."""
    func = spec.func
    values = None if spec.arg is None else python_values(
        batch.column(spec.arg), batch.null_mask(spec.arg)
    )
    ordered = order.tolist()
    out: list[Any] = [None] * len(ordered)
    bounds = np.flatnonzero(peer_starts).tolist() + [len(ordered)]
    for start, end in zip(bounds, bounds[1:]):
        if partition_starts[start]:
            count, total, best = 0, None, None  # total for SUM / AVG, best for MIN / MAX
        group = ordered[start:end]
        for i in group:
            value = 1 if values is None else values[i]  # COUNT(*) counts every row
            if value is None:
                continue
            count += 1
            if func in ("sum", "avg"):
                total = value if total is None else total + value
            elif func == "min" and (best is None or value < best):
                best = value
            elif func == "max" and (best is None or value > best):
                best = value
        if func in (COUNT_STAR, "count"):
            current = count
        elif func == "avg":
            current = total / count if count else None
        else:
            current = total if func == "sum" else best
        for i in group:
            out[i] = current
    return out


@dataclass
class WindowStats:
    """Spill accounting (picked up by EXPLAIN ANALYZE via ``stats``)."""

    partitions_spilled: int = 0
    spill_bytes: int = 0


# Ordinal column threaded through window spill files so the k-way merge
# can restore the operator's input-order output contract.
_SEQ = "__window_seq__"
_SPILL_PARTITIONS = 8


class BatchWindow(BatchOperator):
    """Materializing window operator: consumes the child, computes every
    spec per partition, re-emits input-ordered batches with the window
    columns appended.

    With a memory grant, an input that exceeds the budget degrades to
    hash-partitioned spilling when every spec shares at least one
    partition-by column: rows are routed to spill files by that column
    (equal full partition keys always co-locate), each file is processed
    independently, and outputs are merged back into input order by a
    threaded sequence number. Specs with no common partition column
    (e.g. an unpartitioned running total needs the whole input) keep
    buffering in memory — documented best-effort.
    """

    def __init__(
        self,
        child: BatchOperator,
        specs: list[WindowSpec],
        batch_size: int = DEFAULT_BATCH_SIZE,
        grant: MemoryGrant | None = None,
    ) -> None:
        if not specs:
            raise ExecutionError("window requires at least one spec")
        self.child = child
        self.specs = list(specs)
        self.batch_size = batch_size
        self.grant = grant
        self.stats = WindowStats()

    @property
    def output_names(self) -> list[str]:
        return self.child.output_names + [spec.name for spec in self.specs]

    def describe(self) -> str:
        inner = ", ".join(f"{s.func} AS {s.name}" for s in self.specs)
        return f"BatchWindow({inner})"

    def child_operators(self) -> list[BatchOperator]:
        return [self.child]

    def _common_partition_column(self) -> str | None:
        """A partition-by column shared by *every* spec, or None."""
        common = set(self.specs[0].partition_by)
        for spec in self.specs[1:]:
            common &= set(spec.partition_by)
        return min(common) if common else None

    def batches(self) -> Iterator[Batch]:
        grant = self.grant
        route_on = self._common_partition_column()
        buffered: list[Batch] = []
        reserved = 0
        overflow: Batch | None = None
        source = self.child.batches()
        try:
            for batch in source:
                dense = batch.compact()
                if dense.row_count == 0:
                    continue
                need = batch_bytes(dense.columns)
                if (
                    grant is not None
                    and route_on is not None
                    and not grant.try_reserve(need)
                ):
                    overflow = dense
                    break
                if grant is not None and route_on is not None:
                    reserved += need
                buffered.append(dense)
            if overflow is not None:
                # Everything moves to disk; the in-memory reservation is
                # returned before per-partition processing begins.
                try:
                    yield from self._spill_path(
                        route_on, buffered, overflow, source
                    )
                finally:
                    if grant is not None and reserved:
                        grant.release(reserved)
                return
            yield from self._in_memory(buffered)
        finally:
            if grant is not None and reserved and overflow is None:
                grant.release(reserved)

    # ------------------------------------------------------------------ #
    # In-memory path (original behavior)
    # ------------------------------------------------------------------ #
    def _in_memory(self, buffered: list[Batch]) -> Iterator[Batch]:
        merged = concat_batches(buffered)
        if merged is not None:
            yield from slice_into_batches(
                compute_window_columns(merged, self.specs), self.batch_size
            )

    # ------------------------------------------------------------------ #
    # Spill path
    # ------------------------------------------------------------------ #
    def _spill_path(
        self,
        route_on: str,
        buffered: list[Batch],
        overflow: Batch,
        source: Iterator[Batch],
    ) -> Iterator[Batch]:
        child_names = self.child.output_names
        in_files = [SpillFile() for _ in range(_SPILL_PARTITIONS)]
        out_files = [SpillFile() for _ in range(_SPILL_PARTITIONS)]
        dtypes: dict[str, np.dtype] = {}
        try:
            seq = 0  # each row's input position, carried through the files
            for dense in chain(buffered, [overflow], (batch.compact() for batch in source)):
                for name, arr in dense.columns.items():
                    dtypes.setdefault(name, arr.dtype)
                n = dense.row_count
                tagged = dense.with_column(_SEQ, np.arange(seq, seq + n, dtype=np.int64))
                spill_by_key(tagged, [route_on], in_files)
                seq += n
            out_names = [*child_names, *(s.name for s in self.specs), _SEQ]
            for in_file, out_file in zip(in_files, out_files):
                if in_file.rows == 0:
                    continue
                self.stats.partitions_spilled += 1
                merged = concat_batches(list(in_file.read_back()))
                in_file.close()
                computed = compute_window_columns(merged, self.specs).project(out_names)
                for chunk in slice_into_batches(computed, self.batch_size):
                    out_file.append(chunk)
                self.stats.spill_bytes += in_file.bytes_written
                self.stats.spill_bytes += out_file.bytes_written

            def partition_rows(out_file: SpillFile):
                for batch in out_file.read_back():
                    yield from batch.to_rows()  # _SEQ last: projected to out_names

            pending: list[tuple] = []
            streams = [partition_rows(f) for f in out_files if f.rows]
            for row in heapq.merge(*streams, key=lambda row: row[-1]):
                pending.append(row)
                if len(pending) >= self.batch_size:
                    yield self._emit_rows(pending, out_names[:-1], dtypes)
                    pending = []
            if pending:
                yield self._emit_rows(pending, out_names[:-1], dtypes)
        finally:
            for f in (*in_files, *out_files):
                f.close()

    @staticmethod
    def _emit_rows(rows: list[tuple], names: list[str], dtypes: dict[str, np.dtype]) -> Batch:
        return Batch.from_pydict(
            {n: [row[i] for row in rows] for i, n in enumerate(names)}, dtypes=dtypes
        )
