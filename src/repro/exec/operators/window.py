"""Window-function operator (batch mode) and the shared computation.

Implements the SQL default frame only: with an ORDER BY the aggregate is a
running, *peers-inclusive* accumulation (RANGE UNBOUNDED PRECEDING ..
CURRENT ROW); without one the whole partition shares a single value.
Ranking functions (ROW_NUMBER / RANK / DENSE_RANK) follow the same peer
structure. NULL partition keys form one partition; order keys sort NULLs
last, matching the engines' sort operators.

Both engines materialize the input, compute per-partition, and emit rows
in their *input* order with the window columns appended — a final Sort (if
any) reorders afterwards, so batch and row mode agree row for row.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import chain
from typing import Any, Iterator

import numpy as np

from ...errors import ExecutionError
from ..batch import DEFAULT_BATCH_SIZE, Batch, concat_batches, slice_into_batches
from ..memory import MemoryGrant, batch_bytes
from ..spill import SpillFile, spill_by_key
from .base import BatchOperator
from .hash_aggregate import COUNT_STAR
from .sort import _NullsLast

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


def compute_window_columns(
    rows: list[dict[str, Any]], specs: list[WindowSpec]
) -> dict[str, list[Any]]:
    """Window column values for ``rows``, aligned with the input order."""
    return {spec.name: _compute_one(rows, spec) for spec in specs}


def _compute_one(rows: list[dict[str, Any]], spec: WindowSpec) -> list[Any]:
    out: list[Any] = [None] * len(rows)
    partitions: dict[tuple, list[int]] = {}
    for i, row in enumerate(rows):
        key = tuple(row[column] for column in spec.partition_by)
        partitions.setdefault(key, []).append(i)
    for indices in partitions.values():
        ordered = list(indices)
        # Stable multi-pass sort from the least-significant key backwards,
        # same scheme as the engines' sort operators (NULLs last ascending).
        for column, descending in reversed(spec.order_by):
            ordered.sort(key=lambda i: _NullsLast(rows[i][column]), reverse=descending)
        if spec.func in RANKING_FUNCS:
            _rank_partition(rows, spec, ordered, out)
        else:
            _aggregate_partition(rows, spec, ordered, out)
    return out


def _peer_groups(
    rows: list[dict[str, Any]], spec: WindowSpec, ordered: list[int]
) -> Iterator[list[int]]:
    """Runs of order-key peers; the whole partition when unordered."""
    if not spec.order_by:
        yield ordered
        return
    group = [ordered[0]]
    previous = tuple(rows[ordered[0]][c] for c, _ in spec.order_by)
    for i in ordered[1:]:
        key = tuple(rows[i][c] for c, _ in spec.order_by)
        if key == previous:
            group.append(i)
        else:
            yield group
            group = [i]
            previous = key
    yield group


def _rank_partition(
    rows: list[dict[str, Any]], spec: WindowSpec, ordered: list[int], out: list[Any]
) -> None:
    if spec.func == "row_number":
        for position, i in enumerate(ordered):
            out[i] = position + 1
        return
    position = 0
    dense = 0
    for group in _peer_groups(rows, spec, ordered):
        dense += 1
        rank = position + 1
        for i in group:
            out[i] = rank if spec.func == "rank" else dense
        position += len(group)


def _aggregate_partition(
    rows: list[dict[str, Any]], spec: WindowSpec, ordered: list[int], out: list[Any]
) -> None:
    func = spec.func
    count = 0
    total: Any = None  # running sum for SUM / AVG
    best: Any = None  # running MIN / MAX
    for group in _peer_groups(rows, spec, ordered):
        for i in group:
            if func == COUNT_STAR:
                count += 1
                continue
            value = rows[i][spec.arg]
            if value is None:
                continue
            count += 1
            if func == "count":
                continue
            if func in ("sum", "avg"):
                total = value if total is None else total + value
            elif func == "min":
                best = value if best is None or value < best else best
            else:  # max
                best = value if best is None or value > best else best
        if func in (COUNT_STAR, "count"):
            current = count
        elif func == "sum":
            current = total
        elif func == "avg":
            current = total / count if count else None
        else:
            current = best
        for i in group:
            out[i] = current


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
        if merged is None:
            return
        names = merged.names
        rows = [dict(zip(names, values)) for values in merged.to_rows()]
        computed = compute_window_columns(rows, self.specs)
        batch = merged
        for spec in self.specs:
            column = Batch.from_pydict({spec.name: computed[spec.name]})
            batch = batch.with_column(
                spec.name, column.columns[spec.name], column.null_masks[spec.name]
            )
        yield from slice_into_batches(batch, self.batch_size)

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
                rows: list[dict[str, Any]] = []
                for batch in in_file.read_back():
                    for values in batch.to_rows():
                        rows.append(dict(zip(batch.names, values)))
                in_file.close()
                computed = compute_window_columns(rows, self.specs)
                for spec in self.specs:
                    values = computed[spec.name]
                    for i, row in enumerate(rows):
                        row[spec.name] = values[i]
                for start in range(0, len(rows), self.batch_size):
                    chunk = rows[start : start + self.batch_size]
                    out_file.append(
                        Batch.from_pydict(
                            {n: [r[n] for r in chunk] for n in out_names},
                            dtypes=dtypes,
                        )
                    )
                self.stats.spill_bytes += in_file.bytes_written
                self.stats.spill_bytes += out_file.bytes_written

            def partition_rows(out_file: SpillFile):
                for batch in out_file.read_back():
                    names = batch.names
                    seq_pos = names.index(_SEQ)
                    for values in batch.to_rows():
                        yield values[seq_pos], names, values

            out_names_no_seq = out_names[:-1]
            pending: list[dict[str, Any]] = []
            streams = [partition_rows(f) for f in out_files if f.rows]
            for _, names, values in heapq.merge(*streams, key=lambda e: e[0]):
                row = dict(zip(names, values))
                pending.append(row)
                if len(pending) >= self.batch_size:
                    yield self._emit_rows(pending, out_names_no_seq, dtypes)
                    pending = []
            if pending:
                yield self._emit_rows(pending, out_names_no_seq, dtypes)
        finally:
            for f in (*in_files, *out_files):
                f.close()

    @staticmethod
    def _emit_rows(
        rows: list[dict[str, Any]], names: list[str], dtypes: dict[str, np.dtype]
    ) -> Batch:
        return Batch.from_pydict(
            {n: [r[n] for r in rows] for n in names}, dtypes=dtypes
        )
