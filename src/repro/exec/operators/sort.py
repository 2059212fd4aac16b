"""Batch-mode sort and TOP-N operators.

Both order a batch through :func:`~repro.exec.batch.sort_order`, the one
definition of row order: NULL is greatest, DESC reverses a key, and rows
with equal keys keep their input order. TOP-N is the head of that order
over the rows it kept plus each incoming batch.

Sort is grant-aware: given a :class:`~repro.exec.memory.MemoryGrant`, it
buffers input only while reservations succeed and otherwise degrades to
an external merge sort — sorted runs written to spill files, then a
stable k-way merge, the one place values are compared across runs
(``_heap_component``). Without a grant it buffers everything.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Iterator

import numpy as np

from ...errors import ExecutionError
from ..batch import DEFAULT_BATCH_SIZE, Batch, concat_batches, slice_into_batches, sort_order
from ..memory import MemoryGrant, batch_bytes
from ..spill import SpillFile
from .base import BatchOperator


def _order(batch: Batch, keys: list[tuple[str, bool]]) -> np.ndarray:
    return sort_order([(batch.column(name), batch.null_mask(name), d) for name, d in keys])


@dataclass
class SortStats:
    """Spill accounting (picked up by EXPLAIN ANALYZE via ``stats``)."""

    runs_spilled: int = 0
    spill_bytes: int = 0


class BatchSort(BatchOperator):
    """Full sort: consumes the child, sorts, re-emits in batches.

    ``keys`` is a list of (column, descending) pairs, ordered by
    :func:`~repro.exec.batch.sort_order`: NULLs sort last ascending and
    first descending (SQL Server sorts them first ascending; documented
    divergence kept consistent across both engines).

    With a memory grant, input that exceeds the budget is sorted in
    chunks written to spill files and k-way merged; the merge is stable
    (runs are fed to ``heapq.merge`` in input-chunk order, and equal keys
    prefer earlier iterables), matching the in-memory stable sort.
    """

    def __init__(
        self,
        child: BatchOperator,
        keys: list[tuple[str, bool]],
        batch_size: int = DEFAULT_BATCH_SIZE,
        grant: MemoryGrant | None = None,
    ) -> None:
        if not keys:
            raise ExecutionError("sort requires at least one key")
        self.child = child
        self.keys = list(keys)
        self.batch_size = batch_size
        self.grant = grant
        self.stats = SortStats()

    @property
    def output_names(self) -> list[str]:
        return self.child.output_names

    def describe(self) -> str:
        inner = ", ".join(f"{n}{' DESC' if d else ''}" for n, d in self.keys)
        return f"BatchSort({inner})"

    def child_operators(self) -> list[BatchOperator]:
        return [self.child]

    def batches(self) -> Iterator[Batch]:
        grant = self.grant
        buffered: list[Batch] = []
        reserved = 0
        runs: list[SpillFile] = []
        try:
            for batch in self.child.batches():
                dense = batch.compact()
                if dense.row_count == 0:
                    continue
                need = batch_bytes(dense.columns)
                if grant is not None and not grant.try_reserve(need):
                    # Budget exhausted: flush what we hold as one sorted
                    # run, free its reservation, and retry this batch.
                    if buffered:
                        self._spill_run(buffered, runs)
                        buffered = []
                        grant.release(reserved)
                        reserved = 0
                    if not grant.try_reserve(need):
                        # A single batch larger than the whole budget:
                        # it forms a (sorted) run of its own, unreserved.
                        self._spill_run([dense], runs)
                        continue
                    reserved += need
                elif grant is not None:
                    reserved += need
                buffered.append(dense)
            if runs:
                if buffered:
                    self._spill_run(buffered, runs)
                    buffered = []
                    if grant is not None:
                        grant.release(reserved)
                        reserved = 0
                yield from self._merge_runs(runs)
                return
            merged = concat_batches(buffered)
            if merged is None:
                return
            yield from slice_into_batches(self._sorted(merged), self.batch_size)
        finally:
            if grant is not None and reserved:
                grant.release(reserved)
            for run in runs:
                run.close()

    def _sorted(self, merged: Batch) -> Batch:
        return merged.take(_order(merged, self.keys))

    def _spill_run(self, buffered: list[Batch], runs: list[SpillFile]) -> None:
        merged = concat_batches(buffered)
        if merged is None:
            return
        run = SpillFile()
        runs.append(run)
        run.append(self._sorted(merged))
        self.stats.runs_spilled += 1
        self.stats.spill_bytes += run.bytes_written

    def _merge_runs(self, runs: list[SpillFile]) -> Iterator[Batch]:
        names = self.output_names
        key_pos = [names.index(n) for n, _ in self.keys]
        flags = [d for _, d in self.keys]
        dtypes: dict[str, np.dtype] = {}

        def run_rows(run: SpillFile):
            for batch in run.read_back():
                for name, arr in batch.columns.items():
                    # An all-NULL column holds filler (int64 for a spilled
                    # GROUP BY's NULL-only partition), not its type.
                    mask = batch.null_mask(name)
                    if mask is None or not mask.all():
                        dtypes.setdefault(name, arr.dtype)
                yield from batch.to_rows()

        def sort_key(row: tuple) -> tuple:
            return tuple(
                _heap_component(row[i], d) for i, d in zip(key_pos, flags)
            )

        pending: list[tuple] = []
        # heapq.merge prefers earlier iterables on equal keys; runs are
        # passed in input-chunk order, so the merged order matches what
        # the stable in-memory sort would have produced.
        for row in heapq.merge(*(run_rows(r) for r in runs), key=sort_key):
            pending.append(row)
            if len(pending) >= self.batch_size:
                yield self._rows_batch(names, pending, dtypes)
                pending = []
        if pending:
            yield self._rows_batch(names, pending, dtypes)

    @staticmethod
    def _rows_batch(
        names: list[str], rows: list[tuple], dtypes: dict[str, np.dtype]
    ) -> Batch:
        data = {name: [row[i] for row in rows] for i, name in enumerate(names)}
        return Batch.from_pydict(data, dtypes=dtypes)


class BatchTop(BatchOperator):
    """TOP-N with optional ordering: the best N rows so far are kept as a
    batch, and the next best N are the head of the order of the kept rows
    followed by each incoming batch.

    Without keys it is a plain LIMIT (first N rows in stream order).
    """

    def __init__(
        self,
        child: BatchOperator,
        limit: int,
        keys: list[tuple[str, bool]] | None = None,
    ) -> None:
        if limit < 0:
            raise ExecutionError(f"LIMIT must be non-negative, got {limit}")
        self.child = child
        self.limit = limit
        self.keys = list(keys) if keys else []

    @property
    def output_names(self) -> list[str]:
        return self.child.output_names

    def describe(self) -> str:
        return f"BatchTop(limit={self.limit}, keys={self.keys})"

    def child_operators(self) -> list[BatchOperator]:
        return [self.child]

    def batches(self) -> Iterator[Batch]:
        if self.limit == 0:
            return
        if not self.keys:
            yield from self._plain_limit()
            return
        # The kept rows go first, so on equal keys the earliest row
        # still wins.
        best: list[Batch] = []
        for batch in self.child.batches():
            merged = concat_batches([*best, batch])
            if merged is not None:
                best = [merged.take(_order(merged, self.keys)[: self.limit])]
        yield from best

    def _plain_limit(self) -> Iterator[Batch]:
        remaining = self.limit
        for batch in self.child.batches():
            dense = batch.compact()
            if dense.row_count > remaining:
                dense = dense.take(slice(0, remaining))
            remaining -= dense.row_count
            yield dense
            if remaining == 0:
                return


def _heap_component(value: Any, descending: bool) -> Any:
    """One sort-key component for the external merge (``heapq.merge``),
    which compares values across runs: NULL greatest, as in
    :func:`~repro.exec.batch.sort_keys`."""
    key = (value is None, value)
    return _Descending(key) if descending else key


class _Descending:
    """Inverts comparison for descending sort keys."""

    __slots__ = ("inner",)

    def __init__(self, inner: Any) -> None:
        self.inner = inner

    def __lt__(self, other: "_Descending") -> bool:
        return other.inner < self.inner

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _Descending):
            return NotImplemented
        return self.inner == other.inner
