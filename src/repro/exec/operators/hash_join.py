"""Batch-mode hash join.

Implements the paper's reworked hash join:

* build side fully consumed first, into a vectorized hash table;
* a :class:`JoinBitmapFilter` over the build keys is created during build
  and can be *pushed down* into the probe-side columnstore scan (star-join
  optimization, benchmark E6);
* when the build side exceeds its memory grant the join degrades to a
  Grace-style **spilling** join: both sides are hash-partitioned to spill
  files and partitions are joined one at a time (benchmark E10);
* inner, left-outer (probe-preserving), semi and anti joins.

Single integer-keyed joins (the star-schema common case) probe with a
sort + binary-search strategy that is fully vectorized; composite or
string keys fall back to a dictionary of key tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ...errors import ExecutionError
from ..batch import DEFAULT_BATCH_SIZE, Batch, concat_batches
from ..bloom import JoinBitmapFilter
from ..memory import MemoryGrant, batch_bytes
from ..spill import SpillFile, partition_of
from .base import BatchOperator

INNER = "inner"
LEFT_OUTER = "left"   # preserves the probe side
RIGHT_OUTER = "right"  # preserves the build side
FULL_OUTER = "full"
SEMI = "semi"
ANTI = "anti"
_JOIN_TYPES = {INNER, LEFT_OUTER, RIGHT_OUTER, FULL_OUTER, SEMI, ANTI}
_SPILL_PARTITIONS = 8


@dataclass
class JoinStats:
    build_rows: int = 0
    probe_rows: int = 0
    output_rows: int = 0
    spilled: bool = False
    spill_partitions: int = 0
    build_rows_spilled: int = 0
    probe_rows_spilled: int = 0
    spill_bytes: int = 0


class _HashTable:
    """Build-side hash table over one or more key columns."""

    def __init__(self, build: Batch, keys: list[str]) -> None:
        self.build = build
        self.keys = keys
        self.n_rows = build.row_count
        self._valid = self._non_null_rows()
        first = build.column(keys[0]) if keys else np.zeros(0)
        self._vectorized = (
            len(keys) == 1
            and first.dtype != object
            and np.issubdtype(first.dtype, np.integer)
        )
        if self._vectorized:
            key_values = build.column(keys[0]).astype(np.int64)
            valid_idx = np.flatnonzero(self._valid)
            order = valid_idx[np.argsort(key_values[valid_idx], kind="stable")]
            self._sorted_keys = key_values[order]
            self._order = order
        else:
            self._map: dict[tuple, list[int]] = {}
            key_columns = [build.column(k) for k in keys]
            for i in np.flatnonzero(self._valid).tolist():
                key = tuple(col[i] for col in key_columns)
                self._map.setdefault(key, []).append(i)

    def _non_null_rows(self) -> np.ndarray:
        valid = np.ones(self.n_rows, dtype=bool)
        for key in self.keys:
            mask = self.build.null_mask(key)
            if mask is not None:
                valid &= ~mask
        return valid

    def probe(
        self, probe: Batch, probe_keys: list[str]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Match probe rows: returns (probe_indices, build_indices), one
        entry per matching pair; probe indices are non-decreasing."""
        valid = np.ones(probe.row_count, dtype=bool)
        for key in probe_keys:
            mask = probe.null_mask(key)
            if mask is not None:
                valid &= ~mask
        if self._vectorized:
            return self._probe_vectorized(probe, probe_keys[0], valid)
        return self._probe_generic(probe, probe_keys, valid)

    def _probe_vectorized(
        self, probe: Batch, key: str, valid: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        values = probe.column(key).astype(np.int64)
        candidates = np.flatnonzero(valid)
        probe_vals = values[candidates]
        left = np.searchsorted(self._sorted_keys, probe_vals, side="left")
        right = np.searchsorted(self._sorted_keys, probe_vals, side="right")
        counts = right - left
        hit = counts > 0
        starts = left[hit]
        cnts = counts[hit]
        total = int(cnts.sum())
        if total == 0:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty
        # Flatten [start, start+cnt) ranges without a Python loop.
        run_offsets = np.repeat(np.cumsum(cnts) - cnts, cnts)
        flat = np.repeat(starts, cnts) + (np.arange(total) - run_offsets)
        build_indices = self._order[flat]
        probe_indices = np.repeat(candidates[hit], cnts)
        return probe_indices.astype(np.int64), build_indices.astype(np.int64)

    def _probe_generic(
        self, probe: Batch, probe_keys: list[str], valid: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        key_columns = [probe.column(k) for k in probe_keys]
        probe_out: list[int] = []
        build_out: list[int] = []
        for i in np.flatnonzero(valid).tolist():
            key = tuple(col[i] for col in key_columns)
            matches = self._map.get(key)
            if matches:
                probe_out.extend([i] * len(matches))
                build_out.extend(matches)
        return (
            np.array(probe_out, dtype=np.int64),
            np.array(build_out, dtype=np.int64),
        )


class BatchHashJoin(BatchOperator):
    """Hash join of a probe child against a build child."""

    def __init__(
        self,
        build: BatchOperator,
        probe: BatchOperator,
        build_keys: list[str],
        probe_keys: list[str],
        join_type: str = INNER,
        grant: MemoryGrant | None = None,
        create_bitmap: bool = True,
        bitmap_target=None,  # ColumnStoreScan for pushdown
        bitmap_column: str | None = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> None:
        if join_type not in _JOIN_TYPES:
            raise ExecutionError(f"unknown join type {join_type!r}")
        if len(build_keys) != len(probe_keys) or not build_keys:
            raise ExecutionError("join key lists must be non-empty and equal length")
        overlap = set(build.output_names) & set(probe.output_names)
        if overlap and join_type not in (SEMI, ANTI):
            raise ExecutionError(f"join children share column names {sorted(overlap)}")
        self.build_child = build
        self.probe_child = probe
        self.build_keys = list(build_keys)
        self.probe_keys = list(probe_keys)
        self.join_type = join_type
        self.grant = grant or MemoryGrant()
        self.create_bitmap = create_bitmap
        self.bitmap_target = bitmap_target
        self.bitmap_column = bitmap_column
        self.batch_size = batch_size
        self.stats = JoinStats()
        self.bitmap: JoinBitmapFilter | None = None

    @property
    def output_names(self) -> list[str]:
        if self.join_type in (SEMI, ANTI):
            return self.probe_child.output_names
        return self.probe_child.output_names + self.build_child.output_names

    def describe(self) -> str:
        return (
            f"BatchHashJoin({self.join_type}, build={self.build_keys}, "
            f"probe={self.probe_keys}, bitmap={self.create_bitmap})"
        )

    def child_operators(self) -> list[BatchOperator]:
        return [self.probe_child, self.build_child]

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def batches(self) -> Iterator[Batch]:
        build_batches, build_spills = self._consume_build()
        if build_spills is None:
            build = concat_batches(build_batches)
            if build is None:
                build = _empty_like(self.build_child)
            self.stats.build_rows = build.row_count
            self._make_bitmap(build)
            table = _HashTable(build, self.build_keys)
            build_matched = np.zeros(build.row_count, dtype=bool)
            probe_dtypes: dict[str, np.dtype] = {}
            for probe_batch in self.probe_child.batches():
                dense = probe_batch.compact()
                probe_dtypes = {n: a.dtype for n, a in dense.columns.items()}
                self.stats.probe_rows += dense.row_count
                yield from self._join_one(table, build, dense, build_matched)
            if self.join_type in (RIGHT_OUTER, FULL_OUTER):
                yield from self._emit_unmatched_build(build, build_matched, probe_dtypes)
        else:
            yield from self._spilled_join(build_spills)

    # ------------------------------------------------------------------ #
    # Build phase
    # ------------------------------------------------------------------ #
    def _consume_build(self) -> tuple[list[Batch], list[SpillFile] | None]:
        """Accumulate build batches in memory, switching to spill
        partitioning when the grant runs out."""
        accumulated: list[Batch] = []
        reserved = 0
        source = self.build_child.batches()
        for batch in source:
            dense = batch.compact()
            size = batch_bytes(dense.columns)
            if self.grant.try_reserve(size):
                reserved += size
                accumulated.append(dense)
                continue
            # Grant exhausted: spill everything accumulated plus the rest
            # of the SAME iterator (restarting it would duplicate rows).
            self.stats.spilled = True
            self.stats.spill_partitions = _SPILL_PARTITIONS
            spills = [SpillFile() for _ in range(_SPILL_PARTITIONS)]
            for pending in accumulated:
                self._spill_batch(pending, self.build_keys, spills)
            self.grant.release(reserved)
            self._spill_batch(dense, self.build_keys, spills)
            for rest in source:
                self._spill_batch(rest.compact(), self.build_keys, spills)
            self.stats.build_rows_spilled = sum(s.rows for s in spills)
            self.stats.spill_bytes += sum(s.bytes_written for s in spills)
            return [], spills
        self.grant.release(reserved)
        return accumulated, None

    def _spill_batch(self, dense: Batch, keys: list[str], spills: list[SpillFile]) -> None:
        parts = partition_of(_composite_key(dense, keys), _SPILL_PARTITIONS)
        for p in range(_SPILL_PARTITIONS):
            idx = np.flatnonzero(parts == p)
            if idx.size == 0:
                continue
            spills[p].append(
                Batch(
                    columns={n: a[idx] for n, a in dense.columns.items()},
                    null_masks={
                        n: (m[idx] if m is not None else None)
                        for n, m in dense.null_masks.items()
                    },
                )
            )

    def _make_bitmap(self, build: Batch) -> None:
        if not self.create_bitmap:
            return
        keys = build.column(self.build_keys[0])
        mask = build.null_mask(self.build_keys[0])
        if mask is not None:
            keys = keys[~mask]
        self.bitmap = JoinBitmapFilter.build(keys)
        if self.bitmap_target is not None and self.bitmap_column is not None:
            from .scan import BitmapProbe

            self.bitmap_target.bitmap_probes.append(
                BitmapProbe(column=self.bitmap_column, bitmap=self.bitmap)
            )

    # ------------------------------------------------------------------ #
    # In-memory probe
    # ------------------------------------------------------------------ #
    def _join_one(
        self,
        table: _HashTable,
        build: Batch,
        dense: Batch,
        build_matched: np.ndarray | None = None,
    ) -> Iterator[Batch]:
        probe_idx, build_idx = table.probe(dense, self.probe_keys)
        if build_matched is not None and build_idx.size:
            build_matched[build_idx] = True
        if self.join_type in (INNER, RIGHT_OUTER):
            yield from self._emit_inner(build, dense, probe_idx, build_idx)
        elif self.join_type in (LEFT_OUTER, FULL_OUTER):
            yield from self._emit_left(build, dense, probe_idx, build_idx)
        else:
            matched = np.zeros(dense.row_count, dtype=bool)
            matched[probe_idx] = True
            wanted = matched if self.join_type == SEMI else ~matched
            idx = np.flatnonzero(wanted)
            if idx.size:
                out = Batch(
                    columns={n: a[idx] for n, a in dense.columns.items()},
                    null_masks={
                        n: (m[idx] if m is not None else None)
                        for n, m in dense.null_masks.items()
                    },
                )
                self.stats.output_rows += out.row_count
                yield out

    def _emit_inner(self, build, dense, probe_idx, build_idx) -> Iterator[Batch]:
        if probe_idx.size == 0:
            return
        columns = {n: a[probe_idx] for n, a in dense.columns.items()}
        null_masks = {
            n: (m[probe_idx] if m is not None else None)
            for n, m in dense.null_masks.items()
        }
        for name in build.names:
            columns[name] = build.columns[name][build_idx]
            mask = build.null_masks.get(name)
            null_masks[name] = mask[build_idx] if mask is not None else None
        out = Batch(columns=columns, null_masks=null_masks)
        self.stats.output_rows += out.row_count
        yield out

    def _emit_left(self, build, dense, probe_idx, build_idx) -> Iterator[Batch]:
        n = dense.row_count
        matched = np.zeros(n, dtype=bool)
        matched[probe_idx] = True
        unmatched = np.flatnonzero(~matched)
        # Matched pairs + null-extended unmatched rows, in one output.
        all_probe = np.concatenate([probe_idx, unmatched])
        columns = {n2: a[all_probe] for n2, a in dense.columns.items()}
        null_masks = {
            n2: (m[all_probe] if m is not None else None)
            for n2, m in dense.null_masks.items()
        }
        pad = unmatched.size
        for name in build.names:
            arr = build.columns[name]
            mask = build.null_masks.get(name)
            matched_vals = arr[build_idx]
            pad_vals = _null_fill(arr.dtype, pad)
            columns[name] = np.concatenate([matched_vals, pad_vals])
            matched_mask = (
                mask[build_idx] if mask is not None else np.zeros(probe_idx.size, dtype=bool)
            )
            null_masks[name] = np.concatenate([matched_mask, np.ones(pad, dtype=bool)])
        if all_probe.size == 0:
            return
        out = Batch(columns=columns, null_masks=null_masks)
        self.stats.output_rows += out.row_count
        yield out

    def _emit_unmatched_build(
        self,
        build: Batch,
        build_matched: np.ndarray,
        probe_dtypes: dict[str, np.dtype] | None = None,
    ) -> Iterator[Batch]:
        """RIGHT/FULL OUTER tail: build rows no probe row matched,
        null-extended on the probe side."""
        unmatched = np.flatnonzero(~build_matched)
        if unmatched.size == 0:
            return
        probe_dtypes = probe_dtypes or {}
        columns: dict[str, np.ndarray] = {}
        null_masks: dict[str, np.ndarray | None] = {}
        for name in self.probe_child.output_names:
            dtype = probe_dtypes.get(name, np.dtype(np.int64))
            columns[name] = _null_fill(dtype, unmatched.size)
            null_masks[name] = np.ones(unmatched.size, dtype=bool)
        for name in build.names:
            columns[name] = build.columns[name][unmatched]
            mask = build.null_masks.get(name)
            null_masks[name] = mask[unmatched] if mask is not None else None
        out = Batch(columns=columns, null_masks=null_masks)
        self.stats.output_rows += out.row_count
        yield out

    # ------------------------------------------------------------------ #
    # Spilled (Grace) path
    # ------------------------------------------------------------------ #
    def _spilled_join(self, build_spills: list[SpillFile]) -> Iterator[Batch]:
        probe_spills = [SpillFile() for _ in range(_SPILL_PARTITIONS)]
        for batch in self.probe_child.batches():
            dense = batch.compact()
            self.stats.probe_rows += dense.row_count
            self._spill_batch(dense, self.probe_keys, probe_spills)
        self.stats.probe_rows_spilled = sum(s.rows for s in probe_spills)
        self.stats.spill_bytes += sum(s.bytes_written for s in probe_spills)
        try:
            for p in range(_SPILL_PARTITIONS):
                build = concat_batches(list(build_spills[p].read_back()))
                if build is None:
                    build = _empty_like(self.build_child)
                self.stats.build_rows += build.row_count
                # Note: bitmap pushdown is not available on the spill path —
                # the probe side was already consumed to partition it.
                table = _HashTable(build, self.build_keys)
                build_matched = np.zeros(build.row_count, dtype=bool)
                partition_dtypes: dict[str, np.dtype] = {}
                for probe_batch in probe_spills[p].read_back():
                    partition_dtypes = {
                        n: a.dtype for n, a in probe_batch.columns.items()
                    }
                    yield from self._join_one(table, build, probe_batch, build_matched)
                if self.join_type in (RIGHT_OUTER, FULL_OUTER):
                    yield from self._emit_unmatched_build(
                        build, build_matched, partition_dtypes
                    )
        finally:
            for spill in build_spills + probe_spills:
                spill.close()


def _composite_key(batch: Batch, keys: list[str]) -> np.ndarray:
    """A single hashable array combining the key columns."""
    if len(keys) == 1:
        return batch.column(keys[0])
    columns = [batch.column(k) for k in keys]
    out = np.empty(batch.row_count, dtype=object)
    out[:] = list(zip(*(c.tolist() for c in columns)))
    return out


def _null_fill(dtype: np.dtype, count: int) -> np.ndarray:
    if dtype == object:
        out = np.empty(count, dtype=object)
        out[:] = [""] * count
        return out
    if dtype == np.bool_:
        return np.zeros(count, dtype=np.bool_)
    return np.zeros(count, dtype=dtype)


def _empty_like(operator: BatchOperator) -> Batch:
    columns = {name: np.zeros(0, dtype=object) for name in operator.output_names}
    return Batch(columns=columns)
