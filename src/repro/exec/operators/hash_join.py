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

Every key becomes one integer a row — an integer column as it is, any
other key coded through per-column dictionaries and the aggregate's
mixed-radix combine — so probe keys find their build rows without a
Python loop: through a table addressed by the key when the build keys
are dense in their [min, max] — holding the build row itself when no key
repeats, so a foreign key probed into a primary key is one gather — and
by binary search of the sorted keys otherwise. A batch whose every row
found its one build row is passed through: the build columns are added
beside the probe batch's own arrays, nothing is copied.

A join is also a producer and a carrier of encoded columns: a build-side
column its consumer declared it takes ``AS_CODES`` is factorized once,
over the build rows, and leaves each batch as ``codes[build_idx]`` over
that dictionary; a vector arriving on the probe side is gathered still
encoded. Where it can do neither — a spilled join, a join that
null-extends the probe side, a vector nobody declared — the vector is
decoded, and counted (``MorphReason.JOIN_CANNOT_CARRY``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Iterator

import numpy as np

from ...errors import ExecutionError
from ...observability import registry as metrics
from ...observability.registry import MorphReason
from ...storage.segment import DENSE_DOMAIN_PER_ROW, DictionaryVector
from ..batch import (
    AS_CODES,
    AS_ROWS,
    DEFAULT_BATCH_SIZE,
    Batch,
    as_integers,
    combine_codes,
    concat_batches,
)
from ..bloom import JoinBitmapFilter, dense_slots
from ..memory import MemoryGrant, batch_bytes
from ..spill import SpillFile, spill_by_key
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
    # How probe rows found their build rows, raw keys or coded (offsets |
    # search -> rows probed that way), and the largest key domain seen.
    probe: Counter[str] = field(default_factory=Counter)
    key_domain: int = 0
    columns_emitted_encoded: int = 0
    # MorphReason value -> vectors this join had to decode.
    morph: Counter[str] = field(default_factory=Counter)
    # The offsets table held the build row itself (a unique dense key).
    direct: bool = False
    # Probe rows of batches every row of which matched exactly once: the
    # batch went on as it came, the build columns added beside it.
    rows_passed_through: int = 0


class _HashTable:
    """Build-side hash table over one or more key columns.

    Every key becomes one int64 a row: an integer column is its own key
    (*raw*), any other is *coded* (``DictionaryVector.from_values`` per
    column, ``combine_codes``), probe keys likewise (``_probe_integers``).
    ``locate`` — ``offsets`` when the keys are dense in their [min, max],
    ``search`` otherwise — is a property of the build input, not a
    setting. ``unique`` says no build key repeats (a primary key).

    Both answer in one shape (``ranges``): the probe rows that hit,
    and for each a ``start`` and a ``count`` — its build rows are
    ``_order[start : start + count]``, ``_order`` holding the build rows
    with equal keys adjacent, in build order. Two ``None``s say what
    needs no array, as ``Batch.selection`` does: rows ``None`` is *every*
    probe row hit, counts ``None`` is *every* count is 1 (a unique
    build). A unique ``offsets`` table is ``direct``: its cells hold the
    build row itself (−1 where the domain has a hole), so ``start`` *is*
    the build row and there is no ``_order`` to go through.
    """

    def __init__(self, build: Batch, keys: list[str]) -> None:
        self.key_domain = 0
        self.direct = False
        valid = _non_null_rows(build, keys)
        valid_idx = np.arange(build.row_count) if valid is None else np.flatnonzero(valid)
        first = build.column(keys[0])
        # Coded keys: per column its dictionary (sorted numbers, or a dict
        # from string to code), and the distinct cells of each re-rank.
        self._dictionaries: list[np.ndarray | dict] | None = None
        self._ranks: list[np.ndarray] = []
        if len(keys) == 1 and np.issubdtype(first.dtype, np.integer):
            key_values = first.astype(np.int64, copy=False)[valid_idx]
        else:
            vectors = [DictionaryVector.from_values(build.column(k)[valid_idx]) for k in keys]
            self._dictionaries = [
                d if d.dtype != object else dict(zip(d.tolist(), range(d.size)))
                for d in (v.distinct_values() for v in vectors)
            ]
            key_values, _ = combine_codes(
                [(v.codes, v.n_distinct) for v in vectors], self._rank_build
            )
        order = np.argsort(key_values, kind="stable")
        sorted_keys = key_values[order]
        self._order = valid_idx[order]
        self.unique = not (sorted_keys[1:] == sorted_keys[:-1]).any()
        if sorted_keys.size:
            # Python ints: the extremes of int64 are one apart.
            self._low = int(sorted_keys[0])
            self.key_domain = int(sorted_keys[-1]) - self._low + 1
        if 0 < self.key_domain <= DENSE_DOMAIN_PER_ROW * sorted_keys.size:
            # One cell per key of the domain and a last one where every
            # key outside it lands (dense_slots): no build row.
            self.locate = "offsets"
            self.direct = self.unique
            slots = sorted_keys - self._low
            if self.direct:
                self._row_of = np.full(self.key_domain + 1, -1, dtype=np.int64)
                self._row_of[slots] = self._order
            else:
                self._starts = np.zeros(self.key_domain + 2, dtype=np.int64)
                np.cumsum(
                    np.bincount(slots, minlength=self.key_domain),
                    out=self._starts[1:-1],
                )
                self._starts[-1] = self._starts[-2]
        else:
            self.locate = "search"
            self._sorted_keys = sorted_keys

    def _rank_build(self, index: np.ndarray) -> tuple[np.ndarray, int]:
        distinct, ranks = np.unique(index, return_inverse=True)
        self._ranks.append(distinct)
        return ranks, int(distinct.size)

    def bitmap(self) -> JoinBitmapFilter | None:
        """The exact bitmap over the build keys when the table already is
        one (``direct`` over raw keys: a cell is set where it holds a row;
        a coded table's cells are codes, not keys)."""
        if not self.direct or self._dictionaries is not None:
            return None
        return JoinBitmapFilter.exact(self._row_of >= 0, base=self._low)

    def probe(
        self, probe: Batch, probe_keys: list[str]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Match probe rows: returns (probe_indices, build_indices), one
        entry per matching pair; probe indices are non-decreasing."""
        rows, starts, counts = self.ranges(probe, probe_keys)
        if rows is None:
            rows = np.arange(probe.row_count)
        return self.pairs(rows, starts, counts)

    def ranges(
        self, probe: Batch, probe_keys: list[str]
    ) -> tuple[np.ndarray | None, np.ndarray, np.ndarray | None]:
        """Locate, without fanning out: the probe rows that match
        (ascending; ``None`` = every one), and each one's ``start`` and
        ``count`` (``None`` = every count is 1)."""
        keys, valid = self._probe_integers(probe, probe_keys)
        # The rows that can match at all; None = every row (no NULL key).
        candidates = None
        if valid is not None and not valid.all():
            candidates = np.flatnonzero(valid)
            keys = keys[candidates]
        counts = None
        if self.direct:
            starts = self._row_of.take(dense_slots(keys, self._low, self.key_domain))
            hit = starts >= 0
        elif self.locate == "search" and self.unique:
            # One search and a gather: a unique key's range is one row.
            starts, hit = _positions_in(self._sorted_keys, keys.astype(np.int64, copy=False))
        else:
            if self.locate == "offsets":
                slots = dense_slots(keys, self._low, self.key_domain)
                starts, ends = self._starts.take(slots), self._starts.take(slots + 1)
            else:
                keys = keys.astype(np.int64, copy=False)
                starts = np.searchsorted(self._sorted_keys, keys, side="left")
                ends = np.searchsorted(self._sorted_keys, keys, side="right")
            hit = ends > starts
            counts = ends - starts
        if hit.all():
            return candidates, starts, counts
        rows = np.flatnonzero(hit) if candidates is None else candidates[hit]
        return rows, starts[hit], None if counts is None else counts[hit]

    def pairs(
        self, rows: np.ndarray | None, starts: np.ndarray, counts: np.ndarray | None
    ) -> tuple[np.ndarray | None, np.ndarray]:
        """Located probe rows (``None`` stays ``None``: every row, once)
        beside their build rows; duplicate build keys fan a row out."""
        if counts is None:
            return rows, starts if self.direct else self._order[starts]
        total = int(counts.sum())
        # Flatten [start, start+count) ranges without a Python loop.
        run_offsets = np.repeat(np.cumsum(counts) - counts, counts)
        flat = np.repeat(starts, counts) + (np.arange(total) - run_offsets)
        return np.repeat(rows, counts), self._order[flat]

    def _probe_integers(
        self, probe: Batch, probe_keys: list[str]
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """The probe keys as the build's integers, and the mask of rows
        that can match (``None``: every one) — no NULL, no value the
        build's dictionaries lack, no fraction against an integer."""
        valid = _non_null_rows(probe, probe_keys)
        if self._dictionaries is None:
            keys = probe.column(probe_keys[0])
            if np.issubdtype(keys.dtype, np.integer):
                return keys, valid
            keys, found = as_integers(keys)
        else:
            found = np.ones(probe.row_count, dtype=bool)
            columns = []
            for dictionary, name in zip(self._dictionaries, probe_keys):
                codes, held = _positions_in(dictionary, probe.column(name))
                found &= held
                columns.append((codes, len(dictionary)))
            ranks = iter(self._ranks)

            def rank(index: np.ndarray) -> tuple[np.ndarray, int]:
                # The build's re-rank replayed: its cells, one more dictionary.
                index, held = _positions_in(distinct := next(ranks), index)
                np.logical_and(found, held, out=found)
                return index, int(distinct.size)

            keys, _ = combine_codes(columns, rank)
        return keys, found if valid is None else valid & found


def _positions_in(
    dictionary: np.ndarray | dict, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each value's position in a build key's dictionary and the mask of
    those it holds: a ``map`` through a string dictionary's dict, over
    sorted numbers one left ``searchsorted`` and an equality gather. By
    value: a float equals an integer only when whole (``as_integers``)."""
    n, held, at = values.shape[0], None, None
    if isinstance(dictionary, dict) != (values.dtype == object):
        return np.zeros(n, dtype=np.int64), np.zeros(n, dtype=bool)
    if isinstance(dictionary, dict):
        positions = np.fromiter(map(dictionary.get, values.tolist(), repeat(-1)), np.int64, n)
        return positions, positions >= 0
    floats = np.issubdtype(dictionary.dtype, np.floating)
    if floats and not np.issubdtype(values.dtype, np.floating):
        dictionary, whole = as_integers(dictionary)
        at = np.flatnonzero(whole)
        dictionary = dictionary[at]
    elif not floats and np.issubdtype(values.dtype, np.floating):
        values, held = as_integers(values)
    if dictionary.size == 0:
        return np.zeros(n, dtype=np.int64), np.zeros(n, dtype=bool)
    positions = np.minimum(np.searchsorted(dictionary, values), dictionary.size - 1)
    found = dictionary.take(positions) == values
    if held is not None:
        found &= held
    return (positions if at is None else at.take(positions)), found


def _non_null_rows(batch: Batch, keys: list[str]) -> np.ndarray | None:
    """Mask of the rows whose every key is non-NULL; None = all of them
    (no key column has a NULL mask)."""
    valid = None
    for key in keys:
        mask = batch.null_mask(key)
        if mask is not None:
            valid = ~mask if valid is None else valid & ~mask
    return valid


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
        self._emits: set[str] = set()  # build columns that leave as vectors
        self._carries: set[str] = set()  # probe columns that may arrive as vectors

    @property
    def output_names(self) -> list[str]:
        if self.join_type in (SEMI, ANTI):
            return self.probe_child.output_names
        return self.probe_child.output_names + self.build_child.output_names

    def declare_encoded(self, takes: dict[str, str] | None) -> None:
        """Of what the consumer takes as codes, the build-side columns are
        produced here; the probe-side ones can only come from another join
        below, which is told so, every one of its columns named (the rest
        are gathered, so taken as rows). A join that null-extends the
        probe side keeps both sides plain."""
        as_codes = {name for name, how in (takes or {}).items() if how == AS_CODES}
        self._emits, self._carries = set(), set()
        if self.join_type in (INNER, LEFT_OUTER):
            self._emits = as_codes.intersection(self.build_child.output_names)
        lower = self.probe_child
        if not isinstance(lower, BatchHashJoin):
            return
        if self.join_type not in (RIGHT_OUTER, FULL_OUTER):
            # Its own probe keys it reads, so takes as rows.
            self._carries = as_codes.intersection(lower.output_names).difference(self.probe_keys)
        lower.declare_encoded(
            {name: AS_CODES if name in self._carries else AS_ROWS for name in lower.output_names}
            if self._carries
            else None
        )

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
        try:
            build_batches, build_spills = self._consume_build()
            if build_spills is not None:
                yield from self._spilled_join(build_spills)
                return
            build = concat_batches(build_batches) or _empty_like(self.build_child)
            # Factorized once per join, over the build rows; each output
            # batch then gathers codes, not values.
            vectors = {
                name: DictionaryVector.from_values(
                    build.columns[name], build.null_masks[name], source="join"
                )
                for name in build.names
                if name in self._emits
            }
            self.stats.columns_emitted_encoded = len(vectors)
            yield from self._join_build(build, self._probe_batches(self._carries), vectors)
        finally:
            self._report_to_registry()

    def _probe_batches(self, carried: set[str]) -> Iterator[Batch]:
        for batch in self.probe_child.batches():
            dense = self._plain_except(batch.compact(), carried)
            self.stats.probe_rows += dense.row_count
            yield dense

    def _join_build(
        self, build: Batch, probes: Iterator[Batch], vectors: dict[str, DictionaryVector]
    ) -> Iterator[Batch]:
        """Join ``probes`` against ``build``: all of it, or one spilled
        partition (no bitmap then — the probe side is already consumed)."""
        self.stats.build_rows += build.row_count
        table = _HashTable(build, self.build_keys)
        if not self.stats.spilled:
            self._make_bitmap(build, table)
        build_matched = np.zeros(build.row_count, dtype=bool)
        probe_dtypes: dict[str, np.dtype] = {}
        for dense in probes:
            probe_dtypes = {n: a.dtype for n, a in dense.columns.items()}
            yield from self._join_one(table, build, dense, build_matched, vectors)
        if self.join_type in (RIGHT_OUTER, FULL_OUTER):
            yield from self._emit_unmatched_build(build, build_matched, probe_dtypes)

    def _report_to_registry(self) -> None:
        stats = self.stats
        for name, value in (
            ("offset_probes", stats.probe["offsets"]),
            ("search_probes", stats.probe["search"]),
            ("columns_emitted_encoded", stats.columns_emitted_encoded),
            ("rows_passed_through", stats.rows_passed_through),
        ):
            if value:
                metrics.increment(f"exec.hash_join.{name}", value)
        for reason, count in stats.morph.items():
            metrics.increment(MorphReason(reason).counter, count)

    def _plain_except(self, batch: Batch, carried: set[str]) -> Batch:
        """The join's morph point: every vector of ``batch`` it cannot
        carry through (not in ``carried``) is decoded, and counted."""
        stray = [name for name in batch.encoded if name not in carried]
        if not stray:
            return batch
        columns, null_masks = dict(batch.columns), dict(batch.null_masks)
        for name in stray:
            columns[name], null_masks[name] = batch.encoded[name].decode()
        self.stats.morph[MorphReason.JOIN_CANNOT_CARRY.value] += len(stray)
        return Batch(
            columns=columns,
            null_masks=null_masks,
            selection=batch.selection,
            encoded={n: v for n, v in batch.encoded.items() if n in carried},
        )

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
            self.grant.release(reserved)
            spills = [SpillFile() for _ in range(_SPILL_PARTITIONS)]
            for pending in chain(accumulated, [dense], source):
                spill_by_key(pending.compact(), self.build_keys, spills)
            self.stats.build_rows_spilled = sum(s.rows for s in spills)
            self.stats.spill_bytes += sum(s.bytes_written for s in spills)
            return [], spills
        self.grant.release(reserved)
        return accumulated, None

    def _make_bitmap(self, build: Batch, table: _HashTable) -> None:
        if not self.create_bitmap:
            return
        self.bitmap = table.bitmap()
        if self.bitmap is None:
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
        build_matched: np.ndarray,
        vectors: dict[str, DictionaryVector],
    ) -> Iterator[Batch]:
        n = dense.row_count
        if not n:
            return
        rows, starts, counts = table.ranges(dense, self.probe_keys)
        self.stats.probe[table.locate] += n
        self.stats.direct |= table.direct
        self.stats.key_domain = max(self.stats.key_domain, table.key_domain)
        if self.join_type in (SEMI, ANTI):
            if self.join_type == SEMI:
                idx = rows
            elif rows is None:
                return
            else:
                idx = np.flatnonzero(~_hit_mask(n, rows))
            if idx is None or idx.size:
                yield self._passed_on(dense, idx)
            return
        if counts is not None and rows is None:
            rows = np.arange(n)  # a fan-out names the probe row of every pair
        located = n if rows is None else int(rows.size)
        # A unique build is one piece whatever its size: one build row per
        # located row. Duplicate build keys fan a probe row out: the
        # located rows are emitted in pieces of at most a batch of pairs
        # (so the statement stays cancellable and memory bounded however
        # large the product).
        cuts = [(0, located)] if counts is None else _pieces(counts, self.batch_size)
        for lo, hi in cuts:
            probe_idx, build_idx = table.pairs(
                *(a if a is None else a[lo:hi] for a in (rows, starts, counts))
            )
            if self.join_type in (RIGHT_OUTER, FULL_OUTER):
                build_matched[build_idx] = True
            pad = 0
            if (
                self.join_type in (LEFT_OUTER, FULL_OUTER)
                and hi == located
                and rows is not None
            ):
                # The probe rows nothing matched ride on the last piece,
                # after its pairs, with the build side NULL.
                unmatched = np.flatnonzero(~_hit_mask(n, rows))
                pad = int(unmatched.size)
                if pad:
                    probe_idx = np.concatenate([probe_idx, unmatched])
            if probe_idx is None or probe_idx.size:
                yield self._emit(build, dense, probe_idx, build_idx, pad, vectors)

    def _passed_on(self, dense: Batch, probe_idx: np.ndarray | None) -> Batch:
        """The probe rows at ``probe_idx`` as the probe side of an output
        batch. ``None`` is every row, once: the batch is passed through —
        a new batch over the *same* arrays and vectors (they may be a
        segment cache's; nothing downstream writes into a batch's arrays)."""
        out = dense.take(probe_idx)
        if probe_idx is None:
            self.stats.rows_passed_through += out.row_count
        self.stats.output_rows += out.row_count
        return _without_locators(out)

    def _emit(
        self,
        build: Batch,
        dense: Batch,
        probe_idx: np.ndarray | None,
        build_idx: np.ndarray,
        pad: int,
        vectors: dict[str, DictionaryVector],
    ) -> Batch:
        """Probe rows at ``probe_idx`` (``None``: all of them, as they
        are) beside build rows at ``build_idx``; the last ``pad`` probe
        rows have no build row and get NULLs."""
        out = self._passed_on(dense, probe_idx)
        for name in build.names:
            if name in vectors:
                picked = vectors[name].select(build_idx)
                if pad:
                    codes, nulls = _null_extend(picked.codes, picked.null_mask, pad)
                    picked = DictionaryVector.of(
                        codes, picked.distinct_values(), nulls, picked.source
                    )
                out.encoded[name] = picked
                continue
            mask = build.null_masks[name]
            out.columns[name], out.null_masks[name] = _null_extend(
                build.columns[name][build_idx],
                mask[build_idx] if mask is not None else None,
                pad,
            )
        return out

    def _emit_unmatched_build(
        self, build: Batch, build_matched: np.ndarray, probe_dtypes: dict[str, np.dtype]
    ) -> Iterator[Batch]:
        """RIGHT/FULL OUTER tail: build rows no probe row matched,
        null-extended on the probe side."""
        unmatched = np.flatnonzero(~build_matched)
        if unmatched.size == 0:
            return
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
        for dense in self._probe_batches(set()):  # spill files hold plain columns
            spill_by_key(dense, self.probe_keys, probe_spills)
        self.stats.probe_rows_spilled = sum(s.rows for s in probe_spills)
        self.stats.spill_bytes += sum(s.bytes_written for s in probe_spills)
        try:
            for build_spill, probe_spill in zip(build_spills, probe_spills):
                build = concat_batches(list(build_spill.read_back()))
                build = build or _empty_like(self.build_child)
                yield from self._join_build(build, probe_spill.read_back(), {})
        finally:
            for spill in build_spills + probe_spills:
                spill.close()


def _pieces(counts: np.ndarray, limit: int) -> Iterator[tuple[int, int]]:
    """Cut located probe rows (``counts`` matches each) into consecutive
    ``[lo, hi)`` pieces of at most ``limit`` matches; a single row with
    more than that is a piece of its own. One piece, possibly empty, when
    everything fits — the case of every unique-key build."""
    ends = np.cumsum(counts)
    if not ends.size or ends[-1] <= limit:
        yield 0, int(ends.size)
        return
    lo, emitted = 0, 0
    while lo < ends.size:
        hi = max(lo + 1, int(np.searchsorted(ends, emitted + limit, side="right")))
        yield lo, hi
        lo, emitted = hi, int(ends[hi - 1])


def _hit_mask(row_count: int, rows: np.ndarray) -> np.ndarray:
    mask = np.zeros(row_count, dtype=bool)
    mask[rows] = True
    return mask


def _without_locators(batch: Batch) -> Batch:
    """Row addresses do not survive a join."""
    batch.locators = None
    return batch


def _null_extend(
    values: np.ndarray, mask: np.ndarray | None, pad: int
) -> tuple[np.ndarray, np.ndarray | None]:
    """``(values, mask)`` with ``pad`` NULL rows appended."""
    if not pad:
        return values, mask
    if mask is None:
        mask = np.zeros(values.size, dtype=bool)
    return (
        np.concatenate([values, _null_fill(values.dtype, pad)]),
        np.concatenate([mask, np.ones(pad, dtype=bool)]),
    )


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
