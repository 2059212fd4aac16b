"""Batch-mode hash aggregation with spilling.

Group keys are grouped as dictionary codes, one way for every key: a key
column that arrives as a vector (from a scan or a join that was told this
operator takes it so) brings its codes, a plain one is coded here, batch
by batch; the rows' code combinations are mapped to dense group ids, so
only the distinct combinations of a batch ever become Python tuples, and
once a code space has been seen, only those no earlier batch of it had.
A grouped batch is folded into its cells, not its groups: rows are
counted per cell once, each argument is scattered (``np.add.at`` /
``np.minimum.at`` style) into an accumulator over the cells seeded with
their groups' values, and only the occupied cells go back to the groups.

When the accumulated state exceeds the memory grant, the operator degrades
to the paper's local/global pattern: each subsequent batch is aggregated
*locally*, the partial results are hash-partitioned to spill files, and a
final pass merges partials per partition (benchmark E10). Partials are
mergeable by construction: every aggregate is carried as (count, value).
They merge through the group directory as input rows do, their counts and
values folded in by the same scatter operations, in row order.

A scalar aggregate's argument that arrives still encoded is folded once
per distinct value, weighted by the rows that carry it. A unit grouped by
one run-length key is folded once per run where that is exact: each
aggregate reduced over each run's surviving rows, one group id per run,
the per-run partials merged as spilled ones are.

Supported: COUNT(*), COUNT(expr), SUM, MIN, MAX, AVG.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Iterator

import numpy as np

from ...errors import ExecutionError
from ...observability import registry as metrics
from ...storage.segment import DictionaryVector, RunVector
from ..batch import (
    AS_CODES,
    AS_EXACT_WEIGHTS,
    AS_ROWS,
    AS_WEIGHTS,
    DEFAULT_BATCH_SIZE,
    Batch,
    combine_codes,
    rank_cells,
    slice_into_batches,
)
from ..expressions import Column, Expr
from ..memory import MemoryGrant
from ..spill import SpillFile, spill_by_key
from .base import BatchOperator

COUNT_STAR = "count_star"
_FUNCS = {COUNT_STAR, "count", "sum", "min", "max", "avg"}
_SPILL_PARTITIONS = 8
# Estimated retained bytes per group (keys + accumulators), for the grant.
_BYTES_PER_GROUP = 96
# Cell -> group tables a state keeps, the spaces met most recently: two,
# so two spaces that take turns (a key whose NULLs come and go) both stay.
_TABLES_KEPT = 2
# Argument dtype kinds each aggregate folds per run with the bits of a
# per-row update (None: any): integer MIN/MAX are order-free and int64
# addition wraps associatively. Floats are not: addition does not
# associate, and np.minimum / np.maximum answer their second argument on
# a tie, so 0.0 against -0.0 depends on the fold order.
_RUN_FOLDABLE = {"count": None, "min": "biu", "max": "biu", "sum": "biu", "avg": "biu"}
_REDUCE = {"sum": np.add, "avg": np.add, "min": np.minimum, "max": np.maximum}
# The one NaN a NaN group key holds: NaN equals nothing, itself included,
# so keys holding NaNs made apart would each find a group of their own;
# all of them are one group (PostgreSQL's rule, and ``sort_keys``' order).
NAN = math.nan


@dataclass
class AggregateSpec:
    """One aggregate: function, argument expression, output column name."""

    func: str
    expr: Expr | None
    name: str

    def __post_init__(self) -> None:
        if self.func not in _FUNCS:
            raise ExecutionError(f"unknown aggregate function {self.func!r}")
        if self.func == COUNT_STAR and self.expr is not None:
            raise ExecutionError("COUNT(*) takes no argument")
        if self.func != COUNT_STAR and self.expr is None:
            raise ExecutionError(f"{self.func} requires an argument")


@dataclass
class AggregateStats:
    input_rows: int = 0
    groups: int = 0
    spilled: bool = False
    partials_spilled: int = 0
    spill_bytes: int = 0
    # Group key -> how it arrived ("codes:scan", "codes:join",
    # "codes:project", "coded here"; "a|b" when batches differed), and
    # the batches counted.
    keys: dict[str, str] = field(default_factory=dict)
    keys_from_vectors: int = 0
    keys_coded_locally: int = 0
    # Occupied cells, batch by batch, whose key the group directory did
    # not hold yet: groups, not groups x batches.
    directory_misses: int = 0
    # Rows whose group id came from a code space's table (a cell seen in
    # an earlier batch; runs, for a unit folded run by run): the rows
    # that skipped the directory.
    cells_from_table: int = 0
    # Rows of grouped batches, once a batch, folded into their key cells
    # by every aggregate / by some aggregate through a group id gathered
    # per row (a table that gives two cells one group, a string MIN/MAX).
    rows_folded_by_cell: int = 0
    rows_folded_by_row: int = 0


class _Cells:
    """A grouped batch's qualifying rows by key cell.

    ``cells`` holds each row's cell and ``table`` each cell's group id;
    ``occupied`` are the cells some row holds, ``rows`` how many rows
    each holds and ``gids`` their groups. ``one_per_group``: no two
    cells of the table share a group, so all of a group's rows in the
    batch are one cell's.
    """

    __slots__ = ("cells", "table", "one_per_group", "occupied", "rows", "gids")

    def __init__(
        self,
        cells: np.ndarray,
        table: np.ndarray,
        one_per_group: bool,
        counts: np.ndarray | None = None,
    ) -> None:
        if counts is None:
            counts = np.bincount(cells, minlength=table.size)
        self.cells, self.table, self.one_per_group = cells, table, one_per_group
        self.occupied = np.flatnonzero(counts)
        self.rows = counts[self.occupied]
        self.gids = table[self.occupied]

    def at(self, rows: np.ndarray) -> "_Cells":
        """The same rows' cells at ``rows`` alone (an argument's non-NULL rows)."""
        return _Cells(self.cells[rows], self.table, self.one_per_group)

    def row_gids(self) -> np.ndarray:
        """One group id per row: the gather the fold falls back to."""
        return self.table[self.cells]


class _GroupState:
    """Group-key directory + vectorized per-aggregate accumulators.

    Counts are NumPy arrays updated with ``np.add.at``; sum/min/max over
    numeric arguments use scatter ufuncs (``np.add.at`` /
    ``np.minimum.at`` / ``np.maximum.at``) against identity-initialized
    arrays, into a batch's cells where it comes as ``_Cells``. Only
    string (object) aggregates fall back to a per-row loop. Untouched
    slots are detected through the per-spec non-null counts, so identity
    values never leak into results.

    ``tables`` maps a key code space (the keys' ``DictionaryVector.space``
    and whether each has a NULL slot) to its cell → group id table, −1
    where a cell has not been seen, the space met most recently last.
    Only the ``_TABLES_KEPT`` spaces met last keep theirs, so a space met
    once (a row group's own dictionary, an integer range that moved)
    leaves no table behind for long. Group ids are this state's, so a new
    state starts with none. ``shared`` holds the spaces whose table gives
    two cells one group (0.0 and -0.0 in one float dictionary).
    """

    _INITIAL_CAPACITY = 64

    def __init__(self, key_names: list[str], specs: list[AggregateSpec]) -> None:
        self.key_names = key_names
        self.specs = specs
        self.key_to_gid: dict[tuple, int] = {}
        self.key_rows: list[tuple] = []
        self.tables: dict[tuple, np.ndarray] = {}
        self.shared: set[tuple] = set()
        self._capacity = self._INITIAL_CAPACITY
        self.counts: list[np.ndarray] = [
            np.zeros(self._capacity, dtype=np.int64) for _ in specs
        ]
        # Per spec: None until first value, then (kind, store) where kind is
        # "int" / "float" (NumPy array) or "obj" (Python list).
        self._values: list[tuple[str, Any] | None] = [None for _ in specs]

    @property
    def n_groups(self) -> int:
        return len(self.key_rows)

    @property
    def table_bytes(self) -> int:
        return sum(table.nbytes for table in self.tables.values())

    def table(self, space: tuple) -> np.ndarray | None:
        """The space's table, if it has one, now the one met last."""
        table = self.tables.pop(space, None)
        if table is not None:
            self.tables[space] = table
        return table

    def new_table(self, space: tuple, cells: int) -> np.ndarray:
        """A table for the space, no cell seen yet; the table of the space
        met longest ago goes when there are more than ``_TABLES_KEPT``."""
        table = self.tables[space] = np.full(cells, -1, dtype=np.int64)
        self.shared.discard(space)
        if len(self.tables) > _TABLES_KEPT:
            del self.tables[next(iter(self.tables))]
        return table

    def gid_of(self, key: tuple) -> int:
        gid = self.key_to_gid.get(key)
        if gid is None:
            gid = len(self.key_rows)
            self.key_to_gid[key] = gid
            self.key_rows.append(key)
            if gid >= self._capacity:
                self._grow()
        return gid

    def _grow(self) -> None:
        self._capacity *= 2
        for i, arr in enumerate(self.counts):
            grown = np.zeros(self._capacity, dtype=np.int64)
            grown[: arr.size] = arr
            self.counts[i] = grown
        for i, store in enumerate(self._values):
            if store is None:
                continue
            kind, data = store
            if kind == "obj":
                data.extend([None] * (self._capacity - len(data)))
            else:
                spec = self.specs[i]
                grown = self._identity_array(spec.func, kind, self._capacity)
                grown[: data.size] = data
                self._values[i] = (kind, grown)

    @staticmethod
    def _identity_array(func: str, kind: str, size: int) -> np.ndarray:
        if kind == "int":
            if func == "min":
                return np.full(size, np.iinfo(np.int64).max, dtype=np.int64)
            if func == "max":
                return np.full(size, np.iinfo(np.int64).min, dtype=np.int64)
            return np.zeros(size, dtype=np.int64)
        if func == "min":
            return np.full(size, np.inf, dtype=np.float64)
        if func == "max":
            return np.full(size, -np.inf, dtype=np.float64)
        return np.zeros(size, dtype=np.float64)

    def _value_store(self, spec_index: int, values: np.ndarray):
        """The (kind, store) pair for a spec, created on first use."""
        store = self._values[spec_index]
        if store is not None:
            return store
        spec = self.specs[spec_index]
        if values.dtype == object:
            store = ("obj", [None] * self._capacity)
        elif np.issubdtype(values.dtype, np.integer) or values.dtype == np.bool_:
            store = ("int", self._identity_array(spec.func, "int", self._capacity))
        else:
            store = ("float", self._identity_array(spec.func, "float", self._capacity))
        self._values[spec_index] = store
        return store

    # ------------------------------------------------------------------ #
    # Update from raw input rows
    # ------------------------------------------------------------------ #
    def update(self, batch: Batch, groups: int | _Cells) -> bool:
        """Fold a batch's qualifying rows into their groups, and return
        whether some aggregate gathered a group id per row.

        ``groups`` is the rows' ``_Cells``, or a single int when they all
        belong to one group (a scalar aggregate). Only then can an
        argument arrive as an encoded vector: its distinct values are
        folded once each, weighted by their surviving rows.
        """
        one_group = isinstance(groups, int)
        selection = batch.selection
        keep: np.ndarray | None = None
        folded: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        gathered = False
        for spec_index, spec in enumerate(self.specs):
            if spec.func == COUNT_STAR:
                if one_group:
                    self.counts[spec_index][groups] += batch.active_count
                else:
                    np.add.at(self.counts[spec_index], groups.gids, groups.rows)
                continue
            name = spec.expr.name if type(spec.expr) is Column else None
            if name in batch.encoded:
                if name not in folded:
                    if keep is None:
                        keep = batch.active_mask()
                    vector = batch.encoded[name]
                    weights = vector.weights(keep)
                    carried = weights > 0
                    folded[name] = vector.distinct_values()[carried], weights[carried]
                self._fold(spec_index, spec.func, groups, *folded[name])
                continue
            # Read in place: gathered only where a selection or NULLs
            # leave rows out.
            values, nulls = spec.expr.eval_batch(batch)
            if selection is not None:
                values = values[selection]
                nulls = None if nulls is None else nulls[selection]
            present_groups = groups
            if nulls is not None and nulls.any():
                present = np.flatnonzero(~nulls)
                values = values[present]
                if not one_group:
                    present_groups = groups.at(present)
            gathered |= self._fold(spec_index, spec.func, present_groups, values)
        return gathered

    def _fold(
        self,
        spec_index: int,
        func: str,
        groups: int | _Cells,
        values: np.ndarray,
        weights: np.ndarray | None = None,
    ) -> bool:
        """Count the present (non-NULL) ``values`` into their groups and
        combine them; ``weights`` (single group only) says how many rows
        each value stands for. Returns whether the values' group ids were
        gathered per row."""
        counts = self.counts[spec_index]
        if isinstance(groups, _Cells):
            np.add.at(counts, groups.gids, groups.rows)
        elif weights is None:
            counts[groups] += values.size
        else:
            counts[groups] += int(weights.sum())
        if func == "count" or values.size == 0:
            return False
        if weights is not None and func in ("sum", "avg"):
            # Integer-physical only (the scan gates floats out): int64
            # wraparound addition is associative, so value x weight matches
            # element-at-a-time accumulation exactly.
            values = np.array([np.dot(values.astype(np.int64), weights)], dtype=np.int64)
        if isinstance(groups, int):
            groups = np.full(values.size, groups, dtype=np.int64)
        return self._combine_values(spec_index, func, groups, values)

    def _combine_values(
        self, spec_index: int, func: str, groups: np.ndarray | _Cells, values: np.ndarray
    ) -> bool:
        """Combine ``values`` into their groups in row order: ``groups``
        holds one group id per value, or is the values' ``_Cells``, which
        fall back to a group id per row (the return value) where their
        table gives two cells one group, or for a string MIN / MAX.

        Through cells, each occupied cell is seeded with its group's
        value and the values are scattered into the cells: a group's rows
        are all its one cell's, so the cell takes them in the order the
        group would, and goes back to the group with the same bits."""
        kind, store = self._value_store(spec_index, values)
        by_object = kind == "obj" or values.dtype == object
        gathered = isinstance(groups, _Cells) and (by_object or not groups.one_per_group)
        if gathered:
            groups = groups.row_gids()
        if by_object:
            self._combine_object(spec_index, func, groups, values)
            return gathered
        values = values.astype(np.int64 if kind == "int" else np.float64, copy=False)
        scatter = _REDUCE[func].at
        if isinstance(groups, _Cells):
            cells = np.empty(groups.table.size, dtype=store.dtype)
            cells[groups.occupied] = store[groups.gids]
            scatter(cells, groups.cells, values)
            store[groups.gids] = cells[groups.occupied]
        else:
            scatter(store, groups, values)
        return gathered

    def _combine_object(
        self, spec_index: int, func: str, gids: np.ndarray, values: np.ndarray
    ) -> None:
        data = self._values[spec_index][1]
        op = min if func == "min" else max if func == "max" else None
        vals = values.tolist()
        for gid, value in zip(gids.tolist(), vals):
            current = data[gid]
            if current is None:
                data[gid] = value
            elif op is not None:
                data[gid] = op(current, value)
            else:
                data[gid] = current + value

    # ------------------------------------------------------------------ #
    # Merge partials (spilled partial rows, per-run folds)
    # ------------------------------------------------------------------ #
    def merge(
        self, partials: list[tuple[np.ndarray, np.ndarray | None]], gids: np.ndarray
    ) -> None:
        """Fold partial rows into their groups — per spec, each row's
        count and combined value (``None`` for counts): counts add,
        values combine as input rows' do, in row order (so a float SUM
        adds its partials in the order they were spilled)."""
        for spec_index, (spec, (counts, values)) in enumerate(zip(self.specs, partials)):
            np.add.at(self.counts[spec_index], gids, counts)
            kept = np.flatnonzero(counts)  # a value is NULL where no row counted
            if values is not None and kept.size:
                self._combine_values(spec_index, spec.func, gids[kept], values[kept])

    # ------------------------------------------------------------------ #
    # Output
    # ------------------------------------------------------------------ #
    def _group_values(self, spec_index: int) -> list:
        """Each group's combined value, None where no row contributed."""
        n = self.n_groups
        store = self._values[spec_index]
        if store is None:
            return [None] * n
        kind, data = store
        values = data[:n] if kind == "obj" else data[:n].tolist()
        counted = self.counts[spec_index][:n].tolist()
        return [value if count else None for value, count in zip(values, counted)]

    def finalize(self) -> Batch:
        n = self.n_groups
        data: dict[str, list] = {}
        for position, name in enumerate(self.key_names):
            data[name] = [key[position] for key in self.key_rows]
        for spec_index, spec in enumerate(self.specs):
            counts = self.counts[spec_index][:n]
            if spec.func in (COUNT_STAR, "count"):
                data[spec.name] = counts.tolist()
            elif spec.func == "avg":
                # Divided by the NumPy count, as a float64 division.
                data[spec.name] = [
                    None if value is None else value / count
                    for value, count in zip(self._group_values(spec_index), counts)
                ]
            else:
                data[spec.name] = self._group_values(spec_index)
        return Batch.from_pydict(data)

    def to_partial_batch(self) -> Batch:
        """Serialize state as mergeable partial rows."""
        n = self.n_groups
        data: dict[str, list] = {}
        for position, name in enumerate(self.key_names):
            data[name] = [key[position] for key in self.key_rows]
        for spec_index, spec in enumerate(self.specs):
            data[f"__{spec.name}_count"] = self.counts[spec_index][:n].tolist()
            if spec.func not in (COUNT_STAR, "count"):
                data[f"__{spec.name}_value"] = self._group_values(spec_index)
        return Batch.from_pydict(data)


class BatchHashAggregate(BatchOperator):
    """GROUP BY + aggregates over a batch stream."""

    def __init__(
        self,
        child: BatchOperator,
        group_keys: list[str],
        aggregates: list[AggregateSpec],
        grant: MemoryGrant | None = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> None:
        names = [*group_keys, *(spec.name for spec in aggregates)]
        if len(set(names)) != len(names):
            raise ExecutionError(f"duplicate output names in aggregate: {names}")
        self.child = child
        self.group_keys = list(group_keys)
        self.aggregates = list(aggregates)
        self.grant = grant or MemoryGrant()
        self.batch_size = batch_size
        self.stats = AggregateStats()

    @property
    def output_names(self) -> list[str]:
        return [*self.group_keys, *(spec.name for spec in self.aggregates)]

    def describe(self) -> str:
        aggs = ", ".join(f"{s.func}({s.expr or '*'}) AS {s.name}" for s in self.aggregates)
        return f"BatchHashAggregate(keys={self.group_keys}, aggs=[{aggs}])"

    def child_operators(self) -> list[BatchOperator]:
        return [self.child]

    def takes_encoded(self) -> dict[str, str] | None:
        """Each child column this aggregate reads → the most encoded form
        it can take it in (what its child is told, whatever operator that
        is), or ``None`` when a key or argument is not a bare child column.

        Group keys are taken as codes — unless one is also an argument
        and so needed as rows anyway; keys travel together. A scalar
        aggregate's arguments are taken as weighted distinct values, exact
        ones for SUM/AVG (whose result depends on accumulation order
        unless the column is integer-physical). Grouped arguments
        accumulate per row — each row updates its own group — so they are
        taken as plain rows.
        """
        available = set(self.child.output_names)
        if not available.issuperset(self.group_keys):
            return None
        takes: dict[str, str] = {}
        for spec in self.aggregates:
            if spec.expr is None:  # COUNT(*)
                continue
            if type(spec.expr) is not Column or spec.expr.name not in available:
                return None
            if self.group_keys:
                takes[spec.expr.name] = AS_ROWS
            elif spec.func in ("sum", "avg"):
                takes[spec.expr.name] = AS_EXACT_WEIGHTS
            else:
                takes.setdefault(spec.expr.name, AS_WEIGHTS)
        keys_as = AS_CODES if takes.keys().isdisjoint(self.group_keys) else AS_ROWS
        takes.update(dict.fromkeys(self.group_keys, keys_as))
        return takes

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def batches(self) -> Iterator[Batch]:
        try:
            yield from self._aggregate()
        finally:
            for name in (
                "keys_from_vectors", "keys_coded_locally", "directory_misses", "cells_from_table",
                "rows_folded_by_cell",
            ):
                if count := getattr(self.stats, name):
                    metrics.increment(f"exec.hash_aggregate.{name}", count)

    def _aggregate(self) -> Iterator[Batch]:
        state = _GroupState(self.group_keys, self.aggregates)
        spills: list[SpillFile] | None = None
        reserved = tables_reserved = 0
        for batch in self.child.batches():
            self.stats.input_rows += batch.active_count
            self._accumulate(state, batch)
            if spills is None:
                needed = state.n_groups * _BYTES_PER_GROUP
                if needed <= reserved or self.grant.try_reserve(needed - reserved):
                    reserved = max(reserved, needed)
                    tables_reserved = self._reserve_tables(state, tables_reserved)
                    continue
                # Grant exhausted: from here on every batch is aggregated
                # locally and its partials spilled.
                self.stats.spilled = True
                self.grant.release(reserved + tables_reserved)
                spills = [SpillFile() for _ in range(_SPILL_PARTITIONS)]
            spill_by_key(state.to_partial_batch(), self.group_keys, spills)
            state = _GroupState(self.group_keys, self.aggregates)

        if spills is None:
            self.grant.release(reserved + tables_reserved)
            if state.n_groups == 0 and not self.group_keys:
                state.gid_of(())  # scalar aggregate over empty input: one row
            self.stats.groups = state.n_groups
            yield from slice_into_batches(state.finalize(), self.batch_size)
            return

        # (A scalar aggregate spills only once it holds its one group.)
        self.stats.partials_spilled = sum(s.rows for s in spills)
        self.stats.spill_bytes = sum(s.bytes_written for s in spills)
        try:
            for spill in spills:
                merged = _GroupState(self.group_keys, self.aggregates)
                for partial in spill.read_back():
                    self._merge(merged, partial)
                self.stats.groups += merged.n_groups
                yield from slice_into_batches(merged.finalize(), self.batch_size)
        finally:
            for spill in spills:
                spill.close()

    def _reserve_tables(self, state: _GroupState, reserved: int) -> int:
        """Hold in the grant the bytes of the state's tables, of which
        ``reserved`` are held so far, and return what is held now. The
        tables are a cache, reserved only once the groups fit: when the
        grant or the query's governance will not take them, they are
        dropped, and the aggregate neither spills nor fails for them."""
        needed = state.table_bytes
        if needed > reserved and not self.grant.try_reserve(needed - reserved, optional=True):
            state.tables.clear()
            needed = 0
        if needed < reserved:
            self.grant.release(reserved - needed)
        return needed

    # ------------------------------------------------------------------ #
    # Accumulation helpers
    # ------------------------------------------------------------------ #
    def _accumulate(self, state: _GroupState, batch: Batch) -> None:
        if batch.active_count == 0:
            return
        if not self.group_keys:
            state.update(batch, state.gid_of(()))
            return
        runs = self._run_key(batch)
        if runs is not None:
            self._note_arrival(self.group_keys[0], runs.source)
            self._fold_runs(state, batch, runs)
            return
        # Every key as a vector over the qualifying rows: the one handed
        # in, or the plain column coded here.
        active = batch.selection
        vectors = []
        for key in self.group_keys:
            vector = batch.encoded.get(key)
            if vector is None:
                values, mask = batch.column(key), batch.null_mask(key)
                if active is not None:
                    values, mask = values[active], None if mask is None else mask[active]
                vector = DictionaryVector.from_values(values, mask, source="here")
            else:
                vector = vector.select(active)
            vectors.append(vector)
            self._note_arrival(key, vector.source)
        if state.update(batch, self._code_space_cells(state, vectors)):
            self.stats.rows_folded_by_row += batch.active_count
        else:
            self.stats.rows_folded_by_cell += batch.active_count

    def _run_key(self, batch: Batch) -> RunVector | None:
        """The batch's one group key, if it is a run vector the batch can
        be folded by: no key is NULL (a NULL row's filler shares a run
        with values), and every aggregate is exact in any combining order
        (``_RUN_FOLDABLE``)."""
        if len(self.group_keys) != 1:
            return None
        runs = batch.encoded.get(self.group_keys[0])
        if not isinstance(runs, RunVector) or runs.null_mask is not None:
            return None
        for spec in self.aggregates:
            if spec.func == COUNT_STAR:
                continue
            if type(spec.expr) is not Column or spec.expr.name not in batch.columns:
                return None
            kinds = _RUN_FOLDABLE[spec.func]
            if kinds is not None and batch.columns[spec.expr.name].dtype.kind not in kinds:
                return None
        return runs

    def _fold_runs(self, state: _GroupState, batch: Batch, runs: RunVector) -> None:
        """Fold a unit keyed by ``runs`` run by run. The qualifying rows
        are in storage order, so a run's survivors are one slice of them,
        bounded where the run's bounds fall among them (``searchsorted``
        in the selection); each aggregate is reduced over those slices
        (``reduceat``), and the per-run partials merge into their groups
        — one group id per run, from the runs coded by value — as
        spilled partials do."""
        active = batch.selection
        bounds = runs.run_bounds
        if active is not None:
            bounds = np.searchsorted(active, bounds)
        starts, rows = bounds[:-1], np.diff(bounds)  # survivors per run
        keys = runs.run_keys
        carried = np.flatnonzero(rows)
        if carried.size < rows.size:  # a run left with no row makes no group
            keys, rows, starts = keys.select(carried), rows[carried], starts[carried]
        arguments: dict[str, tuple[np.ndarray, np.ndarray | None]] = {}
        partials = []
        for spec in self.aggregates:
            if spec.func == COUNT_STAR:
                partials.append((rows, None))
                continue
            name = spec.expr.name
            if name not in arguments:
                values, nulls = batch.column(name), batch.null_mask(name)
                if active is not None:
                    values, nulls = values[active], None if nulls is None else nulls[active]
                arguments[name] = values, nulls
            values, nulls = arguments[name]
            counts = rows if nulls is None else np.add.reduceat(~nulls, starts, dtype=np.int64)
            if spec.func == "count":
                partials.append((counts, None))
                continue
            # In int64 / float64, as the per-row path combines; a NULL
            # holds the identity.
            kind = "float" if values.dtype.kind == "f" else "int"
            if nulls is not None:
                values = np.where(nulls, _GroupState._identity_array(spec.func, kind, 1), values)
            dtype = np.float64 if kind == "float" else np.int64
            partials.append((counts, _REDUCE[spec.func].reduceat(values, starts, dtype=dtype)))
        state.merge(partials, self._code_space_cells(state, [keys]).row_gids())

    def _note_arrival(self, key: str, source: str) -> None:
        stats = self.stats
        if source == "here":
            label = "coded here"
            stats.keys_coded_locally += 1
        else:
            label = f"codes:{source}"
            stats.keys_from_vectors += 1
        seen = stats.keys.get(key)
        if seen is None:
            stats.keys[key] = label
        elif label not in seen.split("|"):
            stats.keys[key] = f"{seen}|{label}"

    def _code_space_cells(self, state: _GroupState, vectors: list) -> _Cells:
        """The rows' key cells, and the table that maps them to group ids.

        Each key contributes its code (``n_distinct`` is the NULL slot of
        a key with NULLs) to one mixed-radix cell number per row
        (``combine_codes``; a single key's codes are its cells). The
        state keeps a table cell → group id for the code spaces the keys
        name (``DictionaryVector.space``) that it met last, made when the
        space has no more cells than the batch has rows: once a space has
        been seen, only rows whose cell the table does not hold yet (−1)
        go on. Keys without a space, or whose space first comes with more
        cells than rows, map through a table of their batch alone (over
        the cells' ``np.unique`` ranks when they outnumber the rows).
        """
        n = vectors[0].row_count
        columns = []
        for vector in vectors:
            codes, radix = vector.codes, vector.n_distinct
            if vector.null_mask is not None:
                codes, radix = np.where(vector.null_mask, radix, codes), radix + 1
            columns.append((codes, radix))
        index, cells = combine_codes(columns)
        space = tuple((vector.space, vector.null_mask is not None) for vector in vectors)
        table = state.table(space)
        if table is not None:
            counts = np.bincount(index, minlength=table.size)
            # A row can miss only if an occupied cell does (O(cells)).
            if (table[counts > 0] < 0).any():
                unseen = np.flatnonzero(table[index] < 0)
                if self._new_cells(state, vectors, index, unseen, table):
                    state.shared.add(space)
                self.stats.cells_from_table += n - unseen.size
            else:
                self.stats.cells_from_table += n
            found = _Cells(index, table, space not in state.shared, counts)
        else:
            named = all(vector.space is not None for vector in vectors)
            # (More cells than rows may have been re-ranked by combine_codes.)
            kept = named and math.prod(radix for _, radix in columns) <= n
            if kept:
                table = state.new_table(space, cells)
            else:
                if cells > n:
                    index, cells = rank_cells(index)
                table = np.empty(cells, dtype=np.int64)  # this batch's alone
            shared = self._new_cells(state, vectors, index, None, table)
            if shared and kept:
                state.shared.add(space)
            found = _Cells(index, table, not shared)
        if all(vector.source == "scan" for vector in vectors):
            metrics.increment("storage.scan.agg_code_space_groups", int(found.occupied.size))
        return found

    def _new_cells(
        self,
        state: _GroupState,
        vectors: list,
        index: np.ndarray,
        rows: np.ndarray | None,
        table: np.ndarray,
    ) -> bool:
        """Fill ``table`` with the group id of each cell ``index`` holds
        at ``rows`` (``None``: every row, into a table that holds no cell
        yet), and return whether the table now gives two cells one group.
        Only those cells — in order of first appearance, one row of each
        decoded to its key values — are looked up in the group directory,
        all at once; only a key it does not hold yet (a new group) costs
        an interpreter call, so groups are made in order of first
        appearance. A NaN key is the one NaN, so all of them are one
        group."""
        cells_at = index if rows is None else index[rows]
        m = cells_at.size
        first = np.full(table.size, m, dtype=np.int64)
        np.minimum.at(first, cells_at, np.arange(m, dtype=np.int64))
        occupied = np.flatnonzero(first < m)
        at = first[occupied]
        order = np.argsort(at, kind="stable")
        occupied, at = occupied[order], at[order]
        if rows is not None:
            at = rows[at]

        # Late decode: one row per occupied cell becomes a key tuple.
        per_key = []
        for vector in vectors:
            values, nulls = vector.take(at)
            floats = values.dtype.kind == "f"
            values = values.tolist()
            if floats:
                values = [NAN if value != value else value for value in values]
            if nulls is not None:
                values = [None if null else v for v, null in zip(values, nulls.tolist())]
            per_key.append(values)
        keys = list(zip(*per_key))
        gids = list(map(state.key_to_gid.get, keys))
        if None in gids:
            misses = [i for i, gid in enumerate(gids) if gid is None]
            for i in misses:
                gids[i] = state.gid_of(keys[i])
            self.stats.directory_misses += len(misses)
        # Equal keys in two cells (0.0 and -0.0 where a dictionary keeps
        # both): here or against a cell an earlier batch filled in.
        shared = len(set(gids)) < len(gids)
        if rows is not None and not shared:
            shared = bool(np.isin(gids, table[table >= 0]).any())
        table[occupied] = gids
        return shared

    # ------------------------------------------------------------------ #
    # Spill helpers
    # ------------------------------------------------------------------ #
    def _merge(self, state: _GroupState, partial: Batch) -> None:
        """Fold a spilled partial batch into ``state``: its keys are
        grouped through the directory as input rows' keys are."""
        if self.group_keys:
            gids = self._code_space_cells(state, [
                DictionaryVector.from_values(partial.column(k), partial.null_mask(k), "here")
                for k in self.group_keys
            ]).row_gids()
        else:
            gids = np.full(partial.row_count, state.gid_of(()), dtype=np.int64)
        state.merge([
            (
                partial.column(f"__{spec.name}_count"),
                None if spec.func in (COUNT_STAR, "count")
                else partial.column(f"__{spec.name}_value"),
            )
            for spec in self.aggregates
        ], gids)


def count_star(name: str = "count") -> AggregateSpec:
    """Convenience constructor for COUNT(*)."""
    return AggregateSpec(COUNT_STAR, None, name)


def agg(func: str, column_or_expr, name: str) -> AggregateSpec:
    """Convenience constructor: ``agg("sum", "amount", "total")``."""
    expr = Column(column_or_expr) if isinstance(column_or_expr, str) else column_or_expr
    return AggregateSpec(func, expr, name)
