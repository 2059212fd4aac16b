"""Batch-mode hash aggregation with spilling.

Group keys are grouped as dictionary codes, one way for every key: a key
column that arrives as a vector (from a scan or a join that was told this
operator takes it so) brings its codes, a plain one is coded here, batch
by batch; the rows' code combinations are mapped to dense group ids, so
only the distinct combinations of a batch ever become Python tuples, and
once a code space has been seen, only those no earlier batch of it had.

Every fold names its rows' groups one way, by key cell (``_Cells``): a
grouped batch's rows, a scalar batch's (one cell), a unit's runs and a
spilled partial batch's rows. Rows are counted per cell once, each
argument is scattered (``np.add.at`` / ``np.minimum.at`` style) into an
accumulator over the cells seeded with their groups' values, and only the
occupied cells go back to the groups: a group's rows are one cell's, so
they reach it in row order.

When the accumulated state exceeds the memory grant, the operator degrades
to the paper's local/global pattern: each subsequent batch is aggregated
*locally*, the partial results are hash-partitioned to spill files, and a
final pass merges partials per partition (benchmark E10). Partials are
mergeable by construction: every aggregate is carried as (count, value).
They merge into their key cells as input rows do, in row order.

A scalar aggregate's argument that arrives still encoded is folded once
per distinct value, weighted by the rows that carry it. A unit grouped by
one run-length key is folded once per run where that is exact: each
aggregate reduced over each run's surviving rows, one cell per run, the
per-run partials merged as spilled ones are.

An integer SUM or AVG whose running value leaves BIGINT's range raises.

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
from ...types import BIGINT, FLOAT, DataType, TypeKind
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
from ..expressions import BIGINT_MAX, Column, Expr, bigint, magnitude
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
# per-row update (None: any): integer MIN/MAX are order-free and integer
# addition associates. Floats are not: addition does not associate, and
# np.minimum / np.maximum answer their second argument on a tie, so 0.0
# against -0.0 depends on the fold order.
_RUN_FOLDABLE = {"count": None, "min": "biu", "max": "biu", "sum": "biu", "avg": "biu"}
_REDUCE = {"sum": np.add, "avg": np.add, "min": np.minimum, "max": np.maximum}
# A value store's dtype by kind, and the identities other than 0 / None.
_STORES = {"int": np.int64, "float": np.float64, "obj": object}
_IDENTITIES = {
    ("min", "int"): np.iinfo(np.int64).max, ("max", "int"): np.iinfo(np.int64).min,
    ("min", "float"): np.inf, ("max", "float"): -np.inf,
}
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

    def __str__(self) -> str:
        return f"{self.func.upper()}({self.expr or '*'})"


def result_dtype(func: str, arg: DataType | None) -> DataType:
    """The type an aggregate, or a window function, returns over an
    argument of type ``arg`` (None for COUNT(*) and the ranking window
    functions, which take none)."""
    if arg is None or func == "count":
        return BIGINT
    if func in ("min", "max"):
        return arg
    if func == "sum":
        return BIGINT if arg.kind is TypeKind.INT else arg
    # AVG: decimals stay scaled (presentation divides), everything else float.
    return arg if arg.kind is TypeKind.DECIMAL else FLOAT


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
    # Rows of grouped batches (not folded run by run), once a batch.
    rows_folded_by_cell: int = 0


class _Cells:
    """The rows of a fold (input rows, runs, partials) by key cell.

    ``cells`` holds each row's cell and ``table`` each cell's group id;
    ``occupied`` are the cells some row holds, ``rows`` how many rows
    each holds and ``gids`` their groups. No two occupied cells share a
    group, so all of a group's rows in the fold are one cell's.
    """

    __slots__ = ("cells", "table", "occupied", "rows", "gids")

    def __init__(
        self, cells: np.ndarray, table: np.ndarray, counts: np.ndarray | None = None
    ) -> None:
        if counts is None:
            counts = np.bincount(cells, minlength=table.size)
        self.cells, self.table = cells, table
        self.occupied = np.flatnonzero(counts)
        self.rows = counts[self.occupied]
        self.gids = table[self.occupied]

    @staticmethod
    def one(gid: int, rows: int) -> "_Cells":
        """``rows`` rows of the one group ``gid``: one cell."""
        return _Cells(np.zeros(rows, dtype=np.int64), np.array([gid]), np.array([rows]))

    def at(self, rows: np.ndarray) -> "_Cells":
        """The cells at ``rows`` alone (an argument's non-NULL rows, counted partials)."""
        return _Cells(self.cells[rows], self.table)


def _check_sum(seeds: np.ndarray, cells: _Cells, values: np.ndarray, spec: AggregateSpec) -> None:
    """Raise where adding ``values`` to their cells' ``seeds``, in order,
    leaves BIGINT's range at some value, as the row engine's running sum
    does. Exact only past a bound: max |value| x the most values in one
    cell + max |seed| within BIGINT means no running sum can leave it."""
    start = seeds[cells.occupied]
    if magnitude(values) * int(cells.rows.max()) + magnitude(start) <= BIGINT_MAX:
        return
    totals = dict(zip(cells.occupied.tolist(), start.tolist()))
    for cell, value in zip(cells.cells.tolist(), values.tolist()):
        totals[cell] = bigint(totals[cell] + value, spec)


def _weighted_sum(values: np.ndarray, weights: np.ndarray, spec: AggregateSpec) -> np.ndarray:
    """Sum of value x weight, as one int64 partial (integer-physical
    values only: the scan gates floats out), in Python integers where a
    bound does not show that no partial sum leaves int64."""
    dtype = object if magnitude(values) * int(weights.sum()) > BIGINT_MAX else np.int64
    return np.array([bigint(np.dot(values.astype(dtype), weights.astype(dtype)), spec)])


class _GroupState:
    """Group-key directory + vectorized per-aggregate accumulators.

    Every fold comes as ``_Cells``: counts are added per occupied cell;
    sum/min/max over numeric arguments scatter (``np.add.at`` /
    ``np.minimum.at`` / ``np.maximum.at``) into the cells, seeded from
    identity-initialized per-group arrays. Only string (object)
    aggregates take a per-row loop. Untouched slots are detected through
    the per-spec non-null counts, so identity values never leak into
    results.

    ``tables`` maps a key code space (the keys' ``DictionaryVector.space``
    and whether each has a NULL slot) to its cell → group id table, −1
    where a cell has not been seen, the space met most recently last.
    Only the ``_TABLES_KEPT`` spaces met last keep theirs, so a space met
    once (a row group's own dictionary, an integer range that moved)
    leaves no table behind for long, and a table that gives two cells one
    group (0.0 and -0.0 in one float dictionary) is not kept. Group ids
    are this state's, so a new state starts with none.
    """

    _INITIAL_CAPACITY = 64

    def __init__(self, key_names: list[str], specs: list[AggregateSpec]) -> None:
        self.key_names = key_names
        self.specs = specs
        self.key_to_gid: dict[tuple, int] = {}
        self.key_rows: list[tuple] = []
        self.tables: dict[tuple, np.ndarray] = {}
        self._capacity = self._INITIAL_CAPACITY
        self.counts: list[np.ndarray] = [
            np.zeros(self._capacity, dtype=np.int64) for _ in specs
        ]
        # Per spec: None until first value, then (kind, store): "int" /
        # "float" / "obj", an int64 / float64 / object array over groups.
        self._values: list[tuple[str, Any] | None] = [None for _ in specs]

    @property
    def n_groups(self) -> int:
        return len(self.key_rows)

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
            if store is not None:
                kind, data = store
                grown = self._identity_array(self.specs[i].func, kind, self._capacity)
                grown[: data.size] = data
                self._values[i] = (kind, grown)

    @staticmethod
    def _identity_array(func: str, kind: str, size: int) -> np.ndarray:
        """``size`` slots holding ``func``'s identity (a string's: None)."""
        identity = _IDENTITIES.get((func, kind), None if kind == "obj" else 0)
        return np.full(size, identity, dtype=_STORES[kind])

    def _value_store(self, spec_index: int, values: np.ndarray):
        """The (kind, store) pair for a spec, created on first use."""
        if self._values[spec_index] is None:
            kind = "int" if values.dtype.kind in "biu" else "float"
            kind = "obj" if values.dtype == object else kind
            store = self._identity_array(self.specs[spec_index].func, kind, self._capacity)
            self._values[spec_index] = (kind, store)
        return self._values[spec_index]

    # ------------------------------------------------------------------ #
    # Folds: input rows, and partial rows (spilled ones, per-run folds)
    # ------------------------------------------------------------------ #
    def update(self, batch: Batch, cells: _Cells) -> None:
        """Fold a batch's qualifying rows, by their ``cells``, into their
        groups. Only a scalar aggregate's argument can arrive as an
        encoded vector: its distinct values are folded once each,
        weighted by their surviving rows."""
        keep: np.ndarray | None = None
        folded: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for spec_index, (spec, counts) in enumerate(zip(self.specs, self.counts)):
            if spec.func == COUNT_STAR:
                counts[cells.gids] += cells.rows
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
                values, weights = folded[name]
                counts[cells.gids] += int(weights.sum())
                if spec.func in ("sum", "avg"):
                    values = _weighted_sum(values, weights, spec)
                present = _Cells.one(int(cells.gids[0]), values.size)
            else:
                # Read in place: gathered only where a selection or NULLs
                # leave rows out.
                values, nulls = spec.expr.eval_batch(batch)
                if batch.selection is not None:
                    values = values[batch.selection]
                    nulls = None if nulls is None else nulls[batch.selection]
                present = cells
                if nulls is not None and nulls.any():
                    kept = np.flatnonzero(~nulls)
                    values, present = values[kept], cells.at(kept)
                counts[present.gids] += present.rows
            if spec.func != "count" and values.size:
                self._combine_values(spec_index, spec, present, values)

    def _combine_values(
        self, spec_index: int, spec: AggregateSpec, cells: _Cells, values: np.ndarray
    ) -> None:
        """Combine ``values`` into their groups by their ``cells``, in
        row order: each occupied cell is seeded with its group's value,
        the values are scattered into the cells, and the cells go back to
        their groups. A group's values are all its one cell's, so the
        cell takes them in the order the group would, and goes back to
        the group with the same bits."""
        kind, store = self._value_store(spec_index, values)
        if kind == "obj" or values.dtype == object:
            self._combine_object(spec_index, spec.func, cells, values)
            return
        seeded = np.empty(cells.table.size, dtype=store.dtype)
        seeded[cells.occupied] = store[cells.gids]
        if kind == "int" and spec.func in ("sum", "avg"):
            _check_sum(seeded, cells, values, spec)
        values = values.astype(np.int64 if kind == "int" else np.float64, copy=False)
        _REDUCE[spec.func].at(seeded, cells.cells, values)
        store[cells.gids] = seeded[cells.occupied]

    def _combine_object(
        self, spec_index: int, func: str, cells: _Cells, values: np.ndarray
    ) -> None:
        data = self._values[spec_index][1]
        op = min if func == "min" else max if func == "max" else None
        for gid, value in zip(cells.table[cells.cells].tolist(), values.tolist()):
            current = data[gid]
            if current is None:
                data[gid] = value
            elif op is not None:
                data[gid] = op(current, value)
            else:
                data[gid] = current + value

    def merge(self, partials: list[tuple[np.ndarray, np.ndarray | None]], cells: _Cells) -> None:
        """Fold partial rows, by their ``cells``, into their groups — per
        spec, each row's count and combined value (``None`` for counts):
        counts add per cell, values combine as input rows' do, in row
        order (so a float SUM adds its partials in the order they were
        spilled)."""
        for spec_index, (spec, (counts, values)) in enumerate(zip(self.specs, partials)):
            per_cell = np.zeros(cells.table.size, dtype=np.int64)
            np.add.at(per_cell, cells.cells, counts)
            self.counts[spec_index][cells.gids] += per_cell[cells.occupied]
            kept = np.flatnonzero(counts)  # a value is NULL where no row counted
            if values is not None and kept.size:
                self._combine_values(spec_index, spec, cells.at(kept), values[kept])

    # ------------------------------------------------------------------ #
    # Output
    # ------------------------------------------------------------------ #
    def _group_values(self, spec_index: int) -> list:
        """Each group's combined value, None where no row contributed."""
        n = self.n_groups
        store = self._values[spec_index]
        if store is None:
            return [None] * n
        values = store[1][:n].tolist()
        counted = self.counts[spec_index][:n].tolist()
        return [value if count else None for value, count in zip(values, counted)]

    def _key_columns(self) -> dict[str, list]:
        return {name: [key[i] for key in self.key_rows] for i, name in enumerate(self.key_names)}

    def finalize(self) -> Batch:
        n = self.n_groups
        data = self._key_columns()
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
        data = self._key_columns()
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
        needed = sum(table.nbytes for table in state.tables.values())
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
            state.update(batch, _Cells.one(state.gid_of(()), batch.active_count))
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
        state.update(batch, self._code_space_cells(state, vectors))
        self.stats.rows_folded_by_cell += batch.active_count

    def _run_key(self, batch: Batch) -> RunVector | None:
        """The batch's one group key, if it is a run vector the batch can
        be folded by: no key is NULL (a NULL row's filler shares a run
        with values), and every aggregate is exact in any combining order
        (``_RUN_FOLDABLE``; an integer sum, while no run's can leave int64)."""
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
            column, kinds = batch.columns[spec.expr.name], _RUN_FOLDABLE[spec.func]
            if kinds is not None and column.dtype.kind not in kinds:
                return None
            if spec.func in ("sum", "avg") and magnitude(column) * column.size > BIGINT_MAX:
                return None  # a run's sum might leave int64: fold by row, each step checked
        return runs

    def _fold_runs(self, state: _GroupState, batch: Batch, runs: RunVector) -> None:
        """Fold a unit keyed by ``runs`` run by run. The qualifying rows
        are in storage order, so a run's survivors are one slice of them,
        bounded where the run's bounds fall among them (``searchsorted``
        in the selection); each aggregate is reduced over those slices
        (``reduceat``), and the per-run partials merge into their groups
        — one cell per run, from the runs coded by value — as spilled
        partials do."""
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
        state.merge(partials, self._code_space_cells(state, [keys]))

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
        (``combine_codes``; a single key's codes are its cells). One
        sequence: get or make the table, count the cells, fill the cells
        it does not hold yet (−1). The state keeps a table cell → group id
        for the code spaces the keys name (``DictionaryVector.space``)
        that it met last, made when the space has no more cells than the
        batch has rows: once a space has been seen, only rows whose cell
        the table does not hold go on. Keys without a space, or whose
        space first comes with more cells than rows, map through a table
        of their batch alone (over the cells' ``np.unique`` ranks when
        they outnumber the rows). Where the table gives two cells one
        group, their rows move to the lowest, and the table is not kept.
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
        if table is None:
            # (More cells than rows may have been re-ranked by combine_codes.)
            named = all(vector.space is not None for vector in vectors)
            if named and math.prod(radix for _, radix in columns) <= n:
                table = state.new_table(space, cells)
            else:
                if cells > n:
                    index, cells = rank_cells(index)
                table = np.full(cells, -1, dtype=np.int64)  # this batch's alone
        counts = np.bincount(index, minlength=table.size)
        if all(vector.source == "scan" for vector in vectors):
            metrics.increment("storage.scan.agg_code_space_groups", np.count_nonzero(counts))
        # Rows whose cell the table holds, counted per cell: the rest go on.
        seen = table >= 0
        from_table = int(counts[seen].sum())
        self.stats.cells_from_table += from_table
        if from_table < n:
            rows = np.flatnonzero(~seen[index]) if from_table else None
            if self._new_cells(state, vectors, index, rows, table):
                state.tables.pop(space, None)
                index, counts = _lowest_cells(index, counts, table), None
        return _Cells(index, table, counts)

    def _new_cells(
        self, state: _GroupState, vectors: list, index: np.ndarray, rows: np.ndarray | None,
        table: np.ndarray,
    ) -> bool:
        """Fill ``table`` with the group id of each cell ``index`` holds
        at ``rows`` (``None``: every row), and return whether the table
        now gives two cells one group. Only those cells — in order of first appearance, one row
        of each decoded to its key values — are looked up in the group
        directory, all at once; only a key it does not hold yet (a new
        group) costs an interpreter call, so groups are made in order of
        first appearance. A NaN key is the one NaN, so all of them are
        one group."""
        cells_at = index if rows is None else index[rows]
        m = cells_at.size
        first = np.full(table.size, m, dtype=np.int64)
        np.minimum.at(first, cells_at, np.arange(m, dtype=np.int64))
        occupied = np.flatnonzero(first < m)
        at = first[occupied]
        order = np.argsort(at, kind="stable")
        occupied, at = occupied[order], at[order] if rows is None else rows[at[order]]

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
        seen = table[table >= 0]
        shared = len(set(gids)) < len(gids) or bool(seen.size and np.isin(gids, seen).any())
        table[occupied] = gids
        return shared

    # ------------------------------------------------------------------ #
    # Spill helpers
    # ------------------------------------------------------------------ #
    def _merge(self, state: _GroupState, partial: Batch) -> None:
        """Fold a spilled partial batch into ``state``: its keys are
        grouped through the directory as input rows' keys are."""
        if self.group_keys:
            cells = self._code_space_cells(state, [
                DictionaryVector.from_values(partial.column(k), partial.null_mask(k), "here")
                for k in self.group_keys
            ])
        else:
            cells = _Cells.one(state.gid_of(()), partial.row_count)
        state.merge([
            (
                partial.column(f"__{spec.name}_count"),
                None if spec.func in (COUNT_STAR, "count")
                else partial.column(f"__{spec.name}_value"),
            )
            for spec in self.aggregates
        ], cells)


def _lowest_cells(index: np.ndarray, counts: np.ndarray, table: np.ndarray) -> np.ndarray:
    """``index`` with each group's rows moved to the group's lowest
    occupied cell, where ``table`` gives two cells one group (0.0 and
    -0.0 in one float dictionary): one gather, rows kept in order."""
    occupied = np.flatnonzero(counts)
    _, first, group = np.unique(table[occupied], return_index=True, return_inverse=True)
    lowest = np.arange(table.size, dtype=np.int64)
    lowest[occupied] = occupied[first][group]
    return lowest[index]


def count_star(name: str = "count") -> AggregateSpec:
    """Convenience constructor for COUNT(*)."""
    return AggregateSpec(COUNT_STAR, None, name)


def agg(func: str, column_or_expr, name: str) -> AggregateSpec:
    """Convenience constructor: ``agg("sum", "amount", "total")``."""
    expr = Column(column_or_expr) if isinstance(column_or_expr, str) else column_or_expr
    return AggregateSpec(func, expr, name)
