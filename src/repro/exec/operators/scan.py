"""The batch-mode columnstore scan.

Implements the paper's scan enhancements:

* **Segment elimination** — row groups whose per-segment [min, max]
  metadata cannot satisfy the pushed predicate are skipped without
  touching their payloads.
* **Predicate pushdown onto encoded data** — single-column conjuncts over
  dictionary-encoded segments are evaluated once per *distinct value*
  (against the local dictionary) and then mapped over the code stream,
  never materializing the decoded column for filtering.
* **Bitmap-filter pushdown** — join bitmap filters built by downstream
  hash joins discard non-matching rows at the scan.
* **Delta-store scans** — delta rows are materialized column-wise and
  filtered with the same predicate, so queries see trickle-inserted rows.
* **Delete-bitmap application** — deleted rows never leave the scan.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from ...governance.context import checkpoint as governance_checkpoint
from ...observability import opstats
from ...observability import registry as metrics
from ...storage.columnstore import DELTA, GROUP, ColumnStoreIndex, RowLocator, ScanUnit
from ...storage.encodings import Scheme, code_keep_weights, run_keep_weights
from ...storage.rle import RleBlock
from ...types import TypeKind
from ..batch import (
    DEFAULT_BATCH_SIZE,
    Batch,
    CodeSpaceColumn,
    EncodedAggUnit,
    WeightedValues,
)
from ..bloom import JoinBitmapFilter
from ..expressions import Between, Column, Comparison, Expr, Literal, predicate_mask
from ..predicates import (
    _normalize_comparison,
    extract_column_ranges,
    single_column_of,
    split_conjuncts,
)
from .base import BatchOperator

# Mixed-radix group-key combination must stay inside int64; beyond this
# many key-combination cells the aggregate falls back to the decoded path.
_MAX_KEY_CELLS = 2**62


@dataclass
class ScanStats:
    """Observability counters (asserted on by tests and benchmarks)."""

    units_seen: int = 0
    units_eliminated: int = 0
    rows_scanned: int = 0
    rows_emitted: int = 0
    rows_rejected_by_bitmap: int = 0
    rows_rejected_deleted: int = 0
    encoded_space_conjuncts: int = 0
    conjuncts_pruned_by_range: int = 0
    delta_rows_scanned: int = 0
    columns_decoded: int = 0
    agg_runs_processed: int = 0
    agg_fallbacks: int = 0


@dataclass(frozen=True)
class EncodedAggRequest:
    """What an aggregation fast path needs from the scan (storage names).

    Built by the planner for eligible scan→aggregate subtrees: ``keys``
    are the GROUP BY columns, ``args`` the distinct bare-column aggregate
    arguments, and ``exact_sum_args`` the subset feeding SUM/AVG (whose
    accumulation order must match the decoded path bit for bit, so only
    integer-physical columns may travel as weighted values).
    """

    keys: tuple[str, ...]
    args: tuple[str, ...]
    exact_sum_args: frozenset[str]


def build_encoded_agg_request(
    group_keys: list[str], aggregates, scan_columns: list[str]
) -> EncodedAggRequest | None:
    """An :class:`EncodedAggRequest` for this aggregate, or ``None`` when
    any key or argument is not a bare scan column (expressions need the
    decoded path)."""
    available = set(scan_columns)
    if any(key not in available for key in group_keys):
        return None
    args: list[str] = []
    exact: set[str] = set()
    for spec in aggregates:
        if spec.expr is None:  # COUNT(*)
            continue
        if type(spec.expr) is not Column or spec.expr.name not in available:
            return None
        if spec.expr.name not in args:
            args.append(spec.expr.name)
        if spec.func in ("sum", "avg"):
            exact.add(spec.expr.name)
    return EncodedAggRequest(
        keys=tuple(group_keys), args=tuple(args), exact_sum_args=frozenset(exact)
    )


@dataclass
class BitmapProbe:
    """A bitmap filter pushed down onto one scan column."""

    column: str
    bitmap: JoinBitmapFilter


class ColumnStoreScan(BatchOperator):
    """Scan of a columnstore index with pushdown machinery."""

    def __init__(
        self,
        index: ColumnStoreIndex,
        columns: list[str],
        predicate: Expr | None = None,
        bitmap_probes: list[BitmapProbe] | None = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
        include_locators: bool = False,
        encoded_eval: bool = True,
        segment_elimination: bool = True,
    ) -> None:
        self.index = index
        self.columns = list(columns)
        self.predicate = predicate
        self.bitmap_probes = bitmap_probes if bitmap_probes is not None else []
        self.batch_size = batch_size
        self.include_locators = include_locators
        self.encoded_eval = encoded_eval
        self.segment_elimination = segment_elimination
        self.stats = ScanStats()
        self._reported: dict[str, int] = {}
        self._conjuncts = split_conjuncts(predicate)
        self._ranges = extract_column_ranges(self._conjuncts)
        # Snapshot reads install a pinned unit list (see pin()); when
        # set, batches() never touches the live directory or bitmap.
        self._pinned_units: list[ScanUnit] | None = None

    @property
    def output_names(self) -> list[str]:
        return list(self.columns)

    def describe(self) -> str:
        parts = [f"ColumnStoreScan(cols={self.columns}"]
        if self.predicate is not None:
            parts.append(f", predicate={self.predicate}")
        if self.bitmap_probes:
            parts.append(f", bitmaps={[p.column for p in self.bitmap_probes]}")
        return "".join(parts) + ")"

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #
    def pin(self, epoch: int) -> None:
        """Pin this scan to the unit list committed as of MVCC ``epoch``.

        Called by the statement pipeline after compile: afterwards the
        scan iterates the pinned units — immutable row groups with masks
        materialized at pin time, frozen delta captures — so concurrent
        DML, the tuple mover, and REBUILD can proceed without mutating
        this scan's view out from under it.
        """
        self._pinned_units = self.index.pin_scan_units(epoch)

    @property
    def pinned(self) -> bool:
        return self._pinned_units is not None

    def batches(self) -> Iterator[Batch]:
        source = (
            self._pinned_units
            if self._pinned_units is not None
            else self.index.scan_units()
        )
        try:
            for unit in source:
                # Per-unit checkpoint: an eliminated or fully filtered
                # unit yields nothing, so the per-batch governance
                # wrapper alone would let a selective scan run far past
                # its deadline between emissions.
                governance_checkpoint()
                self.stats.units_seen += 1
                if unit.kind == GROUP:
                    yield from self._scan_group(unit)
                else:
                    yield from self._scan_delta(unit)
        finally:
            self._report_to_registry()

    def _report_to_registry(self) -> None:
        """Publish this scan's counter growth into the metrics registry.

        Delta-based so a scan re-iterated (or abandoned early by a LIMIT)
        never double-counts what it already reported.
        """
        current = vars(self.stats)
        for name, value in current.items():
            grown = value - self._reported.get(name, 0)
            if grown:
                metrics.increment(f"storage.scan.{name}", grown)
        self._reported = dict(current)

    # ------------------------------------------------------------------ #
    # Compressed row groups
    # ------------------------------------------------------------------ #
    def _scan_group(self, unit: ScanUnit) -> Iterator[Batch]:
        group = unit.group
        assert group is not None
        if self.segment_elimination and self._eliminated(group):
            self.stats.units_eliminated += 1
            return
        row_count = group.row_count
        self.stats.rows_scanned += row_count
        keep = self._initial_keep(unit)
        keep, residual = self._encoded_conjunct_pass(group, keep)

        # Phase 2: decode the columns the residual predicate / bitmaps /
        # output need, then evaluate vectorized.
        needed = set(self.columns)
        for conjunct in residual:
            needed |= conjunct.referenced_columns()
        for probe in self.bitmap_probes:
            needed.add(probe.column)
        decoded: dict[str, np.ndarray] = {}
        masks: dict[str, np.ndarray | None] = {}
        for name in sorted(needed):
            values, null_mask = self.index.decode_segment(group, name)
            decoded[name] = values
            masks[name] = null_mask
            self.stats.columns_decoded += 1
        unit_batch = Batch(columns=decoded, null_masks=masks)

        for conjunct in residual:
            keep &= predicate_mask(conjunct, unit_batch)

        keep = self._apply_bitmaps(unit_batch, keep)

        locators = None
        if self.include_locators:
            locators = _group_locators(group.group_id, row_count)
        yield from self._emit(unit_batch, keep, locators)

    def _initial_keep(self, unit: ScanUnit) -> np.ndarray:
        group = unit.group
        keep = np.ones(group.row_count, dtype=bool)
        if unit.deleted_mask is not None:
            keep &= ~unit.deleted_mask
            self.stats.rows_rejected_deleted += int(unit.deleted_mask.sum())
        return keep

    def _encoded_conjunct_pass(
        self, group, keep: np.ndarray
    ) -> tuple[np.ndarray, list[Expr]]:
        """Phase 1: fold conjuncts into ``keep`` without decoding.

        Dictionary- and run-space evaluation first; conjuncts that fit
        neither are tried against the segment's [min, max] — one provably
        TRUE for every non-NULL row is dropped (only the NULL mask is
        applied), which skips the decode for e.g. bit-packed segments.
        The remainder is returned as the residual for decoded evaluation.
        """
        residual: list[Expr] = []
        for conjunct in self._conjuncts:
            if not self.encoded_eval:
                residual.append(conjunct)
                continue
            mask = self._try_encoded_eval(group, conjunct)
            if mask is not None:
                keep &= mask
                self.stats.encoded_space_conjuncts += 1
                continue
            pruned = self._range_prunes(group, conjunct)
            if pruned is not None:
                segment = group.segment(pruned)
                null_mask = segment.null_mask()
                if null_mask is not None:
                    keep &= ~null_mask  # predicate over NULL is never TRUE
                self.stats.conjuncts_pruned_by_range += 1
                continue
            residual.append(conjunct)
        return keep, residual

    def _range_prunes(self, group, conjunct: Expr) -> str | None:
        """The column name when ``conjunct`` is TRUE for every non-NULL
        row of this unit by its segment's [min, max] alone, else None.

        Containment must account for strict operators, so this checks the
        normalized op directly instead of reusing :class:`ColumnRange`
        (which records bounds inclusively).
        """
        column = single_column_of(conjunct)
        if column is None or column not in group.segments:
            return None
        segment = group.segment(column)
        low, high = segment.min_value, segment.max_value
        if isinstance(conjunct, Comparison):
            name, literal, op = _normalize_comparison(conjunct)
            if name is None:
                return None
            if low is None:
                # All-NULL segment: the conjunct holds for all zero of its
                # non-NULL rows; the NULL mask rejects everything.
                return column
            try:
                if op == "<":
                    return column if high < literal else None
                if op == "<=":
                    return column if high <= literal else None
                if op == ">":
                    return column if low > literal else None
                if op == ">=":
                    return column if low >= literal else None
                if op == "=":
                    return column if low == high == literal else None
            except TypeError:
                return None
            return None
        if isinstance(conjunct, Between):
            if not (
                isinstance(conjunct.operand, Column)
                and isinstance(conjunct.low, Literal)
                and isinstance(conjunct.high, Literal)
            ):
                return None
            lo, hi = conjunct.low.value, conjunct.high.value
            if lo is None or hi is None:
                return None
            if low is None:
                return column
            try:
                return column if low >= lo and high <= hi else None
            except TypeError:
                return None
        return None

    def _eliminated(self, group) -> bool:
        """Row-group elimination via segment [min, max] metadata."""
        for column, rng in self._ranges.items():
            if column not in group.segments:
                continue
            if not group.segment(column).overlaps_range(rng.low, rng.high):
                return True
        return False

    def _try_encoded_eval(self, group, conjunct: Expr) -> np.ndarray | None:
        """Evaluate a single-column conjunct on compressed data.

        Two encoded-space strategies, mirroring the paper's "operate on
        compressed data" scan work:

        * **dictionary segments** — evaluate once per distinct value
          against the dictionary, then map over the code stream;
        * **RLE value-encoded segments** — evaluate once per *run*, then
          expand the per-run verdicts with the run lengths.

        Returns a full-length boolean mask, or None when the conjunct is
        not eligible (multi-column, or the segment encoding fits neither
        strategy).
        """
        column = single_column_of(conjunct)
        if column is None or column not in group.segments:
            return None
        segment = group.segment(column)
        if segment.scheme is Scheme.DICT and not segment.archived:
            # Archived segments decompress per access; evaluating here
            # would pay that twice (dictionary + code stream) on top of
            # the decode the output columns trigger anyway, so they take
            # the decoded path like archived RLE segments do.
            mask = self._dict_space_eval(segment, column, conjunct)
        elif (
            segment.scheme is Scheme.VALUE
            and isinstance(segment.stream, RleBlock)
            and not segment.archived
        ):
            mask = self._run_space_eval(segment, column, conjunct)
        else:
            return None
        null_mask = segment.null_mask()
        if null_mask is not None:
            mask &= ~null_mask  # predicate over NULL is never TRUE
        return mask

    def _dict_space_eval(self, segment, column: str, conjunct: Expr) -> np.ndarray:
        dictionary = segment.live_dictionary()
        if len(dictionary) == 0:
            # Empty dictionary = every row NULL; the code stream is filler
            # zeros with no entry to index, so never reach entry_mask[codes].
            return np.zeros(segment.row_count, dtype=bool)
        entries = np.empty(len(dictionary), dtype=object)
        entries[:] = dictionary.values
        if not isinstance(dictionary.values[0], str):
            entries = np.array(dictionary.values, dtype=segment.dtype.numpy_dtype)
        dict_batch = Batch(columns={column: entries})
        entry_mask = predicate_mask(conjunct, dict_batch)
        codes = segment.codes().astype(np.int64)
        return entry_mask[codes]

    def _run_space_eval(self, segment, column: str, conjunct: Expr) -> np.ndarray:
        run_offsets, run_lengths = segment.stream.runs()
        assert segment.value_enc is not None
        run_values = segment.value_enc.invert(run_offsets, segment.dtype.numpy_dtype)
        run_batch = Batch(columns={column: run_values})
        run_mask = predicate_mask(conjunct, run_batch)
        return np.repeat(run_mask, run_lengths)

    # ------------------------------------------------------------------ #
    # Encoded-space aggregation
    # ------------------------------------------------------------------ #
    def encoded_agg_batches(
        self, request: EncodedAggRequest
    ) -> Iterator[Batch | EncodedAggUnit]:
        """Unit stream for an eligible scan→aggregate subtree.

        Eligible row groups come out as :class:`EncodedAggUnit` — group
        keys still in code space, scalar arguments folded to per-run /
        per-code weights — while delta stores and ineligible groups fall
        back to the ordinary decoded batches, so the consumer merges both
        kinds and mixed units stay bit-identical with the decoded path.

        Only ``batches`` gets the class-creation instrumentation/governance
        wrappers, so this stream checkpoints per unit itself and mirrors
        the per-operator stats accounting for EXPLAIN ANALYZE.
        """
        source = self._encoded_agg_units(request)
        if not opstats.collecting():
            yield from source
            return
        stats = opstats.operator_stats(self)
        while True:
            start = time.perf_counter()
            try:
                batch = next(source)
            except StopIteration:
                stats.wall_seconds += time.perf_counter() - start
                return
            stats.wall_seconds += time.perf_counter() - start
            stats.batches += 1
            stats.rows += batch.active_count
            yield batch

    def _encoded_agg_units(
        self, request: EncodedAggRequest
    ) -> Iterator[Batch | EncodedAggUnit]:
        source = (
            self._pinned_units
            if self._pinned_units is not None
            else self.index.scan_units()
        )
        try:
            for unit in source:
                governance_checkpoint()
                self.stats.units_seen += 1
                if unit.kind != GROUP:
                    self.stats.agg_fallbacks += 1
                    yield from self._scan_delta(unit)
                    continue
                encoded = self._encoded_agg_unit(unit, request)
                if encoded is None:
                    self.stats.agg_fallbacks += 1
                    yield from self._scan_group(unit)
                elif encoded.row_count:
                    yield encoded
        finally:
            self._report_to_registry()

    def _encoded_agg_unit(
        self, unit: ScanUnit, request: EncodedAggRequest
    ) -> EncodedAggUnit | None:
        """Fold one row group into an :class:`EncodedAggUnit`.

        ``None`` means the unit is ineligible (archived or non-DICT group
        key, bitmap probes, locators) and must take the decoded path. An
        eliminated or fully filtered unit returns an empty unit instead.
        """
        group = unit.group
        assert group is not None
        if self.bitmap_probes or self.include_locators:
            return None
        key_segments = []
        key_cells = 1
        for name in request.keys:
            if name not in group.segments:
                return None
            segment = group.segment(name)
            if segment.scheme is not Scheme.DICT or segment.archived:
                return None
            key_cells *= len(segment.dictionary) + 1  # +1 for the NULL slot
            if key_cells > _MAX_KEY_CELLS:
                return None
            key_segments.append(segment)

        if self.segment_elimination and self._eliminated(group):
            self.stats.units_eliminated += 1
            return _empty_agg_unit()
        self.stats.rows_scanned += group.row_count
        keep = self._initial_keep(unit)
        keep, residual = self._encoded_conjunct_pass(group, keep)

        # Residual conjuncts force decodes exactly as the plain scan would.
        decoded: dict[str, np.ndarray] = {}
        masks: dict[str, np.ndarray | None] = {}

        def decode(name: str) -> None:
            if name in decoded:
                return
            values, null_mask = self.index.decode_segment(group, name)
            decoded[name] = values
            masks[name] = null_mask
            self.stats.columns_decoded += 1

        residual_refs: set[str] = set()
        for conjunct in residual:
            residual_refs |= conjunct.referenced_columns()
        for name in sorted(residual_refs):
            decode(name)
        if residual:
            unit_batch = Batch(columns=dict(decoded), null_masks=dict(masks))
            for conjunct in residual:
                keep &= predicate_mask(conjunct, unit_batch)

        surviving = int(keep.sum())
        self.stats.rows_emitted += surviving
        if surviving == 0:
            return _empty_agg_unit()

        keys = [
            CodeSpaceColumn(
                name=name,
                codes=segment.codes().astype(np.int64),
                dictionary=segment.dictionary,
                null_mask=segment.null_mask(),
                numpy_dtype=segment.dtype.numpy_dtype,
                is_string=segment.dtype.kind is TypeKind.VARCHAR,
            )
            for name, segment in zip(request.keys, key_segments)
        ]

        weighted: dict[str, WeightedValues] = {}
        for name in request.args:
            if request.keys:
                # Grouped aggregation accumulates arguments per row (the
                # group ids vary row to row); only the keys stay encoded.
                decode(name)
                continue
            folded = self._weighted_arg(
                group, name, keep, needs_exact_sum=name in request.exact_sum_args
            )
            if folded is not None:
                weighted[name] = folded
            else:
                decode(name)
        return EncodedAggUnit(
            row_count=surviving,
            keep=keep,
            keys=keys,
            columns={name: (decoded[name], masks[name]) for name in decoded},
            weighted=weighted,
        )

    def _weighted_arg(
        self, group, name: str, keep: np.ndarray, needs_exact_sum: bool
    ) -> WeightedValues | None:
        """Fold a scalar-aggregate argument to (values, weights), or
        ``None`` when the segment's encoding or dtype rules it out."""
        if name not in group.segments:
            return None
        segment = group.segment(name)
        if segment.archived:
            return None
        dtype = segment.dtype.numpy_dtype
        int_physical = np.issubdtype(dtype, np.integer) or dtype == np.bool_
        if needs_exact_sum and not int_physical:
            # Float SUM/AVG depends on accumulation order; weighting would
            # change it, so those stay on the per-row decoded path.
            return None
        null_mask = segment.null_mask()
        keep_present = keep if null_mask is None else keep & ~null_mask
        if segment.scheme is Scheme.DICT:
            dictionary = segment.dictionary
            codes = segment.codes()
            weights = code_keep_weights(codes, keep_present, len(dictionary))
            all_codes = np.arange(len(dictionary), dtype=np.int64)
            if segment.dtype.kind is TypeKind.VARCHAR:
                values = dictionary.decode(all_codes)
            else:
                values = dictionary.decode_typed(all_codes, dtype)
            return WeightedValues(values=values, weights=weights)
        if segment.scheme is Scheme.VALUE and isinstance(segment.stream, RleBlock):
            run_offsets, run_lengths = segment.stream.runs()
            assert segment.value_enc is not None
            values = segment.value_enc.invert(run_offsets, dtype)
            weights = run_keep_weights(run_lengths, keep_present)
            self.stats.agg_runs_processed += int(run_lengths.size)
            return WeightedValues(values=values, weights=weights)
        return None

    # ------------------------------------------------------------------ #
    # Delta stores
    # ------------------------------------------------------------------ #
    def _scan_delta(self, unit: ScanUnit) -> Iterator[Batch]:
        delta = unit.delta
        assert delta is not None
        columns, null_masks, row_ids = delta.to_columns()
        n = len(row_ids)
        self.stats.rows_scanned += n
        self.stats.delta_rows_scanned += n
        if n == 0:
            return
        unit_batch = Batch(columns=columns, null_masks=null_masks)
        keep = np.ones(n, dtype=bool)
        for conjunct in self._conjuncts:
            keep &= predicate_mask(conjunct, unit_batch)
        keep = self._apply_bitmaps(unit_batch, keep)
        locators = None
        if self.include_locators:
            locators = _delta_locators(delta.delta_id, row_ids)
        # Restrict the unit batch to output + probe columns like group scans.
        yield from self._emit(unit_batch, keep, locators)

    # ------------------------------------------------------------------ #
    # Shared tail
    # ------------------------------------------------------------------ #
    def _apply_bitmaps(self, unit_batch: Batch, keep: np.ndarray) -> np.ndarray:
        for probe in self.bitmap_probes:
            values = unit_batch.column(probe.column)
            null_mask = unit_batch.null_mask(probe.column)
            passes = probe.bitmap.might_contain(values)
            if null_mask is not None:
                passes = passes & ~null_mask
            rejected = int((keep & ~passes).sum())
            self.stats.rows_rejected_by_bitmap += rejected
            keep = keep & passes
        return keep

    def _emit(
        self,
        unit_batch: Batch,
        keep: np.ndarray,
        locators: np.ndarray | None,
    ) -> Iterator[Batch]:
        indices = np.flatnonzero(keep)
        self.stats.rows_emitted += int(indices.size)
        if indices.size == 0:
            return
        out_columns = {name: unit_batch.column(name)[indices] for name in self.columns}
        out_masks = {}
        for name in self.columns:
            mask = unit_batch.null_mask(name)
            out_masks[name] = mask[indices] if mask is not None else None
        out_locators = locators[indices] if locators is not None else None
        dense = Batch(columns=out_columns, null_masks=out_masks, locators=out_locators)
        total = dense.row_count
        for start in range(0, total, self.batch_size):
            end = min(start + self.batch_size, total)
            yield Batch(
                columns={n: a[start:end] for n, a in dense.columns.items()},
                null_masks={
                    n: (m[start:end] if m is not None else None)
                    for n, m in dense.null_masks.items()
                },
                locators=dense.locators[start:end] if dense.locators is not None else None,
            )


def _empty_agg_unit() -> EncodedAggUnit:
    return EncodedAggUnit(
        row_count=0,
        keep=np.zeros(0, dtype=bool),
        keys=[],
        columns={},
        weighted={},
    )


def _group_locators(group_id: int, row_count: int) -> np.ndarray:
    out = np.empty(row_count, dtype=object)
    out[:] = [RowLocator(GROUP, group_id, position) for position in range(row_count)]
    return out


def _delta_locators(delta_id: int, row_ids: list[int]) -> np.ndarray:
    out = np.empty(len(row_ids), dtype=object)
    out[:] = [RowLocator(DELTA, delta_id, row_id) for row_id in row_ids]
    return out
