"""The batch-mode columnstore scan.

Implements the paper's scan enhancements:

* **Segment elimination** — row groups whose per-segment [min, max]
  metadata cannot satisfy the pushed predicate are skipped without
  touching their payloads.
* **Predicate pushdown onto encoded data** — a single-column conjunct
  over a segment that hands out an encoded vector is evaluated once per
  *distinct value* (dictionary entry or run) and expanded over the rows,
  never materializing the decoded column for filtering.
* **Encoded output** — a consumer that declared how it takes each column
  (``takes_encoded``) receives every row group as one batch whose
  columns are still vectors where the segment and the consumer allow it;
  each column that must be decoded goes through :meth:`_decode`, the one
  morph point, with its reason.
* **Bitmap-filter pushdown** — join bitmap filters built by downstream
  hash joins discard non-matching rows at the scan. Each filter is first
  asked about the key segment's [min, max]: no key of the interval in
  the filter eliminates the unit, every key in it drops the probe for
  the unit, and only the rest decode the key column to probe it.
* **Delta-store scans** — delta rows are materialized column-wise and
  filtered with the same predicate, so queries see trickle-inserted rows.
* **Delete-bitmap application** — deleted rows never leave the scan.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from ...governance.context import checkpoint as governance_checkpoint
from ...observability import registry as metrics
from ...observability.registry import MorphReason
from ...storage.columnstore import DELTA, GROUP, ColumnStoreIndex, RowLocator, ScanUnit
from ...storage.segment import EncodedVector, RunVector
from ..batch import (
    AS_CODES,
    AS_EXACT_WEIGHTS,
    AS_ROWS,
    DEFAULT_BATCH_SIZE,
    MAX_KEY_CELLS,
    Batch,
    slice_into_batches,
)
from ..bloom import ALL, NONE, JoinBitmapFilter
from ..expressions import Between, Column, Comparison, Expr, Literal, predicate_mask
from ..predicates import (
    _normalize_comparison,
    extract_column_ranges,
    single_column_of,
    split_conjuncts,
)
from .base import BatchOperator


@dataclass
class ScanStats:
    """Observability counters (asserted on by tests and benchmarks)."""

    units_seen: int = 0
    units_eliminated: int = 0
    # Of those, units whose key interval holds no key of a join bitmap.
    units_eliminated_by_bitmap: int = 0
    rows_scanned: int = 0
    rows_emitted: int = 0
    # Rows a bitmap *probe* rejected, and the probes a unit's key
    # interval made unnecessary (every key of it is in the bitmap).
    rows_rejected_by_bitmap: int = 0
    bitmap_probes_settled: int = 0
    rows_rejected_deleted: int = 0
    encoded_space_conjuncts: int = 0
    conjuncts_pruned_by_range: int = 0
    delta_rows_scanned: int = 0
    columns_decoded: int = 0
    # Runs of the run vectors handed to an aggregate: scalar arguments
    # weighted per run, and group keys (folded per run where exact).
    agg_runs_processed: int = 0
    # Units whose group keys reached an encoded-input aggregate as plain
    # rows (delta units included), so it coded them itself.
    agg_fallbacks: int = 0
    # Values that became plain with columns_decoded: a unit's rows for a
    # column decoded in full, its survivors for one decoded at positions.
    values_decoded: int = 0
    # MorphReason value -> columns decoded (or units, for delta_unit).
    morph: Counter[str] = field(default_factory=Counter)


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
        # What the consumer declared (declare_encoded): each column it
        # reads -> how it can take it (AS_*), every output column named.
        # None: every column leaves as plain rows.
        self.takes_encoded: dict[str, str] | None = None
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

    def declare_encoded(self, takes: dict[str, str] | None) -> None:
        self.takes_encoded = takes

    def describe(self) -> str:
        parts = [f"ColumnStoreScan(cols={self.columns}"]
        if self.predicate is not None:
            parts.append(f", predicate={self.predicate}")
        if self.bitmap_probes:
            parts.append(f", bitmaps={[p.column for p in self.bitmap_probes]}")
        if self.takes_encoded is not None:
            encoded = [n for n, how in self.takes_encoded.items() if how != AS_ROWS]
            parts.append(f", encoded={encoded}")
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
        current = {n: v for n, v in vars(self.stats).items() if n != "morph"}
        current.update({f"morph.{r}": n for r, n in self.stats.morph.items()})
        for name, value in current.items():
            grown = value - self._reported.get(name, 0)
            if grown:
                metrics.increment(f"storage.scan.{name}", grown)
        self._reported = current

    # ------------------------------------------------------------------ #
    # Compressed row groups
    # ------------------------------------------------------------------ #
    def _scan_group(self, unit: ScanUnit) -> Iterator[Batch]:
        group = unit.group
        assert group is not None
        # A unit eliminated here sends its consumer nothing, so it is
        # settled before anything below can count it as a fallback.
        if self.segment_elimination and self._eliminated(group):
            self.stats.units_eliminated += 1
            return
        answers = [self._ask_bitmap(probe, group) for probe in self.bitmap_probes]
        if NONE in answers:
            self.stats.units_eliminated += 1
            self.stats.units_eliminated_by_bitmap += 1
            return
        takes, plain_reason = self.takes_encoded, MorphReason.OUTPUT
        if takes is not None and (self.bitmap_probes or self.include_locators):
            takes, plain_reason = None, MorphReason.BITMAP_OR_LOCATORS
            self.stats.agg_fallbacks += 1
        # Vectors cost nothing until used, so how every column leaves is
        # settled (and a fallback counted) from metadata alone.
        wanted = {n for n, how in (takes or {}).items() if how != AS_ROWS}
        if self.encoded_eval:
            wanted.update(filter(None, map(single_column_of, self._conjuncts)))
        vectors = {
            name: group.segment(name).vector()
            for name in wanted
            if name in group.segments
        }
        if takes is None:
            plan = dict.fromkeys(self.columns, plain_reason)
        else:
            plan = self._encoded_plan(group, takes, vectors)

        self.stats.rows_scanned += group.row_count
        keep = np.ones(group.row_count, dtype=bool)
        if unit.deleted_mask is not None:
            keep &= ~unit.deleted_mask
            self.stats.rows_rejected_deleted += int(unit.deleted_mask.sum())
        keep, residual = self._encoded_conjunct_pass(group, vectors, keep)
        probes = []
        for probe, answer in zip(self.bitmap_probes, answers):
            if answer != ALL:
                probes.append(probe)
                continue
            # The probe can reject nothing but the NULL keys.
            self.stats.bitmap_probes_settled += 1
            null_mask = group.segment(probe.column).null_mask()
            if null_mask is not None:
                keep &= ~null_mask

        decoded: dict[str, np.ndarray] = {}
        masks: dict[str, np.ndarray | None] = {}

        def decode(name: str, reason: MorphReason) -> None:
            if name not in decoded:
                decoded[name], masks[name] = self._decode(group, name, reason)

        # What the residual predicate and the bitmaps read is decoded
        # first, and in full: a unit they empty never decodes its output
        # columns, and the others decode only the rows that are left.
        for name in sorted(set().union(*(c.referenced_columns() for c in residual))):
            decode(name, MorphReason.RESIDUAL_PREDICATE)
        for probe in probes:
            decode(probe.column, MorphReason.BITMAP_OR_LOCATORS)
        filter_batch = Batch(columns=dict(decoded), null_masks=dict(masks))
        for conjunct in residual:
            keep &= predicate_mask(conjunct, filter_batch)
        keep = self._apply_bitmaps(filter_batch, keep, probes)
        positions = np.flatnonzero(keep)
        if positions.size == 0:
            return
        everything = positions.size == group.row_count

        encoded: dict[str, EncodedVector] = {}
        for name, leaves_as in plan.items():
            if not isinstance(leaves_as, MorphReason):
                encoded[name] = leaves_as
                if isinstance(leaves_as, RunVector):
                    self.stats.agg_runs_processed += leaves_as.n_distinct
        if encoded or not (plan or self.include_locators):
            # Plain columns stay full length next to the vectors and the
            # survivors are a selection (None = all rows, which needs a
            # column to measure by: COUNT(*) alone reads none).
            for name, leaves_as in plan.items():
                if name not in encoded:
                    decode(name, leaves_as)
            survivors = Batch(
                columns={n: decoded[n] for n in plan if n not in encoded},
                null_masks={n: masks[n] for n in plan if n not in encoded},
                encoded=encoded,
                selection=None if everything and plan else positions,
            )
        else:
            # Late materialization: every column leaves as plain rows, so
            # each is decoded at the survivors only (all of them = the
            # full decode); what the filters decoded in full is indexed.
            at = None if everything else positions
            columns: dict[str, np.ndarray] = {}
            null_masks: dict[str, np.ndarray | None] = {}
            for name, reason in plan.items():
                if name not in decoded:
                    columns[name], null_masks[name] = self._decode(group, name, reason, at)
                    continue
                values, mask = decoded[name], masks[name]
                if at is not None:
                    values, mask = values[at], None if mask is None else mask[at]
                columns[name], null_masks[name] = values, mask
            locators = None
            if self.include_locators:
                locators = _locators(GROUP, group.group_id, positions.tolist())
            survivors = Batch(columns=columns, null_masks=null_masks, locators=locators)
        if takes is None:
            yield from self._emit(survivors, int(positions.size))
        else:
            # A declaring consumer blocks on all of its input anyway: it
            # gets the unit as one batch, vectors or not.
            self.stats.rows_emitted += int(positions.size)
            yield survivors

    def _encoded_plan(
        self, group, takes: dict[str, str], vectors: dict[str, EncodedVector | None]
    ) -> dict[str, EncodedVector | MorphReason]:
        """How each declared column leaves this unit: as its vector, or
        decoded for the reason given.

        Group keys stay in code space together or not at all (what
        ``agg_fallbacks`` has always counted, though the aggregate now
        codes a plain key beside handed-in ones); every other column is
        decided on its own.
        """

        def why_no_vector(name: str, otherwise: MorphReason) -> MorphReason:
            return MorphReason.ARCHIVED if group.segment(name).archived else otherwise

        key_reason = None
        key_cells = 1
        for name, how in takes.items():
            if how != AS_CODES:
                continue
            vector = vectors.get(name)
            if vector is None:
                key_reason = why_no_vector(name, MorphReason.KEY_NOT_DICTIONARY)
                break
            # +1 for the NULL slot; a run vector's runs stand in for its values.
            key_cells *= vector.n_distinct + 1
            if key_cells > MAX_KEY_CELLS:  # the keys are decoded instead
                key_reason = MorphReason.KEY_SPACE_OVERFLOW
                break
        if key_reason is not None:
            self.stats.agg_fallbacks += 1

        plan: dict[str, EncodedVector | MorphReason] = {}
        for name, how in takes.items():
            vector = vectors.get(name)
            if how == AS_ROWS:
                plan[name] = MorphReason.OUTPUT
            elif how == AS_CODES:
                plan[name] = key_reason or vector
            elif vector is None:
                plan[name] = why_no_vector(name, MorphReason.NO_VECTOR)
            elif how == AS_EXACT_WEIGHTS and not (
                np.issubdtype(vector.numpy_dtype, np.integer)
                or vector.numpy_dtype == np.bool_
            ):
                # Float SUM/AVG depends on accumulation order; weighting
                # would change it, so it accumulates per row.
                plan[name] = MorphReason.INEXACT_FLOAT_SUM
            else:
                plan[name] = vector
        return plan

    def _decode(
        self, group, name: str, reason: MorphReason, positions: np.ndarray | None = None
    ):
        """The morph point: the one place a column of a compressed row
        group becomes plain (values, null_mask), for a stated reason —
        all of its rows, or only those at ``positions``."""
        self.stats.columns_decoded += 1
        self.stats.values_decoded += (
            group.row_count if positions is None else int(positions.size)
        )
        self.stats.morph[reason.value] += 1
        return self.index.decode_segment(group, name, positions)

    def _encoded_conjunct_pass(
        self, group, vectors: dict[str, EncodedVector | None], keep: np.ndarray
    ) -> tuple[np.ndarray, list[Expr]]:
        """Phase 1: fold conjuncts into ``keep`` without decoding.

        A single-column conjunct over a column with a vector is evaluated
        once per distinct value (dictionary entry or run) and the verdicts
        expanded over the rows. Conjuncts that fit no vector are tried
        against the segment's [min, max] — one provably TRUE for every
        non-NULL row is dropped (only the NULL mask is applied), which
        skips the decode for e.g. bit-packed segments. The remainder is
        returned as the residual for decoded evaluation.
        """
        residual: list[Expr] = []
        for conjunct in self._conjuncts:
            if not self.encoded_eval:
                residual.append(conjunct)
                continue
            column = single_column_of(conjunct)
            vector = vectors.get(column)
            if vector is not None:
                verdicts = predicate_mask(
                    conjunct, Batch(columns={column: vector.distinct_values()})
                )
                keep &= vector.expand(verdicts)
                null_mask = vector.null_mask
                self.stats.encoded_space_conjuncts += 1
            elif (pruned := self._range_prunes(group, conjunct)) is not None:
                null_mask = group.segment(pruned).null_mask()
                self.stats.conjuncts_pruned_by_range += 1
            else:
                residual.append(conjunct)
                continue
            if null_mask is not None:
                keep &= ~null_mask  # predicate over NULL is never TRUE
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

    # ------------------------------------------------------------------ #
    # Delta stores
    # ------------------------------------------------------------------ #
    def _scan_delta(self, unit: ScanUnit) -> Iterator[Batch]:
        delta = unit.delta
        assert delta is not None
        if self.takes_encoded is not None:
            # Delta rows were never compressed: the declaring consumer
            # merges these plain batches into the same accumulators.
            self.stats.agg_fallbacks += 1
            self.stats.morph[MorphReason.DELTA_UNIT.value] += 1
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
        # No segment metadata to ask: every bitmap is probed.
        indices = np.flatnonzero(self._apply_bitmaps(unit_batch, keep, self.bitmap_probes))
        locators = None
        if self.include_locators:
            locators = _locators(
                DELTA, delta.delta_id, [row_ids[i] for i in indices.tolist()]
            )
        survivors = Batch(
            columns={name: unit_batch.column(name) for name in self.columns},
            null_masks={name: unit_batch.null_mask(name) for name in self.columns},
            selection=indices,
        ).compact()
        survivors.locators = locators
        yield from self._emit(survivors, int(indices.size))

    # ------------------------------------------------------------------ #
    # Shared tail
    # ------------------------------------------------------------------ #
    def _ask_bitmap(self, probe: BitmapProbe, group) -> str:
        """What ``probe``'s filter says of this unit from the key
        segment's [min, max] alone, before anything is decoded. A NULL
        key passes no probe, so an all-NULL segment is ``NONE``."""
        segment = group.segment(probe.column)
        if segment.min_value is None:
            return NONE
        return probe.bitmap.covers(segment.min_value, segment.max_value)

    def _apply_bitmaps(
        self, unit_batch: Batch, keep: np.ndarray, probes: list[BitmapProbe]
    ) -> np.ndarray:
        for probe in probes:
            values = unit_batch.column(probe.column)
            null_mask = unit_batch.null_mask(probe.column)
            passes = probe.bitmap.might_contain(values)
            if null_mask is not None:
                passes = passes & ~null_mask
            rejected = int((keep & ~passes).sum())
            self.stats.rows_rejected_by_bitmap += rejected
            keep = keep & passes
        return keep

    def _emit(self, survivors: Batch, count: int) -> Iterator[Batch]:
        """Count a unit's surviving rows and hand them out dense, in
        engine-sized batches."""
        self.stats.rows_emitted += count
        yield from slice_into_batches(survivors, self.batch_size)


def _locators(kind: str, container_id: int, positions: list[int]) -> np.ndarray:
    """Addresses of the surviving rows only (one Python object each)."""
    out = np.empty(len(positions), dtype=object)
    out[:] = [RowLocator(kind, container_id, position) for position in positions]
    return out
