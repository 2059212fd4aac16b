"""Bulk loading: rows → compressed row groups.

Large loads bypass delta stores entirely (the paper's bulk-insert path):
rows are chunked into row-group-sized units, optionally reordered for run
length (Vertipaq), and each column is compressed into a segment. The loader
is also what the tuple mover uses to compress a closed delta store.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from ..errors import StorageError
from ..schema import TableSchema
from .config import StoreConfig
from .dictionary import Factors, factorize
from .directory import SegmentDirectory
from .reorder import choose_row_order
from .rowgroup import RowGroup
from .segment import encode_segment


def rows_to_columns(
    schema: TableSchema, rows: Sequence[tuple[Any, ...]]
) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray | None]]:
    """Pivot physical row tuples into per-column arrays + null masks."""
    columns: dict[str, np.ndarray] = {}
    null_masks: dict[str, np.ndarray | None] = {}
    for position, col in enumerate(schema):
        raw = [row[position] for row in rows]
        mask = np.fromiter((v is None for v in raw), dtype=bool, count=len(raw))
        if not mask.any():
            mask = None
        present = raw if mask is None else [v for v in raw if v is not None]
        columns[col.name] = col.dtype.spread(col.dtype.physical_array(present), mask)
        null_masks[col.name] = mask
    return columns, null_masks


class BulkLoader:
    """Compresses column data into row groups registered in a directory."""

    def __init__(self, schema: TableSchema, directory: SegmentDirectory, config: StoreConfig) -> None:
        self.schema = schema
        self.directory = directory
        self.config = config

    # ------------------------------------------------------------------ #
    # Entry points
    # ------------------------------------------------------------------ #
    def load_rows(self, rows: Sequence[tuple[Any, ...]]) -> list[RowGroup]:
        """Compress already-coerced physical rows into row groups."""
        columns, null_masks = rows_to_columns(self.schema, rows)
        return self.load_columns(columns, null_masks)

    def load_columns(
        self,
        columns: Mapping[str, np.ndarray],
        null_masks: Mapping[str, np.ndarray | None] | None = None,
    ) -> list[RowGroup]:
        """Compress per-column arrays into row groups (chunked, reordered)."""
        null_masks = dict(null_masks or {})
        names = self.schema.names
        missing = [name for name in names if name not in columns]
        if missing:
            raise StorageError(f"bulk load missing columns {missing}")
        sizes = {np.asarray(columns[name]).size for name in names}
        if len(sizes) != 1:
            raise StorageError(f"bulk load column lengths differ: {sorted(sizes)}")
        total = sizes.pop()
        groups: list[RowGroup] = []
        for start in range(0, total, self.config.rowgroup_size):
            end = min(start + self.config.rowgroup_size, total)
            chunk_cols = {name: np.asarray(columns[name])[start:end] for name in names}
            chunk_masks = {
                name: (mask[start:end] if (mask := null_masks.get(name)) is not None else None)
                for name in names
            }
            groups.extend(self._compress_bounded(chunk_cols, chunk_masks))
        return groups

    def _compress_bounded(
        self,
        columns: dict[str, np.ndarray],
        null_masks: dict[str, np.ndarray | None],
    ) -> list[RowGroup]:
        """Compress a chunk, splitting it when dictionaries grow too large.

        The paper caps per-row-group dictionary size (16 MB): high-NDV
        string data therefore produces *smaller* row groups. We compress,
        check the resulting dictionary footprint, and if it exceeds the
        limit re-compress the chunk in halves.
        """
        group = self._compress_chunk(columns, null_masks)
        rows = group.row_count
        if rows <= 1 or self._dictionary_bytes(group) <= self.config.dictionary_size_limit:
            return [group]
        # Too big: withdraw the oversized group and split the chunk.
        self.directory.remove_row_group(group.group_id)
        mid = rows // 2
        halves: list[RowGroup] = []
        for lo, hi in ((0, mid), (mid, rows)):
            half_cols = {name: arr[lo:hi] for name, arr in columns.items()}
            half_masks = {
                name: (mask[lo:hi] if mask is not None else None)
                for name, mask in null_masks.items()
            }
            halves.extend(self._compress_bounded(half_cols, half_masks))
        return halves

    @staticmethod
    def _dictionary_bytes(group: RowGroup) -> int:
        return sum(seg.values.size_bytes for seg in group.segments.values())

    # ------------------------------------------------------------------ #
    # One row group
    # ------------------------------------------------------------------ #
    def _compress_chunk(
        self,
        columns: dict[str, np.ndarray],
        null_masks: dict[str, np.ndarray | None],
    ) -> RowGroup:
        """One row group: each column factorized once, and the row order,
        the dictionaries, their codes and the statistics read from that.
        A column is permuted just before it is encoded, so one column's
        reordered copy is held at a time."""
        factors = {name: factorize(arr) for name, arr in columns.items()}
        perm = choose_row_order(factors, null_masks) if self.config.reorder_rows else None
        segments = {}
        for col in self.schema:
            values, mask = columns[col.name], null_masks.get(col.name)
            factor = factors.pop(col.name)
            if perm is not None:
                values, factor = values[perm], Factors(factor.distinct, factor.ranks[perm])
                mask = None if mask is None else mask[perm]
            segment = encode_segment(
                col.dtype,
                values,
                mask,
                global_dict=self.directory.global_dictionary(col.name),
                factors=factor,
            )
            if self.config.archival:
                segment = segment.to_archived()
            segments[col.name] = segment
        group = RowGroup(
            group_id=self.directory.allocate_group_id(),
            schema=self.schema,
            segments=segments,
        )
        self.directory.add_row_group(group)
        return group
