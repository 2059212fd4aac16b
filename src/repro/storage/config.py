"""Tunables of the columnstore index.

Defaults follow the paper (row groups of 2^20 rows, bulk loads at or above
~100k rows bypass delta stores). Tests shrink these to exercise the same
code paths on small data.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import StorageError


@dataclass(frozen=True)
class StoreConfig:
    """Configuration of one columnstore index."""

    # Maximum rows per compressed row group (paper: 2^20).
    rowgroup_size: int = 1 << 20
    # Bulk inserts of at least this many rows compress directly into row
    # groups instead of landing in a delta store (paper: ~100k).
    bulk_load_threshold: int = 100_000
    # A delta store closes (becomes eligible for the tuple mover) when it
    # reaches this many rows; the paper uses the row-group size.
    delta_close_rows: int | None = None  # None -> rowgroup_size
    # Apply Vertipaq-style row reordering before compressing a row group.
    reorder_rows: bool = True
    # A row group whose local dictionaries exceed this many bytes is split
    # and re-compressed in halves (the paper caps dictionaries at 16 MB,
    # producing smaller row groups on wide/high-NDV string data).
    dictionary_size_limit: int = 16 * 1024 * 1024
    # Apply archival compression (one zlib DEFLATE stream per segment) on
    # top of segment encoding.
    archival: bool = False
    # Decoded-segment LRU cache capacity in bytes (0 = disabled). Models
    # SQL Server's in-memory caching of decompressed segments; several
    # benchmarks keep it off to measure decompression cost.
    segment_cache_bytes: int = 0

    def __post_init__(self) -> None:
        if self.rowgroup_size < 1:
            raise StorageError("rowgroup_size must be positive")
        if self.bulk_load_threshold < 1:
            raise StorageError("bulk_load_threshold must be positive")
        if self.delta_close_rows is not None and self.delta_close_rows < 1:
            raise StorageError("delta_close_rows must be positive")

    @property
    def effective_delta_close_rows(self) -> int:
        return self.delta_close_rows if self.delta_close_rows is not None else self.rowgroup_size
