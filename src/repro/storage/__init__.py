"""Columnstore storage substrate.

This package implements the storage side of the paper: column segments with
dictionary / value-based encoding, RLE and bit packing, row groups, segment
metadata for segment elimination, archival compression (zlib DEFLATE),
delta stores, the delete bitmap and the tuple mover.
"""

from .columnstore import ColumnStoreIndex
from .directory import SegmentDirectory
from .loader import BulkLoader
from .rowgroup import RowGroup
from .segment import ColumnSegment

__all__ = [
    "BulkLoader",
    "ColumnSegment",
    "ColumnStoreIndex",
    "RowGroup",
    "SegmentDirectory",
]
