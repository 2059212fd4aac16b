"""PAGE-compression analogue for row-store size accounting.

SQL Server's PAGE compression applies, per page: row compression (variable-
length storage of fixed-width types), column-prefix compression and a
per-page dictionary. Benchmark E1 compares columnstore compression against
this baseline, so we compute the compressed page size the same way the real
feature does — per page, bottom-up — without changing the stored
representation (the ratio is the experiment's metric).
"""

from __future__ import annotations

from typing import Any, Sequence

from ..schema import TableSchema
from ..types import TypeKind
from .page import _ROW_OVERHEAD_BYTES
from .table import RowStoreTable


def _varlen_int_bytes(value: int) -> int:
    """Row compression: integers take only the bytes they need."""
    if value == 0:
        return 1
    magnitude = abs(int(value))
    return max(1, (magnitude.bit_length() + 8) // 8)


def _value_bytes(kind: TypeKind, value: Any) -> int:
    """Row-compressed size of one value."""
    if value is None:
        return 0  # null bitmap covers it
    if kind is TypeKind.VARCHAR:
        return len(str(value).encode("utf-8"))
    if kind is TypeKind.FLOAT:
        return 8
    if kind is TypeKind.BOOL:
        return 1
    return _varlen_int_bytes(int(value))


def _common_prefix_len(values: list[bytes]) -> int:
    if not values:
        return 0
    first = min(values)
    last = max(values)
    limit = min(len(first), len(last))
    i = 0
    while i < limit and first[i] == last[i]:
        i += 1
    return i


def page_compressed_size(schema: TableSchema, rows: Sequence[tuple[Any, ...]]) -> int:
    """Compressed size of one page's rows under PAGE compression."""
    if not rows:
        return 96
    total = 96  # page header
    n = len(rows)
    for position, col in enumerate(schema):
        kind = col.dtype.kind
        values = [row[position] for row in rows]
        # Column-prefix compression (strings only, like the real feature's
        # dominant win) and per-page dictionary for repeated values.
        if kind is TypeKind.VARCHAR:
            encoded = [str(v).encode("utf-8") for v in values if v is not None]
            prefix = _common_prefix_len(encoded)
            distinct: dict[Any, int] = {}
            column_bytes = 0
            for v in values:
                if v is None:
                    continue
                if v in distinct:
                    column_bytes += 2  # dictionary reference
                else:
                    distinct[v] = 1
                    body = len(str(v).encode("utf-8")) - prefix
                    column_bytes += max(0, body) + 2
            column_bytes += prefix  # anchor stored once
            total += column_bytes
        else:
            distinct_vals: dict[Any, int] = {}
            for v in values:
                size = _value_bytes(kind, v)
                if v is not None and v in distinct_vals:
                    total += min(2, size)  # dictionary reference
                else:
                    if v is not None:
                        distinct_vals[v] = 1
                    total += size
    total += n * (_ROW_OVERHEAD_BYTES - 2)  # slimmer slot array under compression
    total += (n * len(schema.columns) + 7) // 8  # null bitmap
    return total


def table_page_compressed_size(table: RowStoreTable) -> int:
    """PAGE-compressed size of a whole table, page by page."""
    total = 0
    for page in table._pages:
        rows = [row for _, row in page.live_rows()]
        total += page_compressed_size(table.schema, rows)
    return total
