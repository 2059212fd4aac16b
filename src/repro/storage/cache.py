"""In-memory cache of decoded column segments.

SQL Server caches decompressed column segments in memory (the large-
object cache), so hot segments pay decompression once. This LRU holds
decoded ``(values, null_mask)`` pairs keyed by the segment object's
identity — row groups are immutable, and every mutation path (tuple
mover, REBUILD, archive toggle) swaps in *new* segment objects, so stale
entries can never be served; they simply age out.

Off by default (``StoreConfig.segment_cache_bytes = 0``): several
benchmarks measure decompression cost on purpose.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ..observability import registry as metrics
from .segment import ColumnSegment


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


def decoded_bytes(values: np.ndarray, null_mask: np.ndarray | None = None) -> int:
    """Approximate retained size of a decoded column (what the cache and
    the operators' memory grants account): a string costs its length plus
    50 bytes of object, on top of the 8-byte slot every object row has.
    One C-level pass per step, no per-string interpreter work."""
    if values.dtype == object:
        strings = list(filter(str.__instancecheck__, values.tolist()))
        size = sum(map(len, strings)) + 50 * len(strings) + values.shape[0] * 8
    else:
        size = values.nbytes
    if null_mask is not None:
        size += null_mask.nbytes
    return size


class SegmentCache:
    """LRU over decoded segments, bounded by (approximate) decoded bytes."""

    def __init__(self, capacity_bytes: int) -> None:
        self.capacity_bytes = capacity_bytes
        self.stats = CacheStats()
        self._entries: OrderedDict[int, tuple[np.ndarray, np.ndarray | None, int]] = (
            OrderedDict()
        )
        self._used_bytes = 0
        # Keep decoded segments' owners alive so id() keys stay unique.
        self._pins: dict[int, ColumnSegment] = {}
        # Concurrent snapshot readers share one cache; the LRU OrderedDict
        # is not safe to mutate from two scan threads at once. Decoding
        # a miss happens outside the lock (it is the expensive part and
        # touches only the immutable segment).
        self._lock = threading.Lock()

    @property
    def used_bytes(self) -> int:
        return self._used_bytes

    def __len__(self) -> int:
        return len(self._entries)

    def decode(
        self, segment: ColumnSegment, positions: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Decoded (values, null_mask) for a segment, cached.

        With ``positions``, those rows only: indexed out of a cached
        full decode on a hit, taken from the segment on a miss — which
        caches nothing, the cache holds whole segments.
        """
        key = id(segment)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.stats.hits += 1
            else:
                self.stats.misses += 1
        if entry is not None:
            metrics.increment("storage.cache.hits")
            values, null_mask = entry[0], entry[1]
            if positions is None:
                return values, null_mask
            return values[positions], None if null_mask is None else null_mask[positions]
        metrics.increment("storage.cache.misses")
        if positions is not None:
            return segment.take(positions)
        values, null_mask = segment.decode()
        size = decoded_bytes(values, null_mask)
        if size <= self.capacity_bytes:
            with self._lock:
                if key not in self._entries:
                    # Two threads may decode the same miss concurrently;
                    # only the first insert is accounted, the loser just
                    # returns its (identical) decode.
                    self._entries[key] = (values, null_mask, size)
                    self._pins[key] = segment
                    self._used_bytes += size
                    self._evict_locked()
        return values, null_mask

    def _evict_locked(self) -> None:
        while self._used_bytes > self.capacity_bytes and self._entries:
            key, (_values, _mask, size) = self._entries.popitem(last=False)
            self._pins.pop(key, None)
            self._used_bytes -= size
            self.stats.evictions += 1
            metrics.increment("storage.cache.evictions")

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._pins.clear()
            self._used_bytes = 0
