"""Bitmap (Bloom) filters for star-join pushdown.

When a batch hash join builds its hash table on a (filtered) dimension
table, it also builds a bitmap over the join keys. The bitmap is pushed
down into the fact-table scan, discarding non-matching rows before they
reach the join — the paper's bitmap-pushdown enhancement (our E6).

Two representations, chosen automatically as SQL Server does:

* **exact bitmap** when the build keys are integers in a small range —
  one bit per possible key, zero false positives;
* **Bloom filter** otherwise (two hash probes, ~8 bits/key).
"""

from __future__ import annotations

import numpy as np

from ..errors import ExecutionError

# Exact bitmaps are used when the key range is at most this many values.
_EXACT_RANGE_LIMIT = 1 << 22
_BLOOM_BITS_PER_KEY = 8
_MULT1 = np.uint64(0x9E3779B97F4A7C15)
_MULT2 = np.uint64(0xC2B2AE3D27D4EB4F)


class JoinBitmapFilter:
    """A membership filter over the build side's join keys."""

    def __init__(self, kind: str, data: np.ndarray, base: int = 0, n_bits: int = 0) -> None:
        self.kind = kind  # "exact" | "bloom"
        self._bits = data
        self._base = base
        self._n_bits = n_bits

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def build(cls, keys: np.ndarray) -> "JoinBitmapFilter":
        """Build the appropriate filter for the given build-side keys."""
        if keys.dtype != object and np.issubdtype(keys.dtype, np.integer):
            return cls._build_for_ints(keys.astype(np.int64))
        return cls._build_bloom(_hash_keys(keys))

    @classmethod
    def _build_for_ints(cls, keys: np.ndarray) -> "JoinBitmapFilter":
        if keys.size == 0:
            return cls("exact", np.zeros(1, dtype=bool), base=0, n_bits=1)
        low = int(keys.min())
        high = int(keys.max())
        span = high - low + 1
        if span <= _EXACT_RANGE_LIMIT:
            bits = np.zeros(span, dtype=bool)
            bits[keys - low] = True
            return cls("exact", bits, base=low, n_bits=span)
        return cls._build_bloom(keys.astype(np.uint64))

    @classmethod
    def _build_bloom(cls, hashed: np.ndarray) -> "JoinBitmapFilter":
        n_bits = max(64, int(hashed.size) * _BLOOM_BITS_PER_KEY)
        n_bits = 1 << (n_bits - 1).bit_length()  # power of two for cheap modulo
        bits = np.zeros(n_bits, dtype=bool)
        mask = np.uint64(n_bits - 1)
        h1 = (hashed * _MULT1) & mask
        h2 = ((hashed * _MULT2) >> np.uint64(17)) & mask
        bits[h1] = True
        bits[h2] = True
        return cls("bloom", bits, n_bits=n_bits)

    # ------------------------------------------------------------------ #
    # Probing
    # ------------------------------------------------------------------ #
    def might_contain(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized membership test; False is definite, True is 'maybe'."""
        if self.kind == "exact":
            if keys.dtype == object or not np.issubdtype(keys.dtype, np.integer):
                raise ExecutionError("exact bitmap requires integer probe keys")
            offsets = keys.astype(np.int64) - self._base
            in_range = (offsets >= 0) & (offsets < self._n_bits)
            result = np.zeros(keys.shape[0], dtype=bool)
            result[in_range] = self._bits[offsets[in_range]]
            return result
        hashed = _hash_keys(keys)
        mask = np.uint64(self._n_bits - 1)
        h1 = (hashed * _MULT1) & mask
        h2 = ((hashed * _MULT2) >> np.uint64(17)) & mask
        return self._bits[h1] & self._bits[h2]


def _hash_keys(keys: np.ndarray) -> np.ndarray:
    """Map keys of any supported dtype to uint64 hashes."""
    if keys.dtype == object:
        return np.fromiter(
            (hash(v) & 0xFFFFFFFFFFFFFFFF for v in keys.tolist()),
            dtype=np.uint64,
            count=keys.shape[0],
        )
    if np.issubdtype(keys.dtype, np.integer) or keys.dtype == np.bool_:
        return keys.astype(np.uint64)
    if np.issubdtype(keys.dtype, np.floating):
        return keys.astype(np.float64).view(np.uint64)
    raise ExecutionError(f"cannot hash keys of dtype {keys.dtype}")
