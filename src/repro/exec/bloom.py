"""Bitmap (Bloom) filters for star-join pushdown.

When a batch hash join builds its hash table on a (filtered) dimension
table, it also builds a bitmap over the join keys. The bitmap is pushed
down into the fact-table scan, discarding non-matching rows before they
reach the join — the paper's bitmap-pushdown enhancement (our E6).

Two representations, chosen automatically as SQL Server does:

* **exact bitmap** when the build keys are integers in a small range —
  one bit per possible key, zero false positives;
* **Bloom filter** otherwise (two hash probes, ~8 bits/key).

An exact bitmap also answers for a whole *interval* of keys
(:meth:`JoinBitmapFilter.covers`), which lets a scan settle a probe from
a segment's ``[min, max]`` before it decodes a row.
"""

from __future__ import annotations

import numpy as np

from ..errors import ExecutionError
from .batch import as_integers

# What a filter says of every key in an interval (``covers``).
NONE, ALL, SOME = "none", "all", "some"

# Exact bitmaps are used when the key range is at most this many values.
_EXACT_RANGE_LIMIT = 1 << 22
_BLOOM_BITS_PER_KEY = 8
_MULT1 = np.uint64(0x9E3779B97F4A7C15)
_MULT2 = np.uint64(0xC2B2AE3D27D4EB4F)


class JoinBitmapFilter:
    """A membership filter over the build side's join keys.

    An exact bitmap holds one cell per key of ``[base, base + n_bits)``
    and one more, never set, where every key outside lands
    (:func:`dense_slots`). ``integer_keys`` records what the build keys
    were: integers and other values hash differently and an exact bitmap
    has no cell for a fraction, so a filter answers only for keys of its
    own family — for the rest everything is a "maybe", which the join
    above settles by value.
    """

    def __init__(
        self, kind: str, data: np.ndarray, base: int = 0, n_bits: int = 0,
        integer_keys: bool = True,
    ) -> None:
        self.kind = kind  # "exact" | "bloom"
        self._bits = data
        self._base = base
        self._n_bits = n_bits
        self.integer_keys = integer_keys

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def build(cls, keys: np.ndarray) -> "JoinBitmapFilter":
        """Build the appropriate filter for the given build-side keys."""
        if _is_integer(keys.dtype):
            return cls._build_for_ints(keys.astype(np.int64))
        return cls._build_bloom(_hash_keys(keys), integer_keys=False)

    @classmethod
    def exact(cls, present: np.ndarray, base: int) -> "JoinBitmapFilter":
        """The exact bitmap whose cells are given: ``present[i]`` says
        ``base + i`` is a build key; its last cell is the never-set one."""
        return cls("exact", present, base=base, n_bits=present.size - 1)

    @classmethod
    def _build_for_ints(cls, keys: np.ndarray) -> "JoinBitmapFilter":
        if keys.size == 0:
            return cls.exact(np.zeros(1, dtype=bool), base=0)
        low = int(keys.min())
        high = int(keys.max())
        span = high - low + 1
        if span <= _EXACT_RANGE_LIMIT:
            bits = np.zeros(span + 1, dtype=bool)
            bits[keys - low] = True
            return cls.exact(bits, base=low)
        return cls._build_bloom(keys.astype(np.uint64), integer_keys=True)

    @classmethod
    def _build_bloom(cls, hashed: np.ndarray, integer_keys: bool) -> "JoinBitmapFilter":
        n_bits = max(64, int(hashed.size) * _BLOOM_BITS_PER_KEY)
        n_bits = 1 << (n_bits - 1).bit_length()  # power of two for cheap modulo
        bits = np.zeros(n_bits, dtype=bool)
        mask = np.uint64(n_bits - 1)
        h1 = (hashed * _MULT1) & mask
        h2 = ((hashed * _MULT2) >> np.uint64(17)) & mask
        bits[h1] = True
        bits[h2] = True
        return cls("bloom", bits, n_bits=n_bits, integer_keys=integer_keys)

    # ------------------------------------------------------------------ #
    # Probing
    # ------------------------------------------------------------------ #
    def covers(self, low: object, high: object) -> str:
        """What this filter says of *every* key in ``[low, high]`` (a
        segment's min and max): ``NONE`` of them is a build key, ``ALL``
        are, or ``SOME`` — it cannot tell without the keys. Only an exact
        bitmap asked about integers tells: one ``any``/``all`` over at
        most the interval's cells."""
        if self.kind != "exact" or type(low) is not int or type(high) is not int:
            return SOME
        first = max(low, self._base) - self._base
        last = min(high, self._base + self._n_bits - 1) - self._base
        if first > last:
            return NONE
        cells = self._bits[first : last + 1]
        if not cells.any():
            return NONE
        return ALL if last - first == high - low and cells.all() else SOME

    def might_contain(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized membership test; False is definite, True is 'maybe'."""
        if _is_integer(keys.dtype) != self.integer_keys:
            return np.ones(keys.shape[0], dtype=bool)
        if self.kind == "exact":
            return self._bits.take(dense_slots(keys, self._base, self._n_bits))
        hashed = _hash_keys(keys)
        mask = np.uint64(self._n_bits - 1)
        h1 = (hashed * _MULT1) & mask
        h2 = ((hashed * _MULT2) >> np.uint64(17)) & mask
        return self._bits[h1] & self._bits[h2]


def dense_slots(keys: np.ndarray, base: int, cells: int) -> np.ndarray:
    """Integer ``keys`` as int64 positions into a direct-address table of
    ``cells + 1`` cells: ``key - base`` inside ``[base, base + cells)``,
    the last cell (the table's "no such key") for every key outside.

    The subtraction widens to int64 and wraps modulo 2**64, which is a
    bijection: read as unsigned, exactly the keys inside the domain land
    below ``cells`` — so one ``minimum`` is the whole range check, for
    keys at either end of int64 too.
    """
    slots = np.subtract(keys, np.int64(base), dtype=np.int64)
    unsigned = slots.view(np.uint64)
    np.minimum(unsigned, np.uint64(cells), out=unsigned)
    return slots


def _is_integer(dtype: np.dtype) -> bool:
    return dtype != object and np.issubdtype(dtype, np.integer)


def _hash_keys(keys: np.ndarray) -> np.ndarray:
    """Map keys of any supported dtype to uint64 hashes, equal values alike:
    a bool or a whole float as its integer (``as_integers``)."""
    if keys.dtype == object:
        return np.fromiter(
            (hash(v) & 0xFFFFFFFFFFFFFFFF for v in keys.tolist()),
            dtype=np.uint64,
            count=keys.shape[0],
        )
    if np.issubdtype(keys.dtype, np.integer) or keys.dtype == np.bool_:
        return keys.astype(np.uint64)
    if np.issubdtype(keys.dtype, np.floating):
        integers, whole = as_integers(keys)
        return np.where(whole, integers.view(np.uint64), keys.astype(np.float64).view(np.uint64))
    raise ExecutionError(f"cannot hash keys of dtype {keys.dtype}")
