"""Dictionaries for dictionary-encoded column segments.

The paper's columnstore keeps *primary* (column-wide, shared by many
segments) and *secondary* (per-segment overflow) dictionaries. We model
this with:

* :class:`LocalDictionary` — the sorted distinct values of one segment.
  Codes are positions in the sorted order, so range predicates on values
  translate to range predicates on codes (encoded-space evaluation).
* :class:`GlobalDictionary` — a column-wide value ↔ global-id map built
  during load and extended by later loads. It lets predicates and joins be
  evaluated once per distinct value instead of once per row, and lets the
  scan map constants to codes without touching segment payloads.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

import numpy as np

from ..errors import EncodingError


class LocalDictionary:
    """Sorted distinct values of one segment; codes are sort positions."""

    __slots__ = ("values", "_lookup")

    def __init__(self, sorted_values: Sequence[Any]) -> None:
        self.values: list[Any] = list(sorted_values)
        self._lookup: dict[Any, int] = {v: i for i, v in enumerate(self.values)}
        if len(self._lookup) != len(self.values):
            raise EncodingError("dictionary values must be distinct")

    def __len__(self) -> int:
        return len(self.values)

    @property
    def size_bytes(self) -> int:
        """Approximate in-memory footprint, for compression accounting."""
        total = 0
        for value in self.values:
            if isinstance(value, str):
                total += len(value.encode("utf-8")) + 4
            else:
                total += 8
        return total

    def code_of(self, value: Any) -> int | None:
        """Code for ``value``, or ``None`` if absent from this segment."""
        return self._lookup.get(value)

    # ------------------------------------------------------------------ #
    # Encoded-space predicate support: value predicates -> code predicates
    # ------------------------------------------------------------------ #
    def range_codes(self, low: Any, high: Any, low_inc: bool, high_inc: bool) -> tuple[int, int]:
        """Half-open code interval ``[lo, hi)`` matching the value range.

        ``low``/``high`` may be ``None`` for unbounded ends. Relies on the
        dictionary being sorted.
        """
        import bisect

        lo = 0
        hi = len(self.values)
        if low is not None:
            lo = (
                bisect.bisect_left(self.values, low)
                if low_inc
                else bisect.bisect_right(self.values, low)
            )
        if high is not None:
            hi = (
                bisect.bisect_right(self.values, high)
                if high_inc
                else bisect.bisect_left(self.values, high)
            )
        return lo, max(lo, hi)

    @classmethod
    def build(cls, values: np.ndarray) -> tuple["LocalDictionary", np.ndarray]:
        """Build a dictionary from raw values and return (dict, codes).

        ``values`` must not contain NULL placeholders; callers handle nulls
        separately (see :mod:`repro.storage.encodings`).
        """
        arr = np.asarray(values)
        if arr.dtype == object:
            # np.unique on object arrays is fine for homogeneous values.
            distinct = sorted(set(arr.tolist()))
            dictionary = cls(distinct)
            codes = np.fromiter(
                (dictionary._lookup[v] for v in arr.tolist()),
                dtype=np.int64,
                count=arr.size,
            )
            return dictionary, codes
        distinct, codes = np.unique(arr, return_inverse=True)
        return cls(distinct.tolist()), codes.astype(np.int64)


class GlobalDictionary:
    """Column-wide value ↔ global-id map (the paper's primary dictionary).

    Ids are assigned in first-seen order and never change, so segments
    compressed at different times agree on ids. The map is extended, never
    rewritten.
    """

    __slots__ = ("_ids", "_values")

    def __init__(self) -> None:
        self._ids: dict[Any, int] = {}
        self._values: list[Any] = []

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, value: Any) -> bool:
        return value in self._ids

    def intern(self, value: Any) -> int:
        """Id of ``value``, inserting it if new."""
        gid = self._ids.get(value)
        if gid is None:
            gid = len(self._values)
            self._ids[value] = gid
            self._values.append(value)
        return gid

    def intern_all(self, values: Iterable[Any]) -> None:
        for value in values:
            self.intern(value)

    def truncate(self, length: int) -> None:
        """Forget every id >= ``length`` (bulk-load undo).

        Ids are assigned densely in first-seen order, so dropping the
        tail restores the exact pre-load map — a later load re-interning
        the same values reassigns the same ids.
        """
        if length >= len(self._values):
            return
        for value in self._values[length:]:
            del self._ids[value]
        del self._values[length:]

    @property
    def size_bytes(self) -> int:
        total = 0
        for value in self._values:
            if isinstance(value, str):
                total += len(value.encode("utf-8")) + 12
            else:
                total += 16
        return total
