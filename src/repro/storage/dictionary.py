"""Dictionaries for dictionary-encoded column segments.

The paper's columnstore keeps *primary* (column-wide, shared by many
segments) and *secondary* (per-segment overflow) dictionaries. We model
this with:

* :class:`LocalDictionary` — the sorted distinct values of one segment,
  its Gather value stage. Codes are positions in the sorted order.
* :class:`GlobalDictionary` — a column-wide value ↔ global-id map built
  during load and extended by later loads. It lets predicates and joins be
  evaluated once per distinct value instead of once per row, and lets the
  scan map constants to codes without touching segment payloads.

Both start from :func:`factorize`: a column's sorted distinct values and
each row's position among them, made once per column of a row group and
read by the row order, the dictionary, its codes and the statistics.
"""

from __future__ import annotations

from typing import Any, Iterable, NamedTuple, Sequence

import numpy as np

from ..errors import CorruptBlobError, EncodingError
from ..types import DataType
from . import serde
from .bitpack import CODES
from .encodings import Scheme


# An integer domain [min, max] is dense — worth a table with a cell per
# value, which then costs no more than the rows it serves — while it has
# at most this many cells per row (a join's offset table over its build
# keys, a plain key column coded by subtraction, a column factorized
# without a sort).
DENSE_DOMAIN_PER_ROW = 8


class Factors(NamedTuple):
    """One column factorized: its sorted distinct values and each row's
    position among them (int64), so that ``distinct[ranks]`` is the
    column, bit for bit. Floats are told apart by their bits: ``-0.0``
    sorts just before ``0.0``, and NaNs last, one entry per payload."""

    distinct: np.ndarray
    ranks: np.ndarray

    def without(self, null_mask: np.ndarray | None) -> "Factors":
        """The factors of the rows outside ``null_mask``: a value only
        NULL rows' fillers hold is dropped, the ranks renumbered, and a
        NULL row's rank is 0 — a dictionary and its code stream."""
        if null_mask is None:
            return self
        used = np.zeros(self.distinct.size, dtype=bool)
        used[self.ranks[~null_mask]] = True
        ranks = (np.cumsum(used) - 1)[self.ranks]
        ranks[null_mask] = 0
        return Factors(self.distinct[used], ranks)


def factorize(values: np.ndarray) -> Factors:
    """:class:`Factors` of a physical column. Integers (and booleans, as
    0 / 1) whose [min, max] is dense (:data:`DENSE_DOMAIN_PER_ROW`) go
    through a presence table, without a sort; other numbers through one
    ``np.unique`` (a float's of its bits, whose distinct values are then
    put in value order); strings through one sorted set and a rank map."""
    if values.dtype == object:
        strings = values.tolist()
        distinct = sorted(set(strings))
        rank = {value: code for code, value in enumerate(distinct)}
        ranks = np.fromiter(map(rank.__getitem__, strings), dtype=np.int64, count=len(strings))
        return Factors(np.array(distinct, dtype=object), ranks)
    if values.dtype == np.bool_:
        values = values.view(np.uint8)
    if values.size and values.dtype.kind in "iu":
        low, high = int(values.min()), int(values.max())
        if high - low < DENSE_DOMAIN_PER_ROW * values.size:
            offsets = values.astype(np.int64) - low
            present = np.zeros(high - low + 1, dtype=bool)
            present[offsets] = True
            ranks = (np.cumsum(present) - 1)[offsets]
            return Factors((np.flatnonzero(present) + low).astype(values.dtype), ranks)
    if values.dtype.kind == "f":
        bits, ranks = np.unique(values.view(f"i{values.itemsize}"), return_inverse=True)
        distinct = bits.view(values.dtype)
        order = np.lexsort((bits, distinct))  # by value, NaN last; equal ones by bits
        position = np.empty(order.size, dtype=np.int64)
        position[order] = np.arange(order.size)
        return Factors(distinct[order], position[ranks])
    distinct, ranks = np.unique(values, return_inverse=True)
    return Factors(distinct, ranks.astype(np.int64, copy=False))


def gather(entries: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """``entries[codes]``: what each code stands for, whatever the entries
    are (values, verdicts, weights). An empty dictionary (every row NULL,
    the codes filler) gives filler; a code past the end is corruption."""
    if entries.size == 0:
        return np.full(codes.size, "" if entries.dtype == object else 0, dtype=entries.dtype)
    try:
        return entries[codes]
    except IndexError:
        raise CorruptBlobError(f"a code past a {entries.size}-entry dictionary") from None


class LocalDictionary:
    """Gather: the sorted distinct values of one segment, as its value
    stage; codes are sort positions."""

    __slots__ = ("values", "_entries")
    scheme = Scheme.DICT
    kind, flag = 0, 1

    def __init__(self, sorted_values: Sequence[Any]) -> None:
        self.values: list[Any] = list(sorted_values)
        self._entries: np.ndarray | None = None
        if self.values and isinstance(self.values[0], float):
            # By bits: -0.0 and 0.0, or two NaN payloads, are two entries.
            distinct = np.unique(np.array(self.values).view(np.int64)).size
        else:
            distinct = len(set(self.values))
        if distinct != len(self.values):
            raise EncodingError("dictionary values must be distinct")

    def __len__(self) -> int:
        return len(self.values)

    @property
    def size_bytes(self) -> int:
        """Approximate in-memory footprint, for compression accounting:
        8 bytes a number, a string's UTF-8 bytes and 4."""
        if self.values and isinstance(self.values[0], str):
            return len("".join(self.values).encode("utf-8")) + 4 * len(self.values)
        return 8 * len(self.values)

    def entries(self, dtype: np.dtype) -> np.ndarray:
        """The values as a read-only array of the column's ``dtype``, built
        on first use and kept."""
        if self._entries is None:
            entries = np.array(self.values, dtype=dtype)
            entries.setflags(write=False)
            self._entries = entries
        return self._entries

    def map(self, codes: np.ndarray, dtype: np.dtype) -> np.ndarray:
        return gather(self.entries(dtype), codes.view(np.int64))

    def map_few(self, codes: list[int], dtype: np.dtype) -> np.ndarray:
        """:meth:`map` on Python integers, bit for bit the same array."""
        try:  # a code is int64 to the array path: one past 2**63 wraps
            return np.array([self.values[c - (c >> 63 << 64)] for c in codes], dtype=dtype)
        except IndexError:  # past the end, or no entries: as the array path has it
            return self.map(np.array(codes, dtype=CODES), dtype)

    def check(self, dtype: np.dtype) -> np.dtype:
        return CODES

    def payloads(self, dtype: DataType) -> list[bytes]:
        return [serde.serialize_values(self.values, dtype)]

    def write(self, out: bytearray, dtype: DataType, archived: bool) -> None:
        if not archived:  # else it sits inside the archive only
            serde.write_bytes(out, *self.payloads(dtype))

    @classmethod
    def read(
        cls, blob: bytes, pos: int, dtype: DataType, present: bool
    ) -> tuple["LocalDictionary | None", int]:
        if not present:  # archived: from_payloads restores it from the archive
            return None, pos
        payload, pos = serde.read_bytes(blob, pos)
        return cls.from_payloads([payload], dtype), pos

    @classmethod
    def from_payloads(cls, parts: list[bytes], dtype: DataType) -> "LocalDictionary":
        (payload,) = parts
        return cls(serde.deserialize_values(payload, dtype))


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
