"""Column segments: the unit of columnar storage and compression.

One :class:`ColumnSegment` holds one column of one row group, compressed
independently, together with the metadata the scan uses for segment
elimination (min/max, row and null counts) — mirroring Section "Index
storage" of the paper. A segment can additionally be *archived*: its
payloads are run through the LZ77 codec (:mod:`repro.storage.xpress`) and
decompressed on access, modelling COLUMNSTORE_ARCHIVE.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property
from typing import Any

import numpy as np

from ..errors import EncodingError
from ..types import DataType, TypeKind
from . import serde, value_encoding, xpress
from .dictionary import GlobalDictionary, LocalDictionary
from .encodings import (
    BitpackBlock,
    RawBlock,
    Scheme,
    StreamBlock,
    dictionary_pays_off,
    encode_stream,
    pack_null_mask,
    take_null_mask,
    unpack_null_mask,
)
from .rle import RleBlock

_METADATA_OVERHEAD_BYTES = 64
# An integer domain [min, max] is dense — worth a table with a cell per
# value, which then costs no more than the rows it serves — while it has
# at most this many cells per row (a join's offset table over its build
# keys, a plain key column coded by subtraction).
DENSE_DOMAIN_PER_ROW = 8
# A take of at most this many positions works in Python integers and
# makes one array, of its result: below it the array path's fixed cost
# (asarray, min / max, view, += and astype on tiny arrays, the kernel's
# own) is most of a take (EXPERIMENTS.md E29 measures the crossover).
_FEW = 8


@dataclass(frozen=True)
class ColumnSegment:
    """An immutable, compressed column of one row group."""

    dtype: DataType
    row_count: int
    scheme: Scheme
    stream: StreamBlock
    dictionary: LocalDictionary | None
    value_enc: value_encoding.ValueEncoding | None
    null_payload: bytes | None
    null_count: int
    min_value: Any
    max_value: Any
    raw_size_bytes: int
    archive: bytes | None = None  # xpress-compressed payloads when archived

    # ------------------------------------------------------------------ #
    # Size accounting
    # ------------------------------------------------------------------ #
    @property
    def archived(self) -> bool:
        return self.archive is not None

    @property
    def encoded_size_bytes(self) -> int:
        """On-"disk" size of this segment, including dictionary and nulls."""
        if self.archive is not None:
            payload_size = len(self.archive)
        else:
            payload_size = self.stream.size_bytes
            if self.dictionary is not None:
                payload_size += self.dictionary.size_bytes
        null_size = len(self.null_payload) if self.null_payload else 0
        return payload_size + null_size + _METADATA_OVERHEAD_BYTES

    @property
    def compression_ratio(self) -> float:
        return self.raw_size_bytes / max(1, self.encoded_size_bytes)

    # ------------------------------------------------------------------ #
    # Metadata / segment elimination
    # ------------------------------------------------------------------ #
    def overlaps_range(self, low: Any, high: Any) -> bool:
        """Can any row of this segment satisfy ``low <= value <= high``?

        ``None`` bounds are unbounded. A segment that is entirely NULL can
        never satisfy a range predicate.
        """
        if self.min_value is None:
            return False
        if low is not None and self.max_value < low:
            return False
        if high is not None and self.min_value > high:
            return False
        return True

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #
    def null_mask(self, positions: np.ndarray | None = None) -> np.ndarray | None:
        """Boolean mask of NULL positions (of all rows, or of the rows at
        ``positions``), or ``None`` when the segment is fully non-null."""
        if self.null_payload is None:
            return None
        if positions is None:
            return unpack_null_mask(self.null_payload, self.row_count)
        return take_null_mask(self.null_payload, positions)

    def vector(self) -> "EncodedVector | None":
        """This column still encoded, or ``None`` when it can only be
        decoded: bit-packed and raw streams have no distinct values to
        work on, and an archived segment would decompress its archive on
        every access. Free until the vector is first used."""
        if self.archive is not None:
            return None
        if self.scheme is Scheme.DICT:
            return DictionaryVector(self)
        if self.scheme is Scheme.VALUE and isinstance(self.stream, RleBlock):
            return RunVector(self)
        return None

    def decode(self) -> tuple[np.ndarray, np.ndarray | None]:
        """Materialize (values, null_mask) in the column's physical dtype."""
        if self.archive is not None:
            return self.to_unarchived().decode()
        vector = self.vector()
        if vector is not None:
            return vector.decode()
        values = self.stream.decode()
        if self.scheme is Scheme.VALUE:
            assert self.value_enc is not None
            values = self.value_enc.invert(values, self.dtype.numpy_dtype)
        return values, self.null_mask()

    def take(self, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """``decode()`` indexed by ``positions`` — values, dtype and mask
        bit for bit — reading only those rows of the stream.

        Positions are checked here, once for every stream kind: only the
        bit-packed one would notice, and a negative one would wrap.
        """
        positions = np.asarray(positions, dtype=np.int64)
        if positions.size and not 0 <= positions.min() <= positions.max() < self.row_count:
            raise EncodingError(f"position outside a segment of {self.row_count} rows")
        if self.archive is not None:
            return self.to_unarchived().take(positions)
        if positions.size <= _FEW and self.scheme is not Scheme.RAW:
            return self._take_few(positions.tolist())
        vector = self.vector()
        if vector is not None:
            return vector.take(positions)
        values = self.stream.take(positions)
        if self.scheme is Scheme.VALUE:
            assert self.value_enc is not None
            values = self.value_enc.invert(values, self.dtype.numpy_dtype)
        return values, self.null_mask(positions)

    def _take_few(self, positions: list[int]) -> tuple[np.ndarray, np.ndarray | None]:
        """:meth:`take` of a few positions in Python integers: the stream
        read at those rows alone, the values looked up / inverted one by
        one, one array made at the end — bit for bit the array path."""
        codes = self.stream.take_few(positions)
        if self.scheme is Scheme.VALUE:
            values = self.value_enc.invert_few(codes, self.dtype.numpy_dtype)
        else:
            entries = self.dictionary.values
            dtype = self.dtype.numpy_dtype
            if entries:  # a code is int64 to the array path: one past 2**63 wraps
                values = np.array([entries[c - (c >> 63 << 64)] for c in codes], dtype=dtype)
            else:  # every row NULL: filler, as DictionaryVector._lookup
                values = np.full(len(codes), "" if dtype == object else 0, dtype=dtype)
        if self.null_payload is None:
            return values, None
        return values, take_null_mask(self.null_payload, positions)

    # ------------------------------------------------------------------ #
    # Archival compression
    # ------------------------------------------------------------------ #
    def to_archived(self) -> "ColumnSegment":
        """Re-compress payloads with the archival codec (idempotent)."""
        if self.archive is not None:
            return self
        payloads = _collect_payloads(self.stream)
        dict_payload = (
            serde.serialize_values(self.dictionary.values, self.dtype)
            if self.dictionary is not None
            else None
        )
        blob = _join_archive(payloads, dict_payload)
        return dataclasses.replace(
            self,
            archive=xpress.compress(blob),
            stream=_with_payloads(self.stream, [b""] * len(payloads)),
        )

    def to_unarchived(self) -> "ColumnSegment":
        """Restore the plain (non-archival) representation."""
        if self.archive is None:
            return self
        payloads, dict_payload = _split_archive(xpress.decompress(self.archive))
        dictionary = self.dictionary
        if dict_payload is not None:
            dictionary = LocalDictionary(serde.deserialize_values(dict_payload, self.dtype))
        return dataclasses.replace(
            self,
            archive=None,
            stream=_with_payloads(self.stream, payloads),
            dictionary=dictionary,
        )


# ---------------------------------------------------------------------- #
# Encoded column vectors
# ---------------------------------------------------------------------- #
class EncodedVector:
    """One column of one row group, handed out still encoded.

    Row ``i`` holds ``distinct_values()[p(i)]``. A *dictionary* vector
    maps rows through a code stream (codes ∘ dictionary); a *run* vector
    through run lengths (run values × run lengths). Operators do their
    work once per distinct value — one predicate verdict, one aggregate
    update per dictionary entry or run — and return to row space with
    :meth:`expand`. :meth:`decode` is ``expand(distinct_values())``, bit
    for bit what the segment's own decode emits (it *is* that decode).
    Nothing is read from the segment until first use.

    Either kind is a group key: :meth:`select` hands out rows as a
    :class:`DictionaryVector`, whose ``codes`` / ``n_distinct`` /
    ``null_mask`` a code-space GROUP BY combines. ``source`` names who
    made the vector, for EXPLAIN ANALYZE.
    """

    source = "scan"

    def __init__(self, segment: ColumnSegment) -> None:
        self._segment = segment
        self.row_count = segment.row_count
        self.numpy_dtype = segment.dtype.numpy_dtype

    @cached_property
    def null_mask(self) -> np.ndarray | None:
        return self._segment.null_mask()

    def decode(self) -> tuple[np.ndarray, np.ndarray | None]:
        return self.expand(self.distinct_values()), self.null_mask

    def take(self, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """``decode()`` indexed by ``positions``, from those rows alone."""
        raise NotImplementedError

    def _present(self, keep: np.ndarray) -> np.ndarray:
        # NULL rows store a filler position; they never weigh anything.
        return keep if self.null_mask is None else keep & ~self.null_mask

    @property
    def n_distinct(self) -> int:
        """Dictionary entries / runs (known without reading the payload)."""
        raise NotImplementedError

    def distinct_values(self) -> np.ndarray:
        """One value per dictionary entry / run, typed as decode emits."""
        raise NotImplementedError

    def expand(self, per_distinct: np.ndarray) -> np.ndarray:
        """Spread one entry per distinct value over the rows holding it."""
        raise NotImplementedError

    def weights(self, keep: np.ndarray) -> np.ndarray:
        """Fold a row mask to int64 surviving non-NULL rows per distinct value."""
        raise NotImplementedError

    def select(self, positions: np.ndarray | None) -> "DictionaryVector":
        """The rows at ``positions`` (``None``: every row), still encoded
        — what ``take`` is to values."""
        raise NotImplementedError


def _read_only(array: np.ndarray) -> np.ndarray:
    """``array``, which its owner caches and hands out, made unwritable."""
    array.setflags(write=False)
    return array


class _ValueCoder(dict):
    """value → dictionary code, in order of first appearance. Looked up
    through a C-level ``map``; only a value not seen before reaches
    Python, where it is given the next code."""

    def __missing__(self, value: Any) -> int:
        code = self[value] = len(self)
        return code


class DictionaryVector(EncodedVector):
    """codes ∘ dictionary — over a dictionary segment, read lazily, or
    over plain arrays an operator built (:meth:`of`, :meth:`from_values`)."""

    n_distinct = 0  # set per instance: known without reading any payload

    def __init__(self, segment: ColumnSegment) -> None:
        super().__init__(segment)
        self.n_distinct = len(segment.dictionary)

    @classmethod
    def of(
        cls,
        codes: np.ndarray,
        distinct: np.ndarray,
        null_mask: np.ndarray | None = None,
        source: str = "scan",
    ) -> "DictionaryVector":
        """Row ``i`` holds ``distinct[codes[i]]``, or NULL under the mask
        (the code there is filler)."""
        vector = cls.__new__(cls)
        vector._segment = None
        vector.row_count = int(codes.size)
        vector.numpy_dtype = distinct.dtype
        vector.n_distinct = int(distinct.size)
        # The lazy attributes, filled in up front.
        vector.codes, vector._distinct, vector.null_mask = codes, distinct, null_mask
        vector.source = source
        return vector

    @classmethod
    def from_values(
        cls,
        values: np.ndarray,
        null_mask: np.ndarray | None = None,
        source: str = "scan",
    ) -> "DictionaryVector":
        """Code a plain column. An integer column whose [min, max] is
        dense (``DENSE_DOMAIN_PER_ROW``) is coded by subtraction — the
        dictionary is the whole range, no sort; other numbers are ranked
        by ``np.unique``; objects are coded in order of first appearance.
        An entry no row uses (a gap in the range, a NULL row's filler)
        is allowed."""
        if values.size and np.issubdtype(values.dtype, np.integer):
            low, high = int(values.min()), int(values.max())
            if high - low + 1 <= DENSE_DOMAIN_PER_ROW * values.size:
                codes = (values - low).astype(np.int64, copy=False)
                distinct = np.arange(low, high + 1, dtype=values.dtype)
                return cls.of(codes, distinct, null_mask, source)
        if values.dtype != object:
            distinct, codes = np.unique(values, return_inverse=True)
            return cls.of(codes, distinct, null_mask, source)
        coder = _ValueCoder()
        codes = np.fromiter(
            map(coder.__getitem__, values.tolist()), dtype=np.int64, count=values.size
        )
        distinct = np.empty(len(coder), dtype=object)
        distinct[:] = list(coder)
        return cls.of(codes, distinct, null_mask, source)

    @cached_property
    def codes(self) -> np.ndarray:
        return self._segment.stream.decode().view(np.int64)

    @cached_property
    def _distinct(self) -> np.ndarray:
        is_string = self._segment.dtype.kind is TypeKind.VARCHAR
        return np.array(
            self._segment.dictionary.values,
            dtype=object if is_string else self.numpy_dtype,
        )

    def distinct_values(self) -> np.ndarray:
        return self._distinct

    def expand(self, per_distinct: np.ndarray) -> np.ndarray:
        return self._lookup(per_distinct, self.codes)

    def select(self, positions: np.ndarray | None) -> "DictionaryVector":
        """The rows at ``positions``, still encoded (what ``take`` is to
        values): a segment's code stream is read at those rows alone."""
        if positions is None:
            return self
        if "codes" in self.__dict__:
            codes = self.codes[positions]
            nulls = None if self.null_mask is None else self.null_mask[positions]
        else:
            codes = self._segment.stream.take(positions).view(np.int64)
            nulls = self._segment.null_mask(positions)
        return DictionaryVector.of(codes, self._distinct, nulls, self.source)

    def take(self, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        return self.select(positions).decode()

    @staticmethod
    def _lookup(per_distinct: np.ndarray, codes: np.ndarray) -> np.ndarray:
        if per_distinct.size == 0:
            # Empty dictionary = every row NULL: the codes are filler zeros
            # with no entry to index; emit filler under the all-True mask.
            filler = "" if per_distinct.dtype == object else 0
            return np.full(codes.size, filler, dtype=per_distinct.dtype)
        return per_distinct[codes]

    def weights(self, keep: np.ndarray) -> np.ndarray:
        return np.bincount(
            self.codes[self._present(keep)], minlength=self.n_distinct
        ).astype(np.int64)


class RunVector(EncodedVector):
    """run values × run lengths; its distinct values are the runs'.

    As a group key it is coded *by value*, not by run: ``run_keys`` codes
    the run values (``DictionaryVector.from_values`` over one row per
    run), and a row's code is its run's. Equal values in different runs
    share a code, so a key has as many cells as values — a store key in
    1,900 runs of 100 stores is 100 groups to look up, not 1,900.
    """

    @property
    def n_distinct(self) -> int:
        return self._segment.stream.n_runs

    @cached_property
    def _runs(self) -> tuple[np.ndarray, np.ndarray]:
        return self._segment.stream.runs()

    @cached_property
    def run_bounds(self) -> np.ndarray:
        """Each run's first row, then the row count: run ``r`` is rows
        ``[run_bounds[r], run_bounds[r + 1])``, and ``reduceat`` at
        ``run_bounds[:-1]`` folds rows to runs."""
        bounds = np.zeros(self.n_distinct + 1, dtype=np.int64)
        np.cumsum(self._runs[1], out=bounds[1:])
        return _read_only(bounds)

    @cached_property
    def run_keys(self) -> DictionaryVector:
        """The runs as a group key: row ``r`` is run ``r``, coded by value."""
        keys = DictionaryVector.from_values(self.distinct_values())
        _read_only(keys.codes)
        return keys

    @cached_property
    def codes(self) -> np.ndarray:
        """Each row's code in ``run_keys`` (not a run index)."""
        return _read_only(np.repeat(self.run_keys.codes, self._runs[1]))

    def distinct_values(self) -> np.ndarray:
        # A copy: inverting consumes its input, and the runs are kept.
        return self._segment.value_enc.invert(self._runs[0].copy(), self.numpy_dtype)

    def expand(self, per_distinct: np.ndarray) -> np.ndarray:
        return np.repeat(per_distinct, self._runs[1])

    def select(self, positions: np.ndarray | None) -> DictionaryVector:
        codes, nulls = self.codes, self.null_mask
        if positions is not None:
            codes, nulls = codes[positions], None if nulls is None else nulls[positions]
        return DictionaryVector.of(codes, self.run_keys.distinct_values(), nulls, self.source)

    def take(self, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        segment = self._segment
        values = segment.value_enc.invert(segment.stream.take(positions), self.numpy_dtype)
        return values, segment.null_mask(positions)

    def weights(self, keep: np.ndarray) -> np.ndarray:
        if self.n_distinct == 0:
            return np.zeros(0, dtype=np.int64)
        return np.add.reduceat(self._present(keep), self.run_bounds[:-1], dtype=np.int64)


# ---------------------------------------------------------------------- #
# Archive payload plumbing
# ---------------------------------------------------------------------- #
def _collect_payloads(stream: StreamBlock) -> list[bytes]:
    if isinstance(stream, RleBlock):
        return [stream.value_payload, stream.length_payload]
    return [stream.payload]


def _with_payloads(stream: StreamBlock, payloads: list[bytes]) -> StreamBlock:
    if isinstance(stream, RleBlock):
        return dataclasses.replace(
            stream, value_payload=payloads[0], length_payload=payloads[1]
        )
    return dataclasses.replace(stream, payload=payloads[0])


def _join_archive(payloads: list[bytes], dict_payload: bytes | None) -> bytes:
    out = bytearray()
    parts = list(payloads)
    parts.append(dict_payload if dict_payload is not None else b"")
    serde.write_varint(out, len(payloads))
    serde.write_varint(out, 1 if dict_payload is not None else 0)
    for part in parts:
        serde.write_varint(out, len(part))
        out += part
    return bytes(out)


def _split_archive(blob: bytes) -> tuple[list[bytes], bytes | None]:
    n_payloads, pos = serde.read_varint(blob, 0)
    has_dict, pos = serde.read_varint(blob, pos)
    parts: list[bytes] = []
    for _ in range(n_payloads + 1):
        length, pos = serde.read_varint(blob, pos)
        parts.append(blob[pos : pos + length])
        pos += length
    trailing = parts.pop()
    dict_payload = trailing if has_dict else None
    return parts, dict_payload


# ---------------------------------------------------------------------- #
# Segment construction
# ---------------------------------------------------------------------- #
def encode_segment(
    dtype: DataType,
    values: np.ndarray,
    null_mask: np.ndarray | None = None,
    global_dict: GlobalDictionary | None = None,
) -> ColumnSegment:
    """Compress one column of one row group into a :class:`ColumnSegment`.

    ``values`` holds physical values (see :mod:`repro.types`); positions
    flagged in ``null_mask`` are ignored for statistics and dictionary
    construction. If a :class:`GlobalDictionary` is supplied, the segment's
    distinct values are interned into it (the paper's primary dictionary).
    """
    values = np.asarray(values)
    row_count = int(values.size)
    if null_mask is not None:
        null_mask = np.asarray(null_mask, dtype=bool)
        if null_mask.shape != (row_count,):
            raise EncodingError("null mask shape does not match values")
        if not null_mask.any():
            null_mask = None
    null_count = int(null_mask.sum()) if null_mask is not None else 0
    non_null = values[~null_mask] if null_mask is not None else values

    raw_size = _raw_size_bytes(dtype, values, null_mask)
    min_value, max_value = _min_max(dtype, non_null)

    if dtype.kind is TypeKind.VARCHAR:
        scheme, stream, dictionary, venc = _encode_strings(non_null, null_mask, row_count)
    elif dtype.kind is TypeKind.FLOAT:
        scheme, stream, dictionary, venc = _encode_floats(values, non_null, null_mask, row_count)
    else:
        scheme, stream, dictionary, venc = _encode_ints(values, non_null, null_mask, row_count)

    if global_dict is not None and dictionary is not None:
        global_dict.intern_all(dictionary.values)

    return ColumnSegment(
        dtype=dtype,
        row_count=row_count,
        scheme=scheme,
        stream=stream,
        dictionary=dictionary,
        value_enc=venc,
        null_payload=pack_null_mask(null_mask) if null_mask is not None else None,
        null_count=null_count,
        min_value=min_value,
        max_value=max_value,
        raw_size_bytes=raw_size,
    )


def _raw_size_bytes(
    dtype: DataType, values: np.ndarray, null_mask: np.ndarray | None
) -> int:
    if dtype.kind is TypeKind.VARCHAR:
        total = 0
        mask = null_mask if null_mask is not None else np.zeros(values.size, dtype=bool)
        for value, is_null in zip(values.tolist(), mask.tolist()):
            total += 2 if is_null else len(str(value).encode("utf-8")) + 2
        return total
    return int(values.size) * dtype.fixed_width_bytes


def _min_max(dtype: DataType, non_null: np.ndarray) -> tuple[Any, Any]:
    if non_null.size == 0:
        return None, None
    if dtype.kind is TypeKind.VARCHAR:
        lst = non_null.tolist()
        return min(lst), max(lst)
    if dtype.kind is TypeKind.FLOAT:
        return float(non_null.min()), float(non_null.max())
    if dtype.kind is TypeKind.BOOL:
        return bool(non_null.min()), bool(non_null.max())
    return int(non_null.min()), int(non_null.max())


def _fill_codes(
    codes_non_null: np.ndarray, null_mask: np.ndarray | None, row_count: int
) -> np.ndarray:
    """Scatter non-null codes into a full-length stream (nulls become 0)."""
    if null_mask is None:
        return codes_non_null
    full = np.zeros(row_count, dtype=codes_non_null.dtype)
    full[~null_mask] = codes_non_null
    return full


def _encode_strings(non_null, null_mask, row_count):
    dictionary, codes = LocalDictionary.build(non_null)
    stream = encode_stream(_fill_codes(codes, null_mask, row_count))
    return Scheme.DICT, stream, dictionary, None


def _encode_ints(values, non_null, null_mask, row_count):
    """Physical-int columns: choose dictionary vs value encoding by size."""
    venc = value_encoding.choose_integer_encoding(non_null.astype(np.int64))
    offsets = venc.apply(non_null.astype(np.int64)) if non_null.size else non_null.astype(np.uint64)
    offset_width = int(offsets.max()).bit_length() if offsets.size else 0
    ndv = int(np.unique(non_null).size) if non_null.size else 0
    if non_null.size and dictionary_pays_off(row_count, ndv, offset_width, 8):
        dictionary, codes = LocalDictionary.build(non_null.astype(np.int64))
        stream = encode_stream(_fill_codes(codes, null_mask, row_count))
        return Scheme.DICT, stream, dictionary, None
    stream = encode_stream(_fill_codes(offsets, null_mask, row_count))
    return Scheme.VALUE, stream, None, venc


def _encode_floats(values, non_null, null_mask, row_count):
    venc = value_encoding.choose_float_encoding(non_null.astype(np.float64))
    if venc is not None:
        offsets = (
            venc.apply(non_null.astype(np.float64))
            if non_null.size
            else np.zeros(0, dtype=np.uint64)
        )
        stream = encode_stream(_fill_codes(offsets.astype(np.int64), null_mask, row_count))
        return Scheme.VALUE, stream, None, venc
    ndv = int(np.unique(non_null).size) if non_null.size else 0
    if non_null.size and ndv <= row_count // 4 and dictionary_pays_off(row_count, ndv, 64, 8):
        dictionary, codes = LocalDictionary.build(non_null.astype(np.float64))
        stream = encode_stream(_fill_codes(codes, null_mask, row_count))
        return Scheme.DICT, stream, dictionary, None
    filled = values.astype(np.float64).copy()
    if null_mask is not None:
        filled[null_mask] = 0.0
    return Scheme.RAW, RawBlock.from_array(filled), None, None
