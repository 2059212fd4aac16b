"""Column segments: the unit of columnar storage and compression.

One :class:`ColumnSegment` holds one column of one row group, compressed
independently, together with the metadata the scan uses for segment
elimination (min/max, row and null counts) — mirroring Section "Index
storage" of the paper. A segment can additionally be *archived*: its
payloads are run through DEFLATE (one zlib stream, :func:`read_archive`
reads it back) and decompressed on access, modelling COLUMNSTORE_ARCHIVE.

A segment reads through exactly one *value stage* over one *stream
stage* (Rozenberg's primitives; DESIGN.md "Compressed execution" has the
table). Stream stages — :class:`BitpackBlock` (Unpack),
:class:`~repro.storage.rle.RleBlock` (RunExpand) and :class:`RawBlock` —
are described in :mod:`repro.storage.encodings`. Value stages —
:class:`LocalDictionary` (Gather), :class:`ValueEncoding` (Affine) and
:data:`IDENTITY` (raw) — each define ``map(ints, dtype)``,
``map_few(ints, dtype)``, ``check(dtype)`` (returning the dtype it reads
from its stream), ``payloads(dtype)`` and a blob codec. ``decode``,
``take`` and the few-position take are each one composition of the two,
and the archive is one step over both stages' payloads.
"""

from __future__ import annotations

import dataclasses
import zlib
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Union

import numpy as np

from ..errors import CorruptBlobError, EncodingError
from ..types import DataType, TypeKind
from . import serde, value_encoding
from .dictionary import (
    DENSE_DOMAIN_PER_ROW,
    Factors,
    GlobalDictionary,
    LocalDictionary,
    factorize,
    gather,
)
from .encodings import (
    IDENTITY,
    Identity,
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
from .value_encoding import ValueEncoding

ValueStage = Union[LocalDictionary, ValueEncoding, Identity]

_METADATA_OVERHEAD_BYTES = 64
# The zlib level of every archive this build writes, picked from E2
# (DESIGN.md "Archival codec").
ARCHIVE_LEVEL = 6
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
    stream: StreamBlock
    values: ValueStage
    null_payload: bytes | None
    null_count: int
    min_value: Any
    max_value: Any
    raw_size_bytes: int
    archive: bytes | None = None  # the payloads as one zlib stream when archived

    @property
    def scheme(self) -> Scheme:
        return self.values.scheme

    @property
    def dictionary(self) -> LocalDictionary | None:
        """The value stage, when it is a dictionary (archived or not)."""
        return self.values if isinstance(self.values, LocalDictionary) else None

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
            payload_size = self.stream.size_bytes + self.values.size_bytes
        null_size = len(self.null_payload) if self.null_payload else 0
        return payload_size + null_size + _METADATA_OVERHEAD_BYTES

    @property
    def compression_ratio(self) -> float:
        return self.raw_size_bytes / max(1, self.encoded_size_bytes)

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #
    def null_mask(self, positions: np.ndarray | list[int] | None = None) -> np.ndarray | None:
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
        every access. Free until the vector is first used. The one place
        that asks which stages a segment has."""
        if self.archive is not None:
            return None
        if isinstance(self.values, LocalDictionary):
            return DictionaryVector(self)
        if isinstance(self.values, ValueEncoding) and isinstance(self.stream, RleBlock):
            return RunVector(self)
        return None

    def decode(self) -> tuple[np.ndarray, np.ndarray | None]:
        """Materialize (values, null_mask) in the column's physical dtype."""
        if self.archive is not None:
            return self.to_unarchived().decode()
        return self.values.map(self.stream.take(None), self.dtype.numpy_dtype), self.null_mask()

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
        if positions.size <= _FEW:
            return self._take_few(positions.tolist())
        values = self.values.map(self.stream.take(positions), self.dtype.numpy_dtype)
        return values, self.null_mask(positions)

    def _take_few(self, positions: list[int]) -> tuple[np.ndarray, np.ndarray | None]:
        """:meth:`take` of a few positions in Python integers: the stream
        read at those rows alone, the values mapped one by one, one array
        made at the end — bit for bit the array path."""
        values = self.values.map_few(self.stream.take_few(positions), self.dtype.numpy_dtype)
        return values, self.null_mask(positions)

    # ------------------------------------------------------------------ #
    # Archival compression
    # ------------------------------------------------------------------ #
    def to_archived(self) -> "ColumnSegment":
        """Re-compress both stages' payloads as one zlib stream
        (idempotent). The stream keeps its parameters, with empty
        payloads; the value stage stays as it is."""
        if self.archive is not None:
            return self
        parts = self.stream.payloads()
        blob = _join_archive(parts, self.values.payloads(self.dtype))
        return dataclasses.replace(
            self,
            archive=zlib.compress(blob, ARCHIVE_LEVEL),
            stream=self.stream.with_payloads([b""] * len(parts)),
        )

    def to_unarchived(self) -> "ColumnSegment":
        """Restore the plain (non-archival) representation."""
        if self.archive is None:
            return self
        parts, _ = read_archive(self.archive)
        if len(parts) != len(self.stream.payloads()):
            raise CorruptBlobError(f"an archive of {len(parts)} stream payloads")
        return dataclasses.replace(self, archive=None, stream=self.stream.with_payloads(parts))


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
    for bit what the segment's own decode emits.
    Nothing is read from the segment until first use.

    Either kind is a group key: :meth:`select` hands out rows as a
    :class:`DictionaryVector`, whose ``codes`` / ``n_distinct`` /
    ``null_mask`` a code-space GROUP BY combines, and whose ``space``
    names what its codes index. ``source`` names who made the vector,
    for EXPLAIN ANALYZE.
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
        """``decode()`` indexed by ``positions``, from those rows alone:
        the segment's own take, or those rows selected and decoded."""
        if self._segment is None:
            return self.select(positions).decode()
        return self._segment.take(positions)

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


class CodeSpace:
    """The name of the codes an operator hands out batch after batch over
    one distinct array it built (a join's build column, a projection's
    literals). Equal to itself only."""

    __slots__ = ()


class _ValueCoder(dict):
    """value → dictionary code, in order of first appearance. Looked up
    through a C-level ``map``; only a value not seen before reaches
    Python, where it is given the next code."""

    def __missing__(self, value: Any) -> int:
        code = self[value] = len(self)
        return code


class DictionaryVector(EncodedVector):
    """codes ∘ dictionary — over a dictionary segment, read lazily, or
    over plain arrays an operator built (:meth:`of`, :meth:`from_values`).

    ``space`` names the distinct values the codes index: two vectors of
    one space map equal codes to equal values, whichever batch they came
    in. It is a segment's dictionary, a :class:`CodeSpace` an operator
    made, or ``(dtype, low, radix)`` for integers coded by subtraction;
    ``None`` when the codes are this vector's own (ranked, or coded in
    order of first appearance, on the spot).
    """

    n_distinct = 0  # set per instance: known without reading any payload

    def __init__(self, segment: ColumnSegment) -> None:
        super().__init__(segment)
        self.n_distinct = len(segment.values)
        self.space = segment.values

    @classmethod
    def of(
        cls,
        codes: np.ndarray,
        distinct: np.ndarray,
        null_mask: np.ndarray | None = None,
        source: str = "scan",
        space: Any = None,
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
        vector.source, vector.space = source, space
        return vector

    @classmethod
    def from_values(
        cls,
        values: np.ndarray,
        null_mask: np.ndarray | None = None,
        source: str = "scan",
        space: Any = None,
    ) -> "DictionaryVector":
        """Code a plain column. An integer column whose [min, max] is
        dense (``DENSE_DOMAIN_PER_ROW``) is coded by subtraction — the
        dictionary is the whole range, no sort, and the space is
        ``(dtype, low, radix)``; other numbers are ranked by
        ``np.unique``; objects are coded in order of first appearance.
        Those two are in ``space``, which a caller that hands these codes
        out batch after batch names. An entry no row uses (a gap in the
        range, a NULL row's filler) is allowed."""
        if values.size and np.issubdtype(values.dtype, np.integer):
            low, high = int(values.min()), int(values.max())
            if high - low + 1 <= DENSE_DOMAIN_PER_ROW * values.size:
                codes = (values - low).astype(np.int64, copy=False)
                distinct = np.arange(low, high + 1, dtype=values.dtype)
                space = (values.dtype, low, distinct.size)
                return cls.of(codes, distinct, null_mask, source, space)
        if values.dtype != object:
            distinct, codes = np.unique(values, return_inverse=True)
            return cls.of(codes, distinct, null_mask, source, space)
        coder = _ValueCoder()
        codes = np.fromiter(
            map(coder.__getitem__, values.tolist()), dtype=np.int64, count=values.size
        )
        distinct = np.empty(len(coder), dtype=object)
        distinct[:] = list(coder)
        return cls.of(codes, distinct, null_mask, source, space)

    @cached_property
    def codes(self) -> np.ndarray:
        return self._segment.stream.take(None).view(np.int64)

    @cached_property
    def _distinct(self) -> np.ndarray:
        return self._segment.values.entries(self.numpy_dtype)

    def distinct_values(self) -> np.ndarray:
        return self._distinct

    def expand(self, per_distinct: np.ndarray) -> np.ndarray:
        return gather(per_distinct, self.codes)

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
        return DictionaryVector.of(codes, self._distinct, nulls, self.source, self.space)

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
        # A copy: mapping consumes its input, and the runs are kept.
        return self._segment.values.map(self._runs[0].copy(), self.numpy_dtype)

    def expand(self, per_distinct: np.ndarray) -> np.ndarray:
        return np.repeat(per_distinct, self._runs[1])

    def select(self, positions: np.ndarray | None) -> DictionaryVector:
        codes, nulls = self.codes, self.null_mask
        if positions is not None:
            codes, nulls = codes[positions], None if nulls is None else nulls[positions]
        keys = self.run_keys
        return DictionaryVector.of(codes, keys.distinct_values(), nulls, self.source, keys.space)

    def weights(self, keep: np.ndarray) -> np.ndarray:
        if self.n_distinct == 0:
            return np.zeros(0, dtype=np.int64)
        return np.add.reduceat(self._present(keep), self.run_bounds[:-1], dtype=np.int64)


# ---------------------------------------------------------------------- #
# The archive's plain form: how many stream and value-stage payloads,
# then each length-prefixed (an empty part when there is no value-stage
# payload)
# ---------------------------------------------------------------------- #
def _join_archive(stream_parts: list[bytes], value_parts: list[bytes]) -> bytes:
    out = bytearray()
    serde.write_varint(out, len(stream_parts))
    serde.write_varint(out, len(value_parts))
    for part in stream_parts + (value_parts or [b""]):
        serde.write_bytes(out, part)
    return bytes(out)


def read_archive(archive: bytes) -> tuple[list[bytes], list[bytes]]:
    """(stream payloads, value-stage payloads) of an archive, one zlib
    stream. A bad check, a cut stream and bytes after the stream's end
    are each refused."""
    inflater = zlib.decompressobj()
    try:
        blob = inflater.decompress(archive)
    except zlib.error as exc:
        raise CorruptBlobError(f"corrupt archive: {exc}") from exc
    if not inflater.eof:
        raise CorruptBlobError("truncated archive")
    if inflater.unused_data:
        raise CorruptBlobError(f"{len(inflater.unused_data)} bytes after the archive's end")
    n_stream, pos = serde.read_varint(blob, 0)
    n_values, pos = serde.read_varint(blob, pos)
    parts = []
    for _ in range(n_stream + max(n_values, 1)):
        part, pos = serde.read_bytes(blob, pos)
        parts.append(part)
    return parts[:n_stream], parts[n_stream : n_stream + n_values]


# ---------------------------------------------------------------------- #
# Segment construction
# ---------------------------------------------------------------------- #
def encode_segment(
    dtype: DataType,
    values: np.ndarray,
    null_mask: np.ndarray | None = None,
    global_dict: GlobalDictionary | None = None,
    factors: Factors | None = None,
) -> ColumnSegment:
    """Compress one column of one row group into a :class:`ColumnSegment`.

    ``values`` holds physical values (see :mod:`repro.types`); positions
    flagged in ``null_mask`` are ignored for statistics and dictionary
    construction. If a :class:`GlobalDictionary` is supplied, the segment's
    distinct values are interned into it (the paper's primary dictionary).
    ``factors`` is ``factorize(values)`` when the caller has it (the
    loader made it to choose the row order); else it is made here when
    needed. A dictionary, its codes, the NDV a dictionary is weighed by
    and a string column's statistics all come from it.
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

    def present() -> Factors:  # the non-NULL rows' factors
        return (factorize(values) if factors is None else factors).without(null_mask)

    if dtype.kind is TypeKind.VARCHAR:
        strings = present()
        stage = LocalDictionary(strings.distinct.tolist())
        stream = encode_stream(strings.ranks)
        # 2 bytes a row, and a string's UTF-8 bytes for each row holding it.
        held = strings.ranks if null_mask is None else strings.ranks[~null_mask]
        lengths = serde.utf8(stage.values)[1]
        raw_size = 2 * row_count + int(lengths @ np.bincount(held, minlength=lengths.size))
        min_value, max_value = (stage.values[0], stage.values[-1]) if len(stage) else (None, None)
    else:
        non_null = values[~null_mask] if null_mask is not None else values
        raw_size = row_count * dtype.fixed_width_bytes
        min_value, max_value = _min_max(dtype, non_null)
        if dtype.kind is TypeKind.FLOAT:
            stream, stage = _encode_floats(values, non_null, null_mask, row_count, present)
        else:
            stream, stage = _encode_ints(non_null, null_mask, row_count, present)

    if global_dict is not None and isinstance(stage, LocalDictionary):
        global_dict.intern_all(stage.values)

    return ColumnSegment(
        dtype=dtype,
        row_count=row_count,
        stream=stream,
        values=stage,
        null_payload=pack_null_mask(null_mask) if null_mask is not None else None,
        null_count=null_count,
        min_value=min_value,
        max_value=max_value,
        raw_size_bytes=raw_size,
    )


def _min_max(dtype: DataType, non_null: np.ndarray) -> tuple[Any, Any]:
    if non_null.size == 0:
        return None, None
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


def _encode_ints(non_null, null_mask, row_count, present):
    """Physical-int columns: choose dictionary vs value encoding by size."""
    venc = value_encoding.choose_integer_encoding(non_null.astype(np.int64))
    offsets = venc.apply(non_null.astype(np.int64)) if non_null.size else non_null.astype(np.uint64)
    offset_width = int(offsets.max()).bit_length() if offsets.size else 0
    factors = present()
    if non_null.size and dictionary_pays_off(row_count, factors.distinct.size, offset_width, 8):
        return encode_stream(factors.ranks), LocalDictionary(factors.distinct.tolist())
    return encode_stream(_fill_codes(offsets, null_mask, row_count)), venc


def _encode_floats(values, non_null, null_mask, row_count, present):
    venc = value_encoding.choose_float_encoding(non_null.astype(np.float64))
    if venc is not None:
        offsets = (
            venc.apply(non_null.astype(np.float64))
            if non_null.size
            else np.zeros(0, dtype=np.uint64)
        )
        return encode_stream(_fill_codes(offsets.astype(np.int64), null_mask, row_count)), venc
    factors = present()
    ndv = factors.distinct.size
    if non_null.size and ndv <= row_count // 4 and dictionary_pays_off(row_count, ndv, 64, 8):
        return encode_stream(factors.ranks), LocalDictionary(factors.distinct.tolist())
    filled = values.astype(np.float64).copy()
    if null_mask is not None:
        filled[null_mask] = 0.0
    return RawBlock.from_array(filled), IDENTITY
