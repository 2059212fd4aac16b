"""The batch: unit of data flow in batch-mode execution.

Mirrors the paper's batch layout: a set of column vectors plus a
*qualifying rows* vector. Filters shrink the qualifying vector without
copying column data; operators that materialize output (joins, aggregates)
compact first. The paper's batch is ~900 rows, sized to stay in the L2
cache; here the interpreter's fixed cost per operator call, not cache
residency, sets the size (EXPERIMENTS.md E26), so a batch is 64k rows: a
row group of that size or less crosses the plan whole, a larger one is
sliced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping, Sequence

import numpy as np

from ..errors import ExecutionError
from ..types import DataType, python_values

DEFAULT_BATCH_SIZE = 65_536

# The plan column of row addresses: a scan that lists it among its
# columns emits each surviving row's address there (a row store's
# ``RowId``, a columnstore's ``RowLocator``), one object a row, and a
# DELETE or UPDATE reads what to change from it.
RID_COLUMN = "__rid__"

# How a consumer can take a column it reads from its child
# (``BatchOperator.declare_encoded``): the most encoded form it accepts.
AS_ROWS = "rows"  # plain values only
AS_CODES = "codes"  # group key: row-addressable codes, all keys or none
AS_WEIGHTS = "weights"  # scalar COUNT/MIN/MAX argument: any vector
AS_EXACT_WEIGHTS = "exact_weights"  # scalar SUM/AVG: integer-physical vectors
# Key codes are combined into one mixed-radix int64 per row
# (``combine_codes``); the combined key space may not exceed this many cells.
MAX_KEY_CELLS = 2**62


def combine_codes(
    columns: Sequence[tuple[np.ndarray, int]], rank: Callable | None = None
) -> tuple[np.ndarray, int]:
    """One int64 cell a row, and the number of cells: each column's codes
    (all in ``[0, radix)``) are a digit of a mixed-radix number, so equal
    codes, and only they, make equal cells; a single column's codes are
    its cells. Before the cells would pass ``MAX_KEY_CELLS`` they are
    re-ranked (``rank``, or ``np.unique``)."""
    index, cells = columns[0]
    for codes, radix in columns[1:]:
        if cells * radix > MAX_KEY_CELLS:
            index, cells = (rank or rank_cells)(index)
        index = index * radix + codes
        cells *= radix
    return index, cells


def rank_cells(index: np.ndarray) -> tuple[np.ndarray, int]:
    """Each cell's rank among the distinct cells, and how many there are."""
    distinct, ranks = np.unique(index, return_inverse=True)
    return ranks, int(distinct.size)


def sort_keys(keys: Sequence[tuple[np.ndarray, np.ndarray | None, bool]]) -> list[np.ndarray]:
    """``np.lexsort`` keys (least significant first) for ``keys``, each a
    ``(values, null_mask, descending)`` column, most significant first:
    the one definition of row order. Numbers order as themselves (a bool
    as 0 / 1, NaN after every number); an object column by its cell's
    rank among the sorted distinct non-NULL cells (a NULL's filler need
    not compare with them); NULL is greatest, a more significant flag.
    DESC reverses each key: ``~`` on integers (``-`` overflows at int64's
    minimum), ``-`` on floats, and NULLs come first."""
    out: list[np.ndarray] = []
    for values, mask, descending in reversed(keys):
        nulls = mask if mask is not None and mask.any() else None
        if values.dtype == object:
            live = slice(None) if nulls is None else ~nulls
            cells = values[live].tolist()
            rank = {cell: i for i, cell in enumerate(sorted(dict.fromkeys(cells)))}
            values = np.zeros(len(values), dtype=np.int64)
            values[live] = np.fromiter(map(rank.__getitem__, cells), np.int64, len(cells))
        elif values.dtype == np.bool_:
            values = values.view(np.int8)
        if nulls is not None:  # a NULL's filler must not order it among NULLs
            values = np.where(nulls, 0, values)
        flags = [] if nulls is None else [nulls]
        if descending:
            if values.dtype.kind == "f" and np.isnan(values).any():  # -NaN is still last
                flags.insert(0, np.isnan(values))
            values = ~values if values.dtype.kind in "iu" else -values
        out += [values, *(flag != descending for flag in flags)]
    return out


def sort_order(keys: Sequence[tuple[np.ndarray, np.ndarray | None, bool]]) -> np.ndarray:
    """The stable permutation that orders rows by ``keys`` (:func:`sort_keys`):
    rows with equal keys keep their input order."""
    return np.lexsort(sort_keys(keys))


def as_integers(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Non-integer keys as int64, and the mask of those that can equal an
    integer at all — compared by value, not cast (1.5 equals no integer):
    a bool, or a whole float within int64; a string never."""
    if keys.dtype == np.bool_:
        return keys.astype(np.int64), np.ones(keys.shape[0], dtype=bool)
    if not np.issubdtype(keys.dtype, np.floating):
        return np.zeros(keys.shape[0], dtype=np.int64), np.zeros(keys.shape[0], dtype=bool)
    whole = (np.floor(keys) == keys) & (keys >= -(2.0**63)) & (keys < 2.0**63)
    return np.where(whole, keys, 0.0).astype(np.int64), whole


@dataclass
class Batch:
    """Column vectors + null masks + qualifying-row selection.

    ``columns`` maps column name to a full-length vector; ``null_masks``
    maps name to a boolean mask (or ``None`` when the column has no NULLs).
    ``selection`` holds the indices of qualifying rows in ascending order,
    or ``None`` meaning *all rows qualify*.

    ``encoded`` holds columns still in their storage encoding (name →
    ``EncodedVector``, full length like ``columns``; duck-typed so this
    module keeps no storage imports). Only an operator whose consumer
    declared it takes them produces any; a name is in ``columns`` or in
    ``encoded``, never both.
    """

    columns: dict[str, np.ndarray]
    null_masks: dict[str, np.ndarray | None] = field(default_factory=dict)
    selection: np.ndarray | None = None
    encoded: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        lengths = {arr.shape[0] for arr in self.columns.values()}
        lengths.update(vector.row_count for vector in self.encoded.values())
        if len(lengths) > 1:
            raise ExecutionError(f"batch column lengths differ: {sorted(lengths)}")
        for name in self.columns:
            self.null_masks.setdefault(name, None)

    # ------------------------------------------------------------------ #
    # Shape
    # ------------------------------------------------------------------ #
    @property
    def row_count(self) -> int:
        """Physical length of the column vectors."""
        for arr in self.columns.values():
            return arr.shape[0]
        for vector in self.encoded.values():
            return vector.row_count
        return 0

    @property
    def active_count(self) -> int:
        """Number of qualifying rows."""
        if self.selection is None:
            return self.row_count
        return int(self.selection.size)

    @property
    def names(self) -> list[str]:
        return list(self.columns)

    def active_indices(self) -> np.ndarray:
        """Indices of qualifying rows (always materialized)."""
        if self.selection is None:
            return np.arange(self.row_count, dtype=np.int64)
        return self.selection

    def active_mask(self) -> np.ndarray:
        """Qualifying rows as a full-length boolean mask."""
        if self.selection is None:
            return np.ones(self.row_count, dtype=bool)
        mask = np.zeros(self.row_count, dtype=bool)
        mask[self.selection] = True
        return mask

    # ------------------------------------------------------------------ #
    # Column access
    # ------------------------------------------------------------------ #
    def column(self, name: str) -> np.ndarray:
        try:
            return self.columns[name]
        except KeyError:
            raise ExecutionError(f"batch has no column {name!r}") from None

    def null_mask(self, name: str) -> np.ndarray | None:
        if name not in self.columns:
            raise ExecutionError(f"batch has no column {name!r}")
        return self.null_masks.get(name)

    # ------------------------------------------------------------------ #
    # Selection manipulation
    # ------------------------------------------------------------------ #
    def narrow(self, qualifying: np.ndarray) -> "Batch":
        """New batch whose selection keeps only rows where ``qualifying``
        (a full-length boolean mask) is True among currently active rows."""
        active = self.active_indices()
        kept = active[qualifying[active]]
        return Batch(
            columns=self.columns,
            null_masks=self.null_masks,
            selection=kept,
            encoded=self.encoded,
        )

    def take(self, idx: np.ndarray | slice | None) -> "Batch":
        """The rows at ``idx`` (physical positions) as a dense batch;
        encoded columns stay encoded. ``None`` is every row: a new batch
        over the same arrays and vectors, nothing copied."""
        if idx is None:
            return Batch(
                columns=dict(self.columns),
                null_masks=dict(self.null_masks),
                encoded=dict(self.encoded),
            )
        encoded = {}
        if self.encoded:
            at = np.arange(self.row_count)[idx] if isinstance(idx, slice) else idx
            encoded = {name: vector.select(at) for name, vector in self.encoded.items()}
        return Batch(
            columns={name: arr[idx] for name, arr in self.columns.items()},
            null_masks={
                name: (mask[idx] if mask is not None else None)
                for name, mask in self.null_masks.items()
            },
            encoded=encoded,
        )

    def compact(self) -> "Batch":
        """Materialize the selection: copy qualifying rows to dense vectors."""
        if self.selection is None:
            return self
        return self.take(self.selection)

    def project(self, names: list[str]) -> "Batch":
        """Keep only the named columns, plain or encoded (no copying)."""
        plain = [name for name in names if name not in self.encoded]
        return Batch(
            columns={name: self.column(name) for name in plain},
            null_masks={name: self.null_masks.get(name) for name in plain},
            selection=self.selection,
            encoded={name: self.encoded[name] for name in names if name in self.encoded},
        )

    def with_column(
        self, name: str, values: np.ndarray, null_mask: np.ndarray | None = None
    ) -> "Batch":
        """New batch with one column added or replaced."""
        if values.shape[0] != self.row_count:
            raise ExecutionError(
                f"column {name!r} has {values.shape[0]} rows, batch has {self.row_count}"
            )
        columns = dict(self.columns)
        columns[name] = values
        null_masks = dict(self.null_masks)
        null_masks[name] = null_mask
        return Batch(
            columns=columns,
            null_masks=null_masks,
            selection=self.selection,
            encoded={n: v for n, v in self.encoded.items() if n != name},
        )

    # ------------------------------------------------------------------ #
    # Conversion
    # ------------------------------------------------------------------ #
    def to_rows(self, dtypes: Sequence[DataType] | None = None) -> list[tuple[Any, ...]]:
        """Qualifying rows as Python tuples (None for NULLs): physical
        values, or — given the columns' types — user-facing ones.

        Built a column at a time — one ``tolist`` each, then one ``zip``
        — never a cell at a time.
        """
        dense = self.compact()
        if not dense.columns:
            return [()] * dense.row_count
        vectors = [(v, dense.null_masks.get(name)) for name, v in dense.columns.items()]
        if dtypes is None:
            return list(zip(*(python_values(*vector) for vector in vectors)))
        return list(zip(*(t.present_column(*vector) for t, vector in zip(dtypes, vectors))))

    @classmethod
    def from_pydict(
        cls, data: Mapping[str, list[Any]], dtypes: Mapping[str, np.dtype] | None = None
    ) -> "Batch":
        """Build a batch from Python lists; ``None`` entries become NULLs."""
        columns: dict[str, np.ndarray] = {}
        null_masks: dict[str, np.ndarray | None] = {}
        for name, values in data.items():
            mask = np.array([v is None for v in values], dtype=bool)
            has_nulls = bool(mask.any())
            dtype = (dtypes or {}).get(name)
            if dtype is None:
                sample = next((v for v in values if v is not None), None)
                if sample is None:
                    # All-NULL column with no declared type: use a numeric
                    # vector so comparisons on (masked) filler stay total.
                    dtype = np.dtype(np.int64)
                elif isinstance(sample, bool):
                    dtype = np.dtype(np.bool_)
                elif isinstance(sample, int):
                    dtype = np.dtype(np.int64)
                elif isinstance(sample, (float, np.generic)):
                    dtype = np.dtype(np.float64)
                else:  # strings, row addresses
                    dtype = np.dtype(object)
            if dtype == object:
                arr = np.empty(len(values), dtype=object)
                arr[:] = ["" if v is None else v for v in values]
            else:
                fill: Any = False if dtype == np.bool_ else 0
                arr = np.array([fill if v is None else v for v in values], dtype=dtype)
            columns[name] = arr
            null_masks[name] = mask if has_nulls else None
        return cls(columns=columns, null_masks=null_masks)


def concat_batches(batches: list[Batch]) -> Batch | None:
    """Concatenate compacted batches (None when the list is empty).
    Plain columns only: vectors over different dictionaries do not
    concatenate, so a batch still carrying one is refused, not stripped."""
    dense = [b.compact() for b in batches if b.active_count]
    if not dense:
        return None
    if any(b.encoded for b in dense):
        raise ExecutionError("cannot concatenate batches with encoded columns")
    names = dense[0].names
    columns: dict[str, np.ndarray] = {}
    null_masks: dict[str, np.ndarray | None] = {}
    for name in names:
        columns[name] = np.concatenate([b.columns[name] for b in dense])
        if any(b.null_masks.get(name) is not None for b in dense):
            null_masks[name] = np.concatenate(
                [
                    b.null_masks[name]
                    if b.null_masks.get(name) is not None
                    else np.zeros(b.row_count, dtype=bool)
                    for b in dense
                ]
            )
        else:
            null_masks[name] = None
    return Batch(columns=columns, null_masks=null_masks)


def slice_into_batches(batch: Batch, batch_size: int = DEFAULT_BATCH_SIZE) -> Iterator[Batch]:
    """Split a large dense batch into engine-sized batches."""
    dense = batch.compact()
    total = dense.row_count
    if 0 < total <= batch_size:
        yield dense
        return
    for start in range(0, total, batch_size):
        yield dense.take(slice(start, min(start + batch_size, total)))
