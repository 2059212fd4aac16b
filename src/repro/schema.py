"""Table schemas: ordered, named, typed columns with nullability.

A :class:`TableSchema` is immutable once constructed and is shared by the
row store, the columnstore index, the planner and the SQL binder. Row
validation (`coerce_row`) happens here so every ingestion path — bulk load,
trickle insert, SQL INSERT — enforces identical rules; a bulk load
validates column by column (`coerce_columns`), the same rules over the
column's values, falling back to `coerce_row` to name its first error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from .errors import ConstraintError, ReproError, SchemaError
from .types import DataType, TypeKind, python_values


@dataclass(frozen=True)
class ColumnDef:
    """One column: name, type and nullability."""

    name: str
    dtype: DataType
    nullable: bool = True

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "a").isalnum():
            raise SchemaError(f"invalid column name {self.name!r}")

    def __str__(self) -> str:
        null = "" if self.nullable else " NOT NULL"
        return f"{self.name} {self.dtype}{null}"


@dataclass(frozen=True)
class TableSchema:
    """An ordered collection of :class:`ColumnDef` with unique names."""

    columns: tuple[ColumnDef, ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False, hash=False)

    def __init__(self, columns: Iterable[ColumnDef]) -> None:
        cols = tuple(columns)
        if not cols:
            raise SchemaError("a table must have at least one column")
        index: dict[str, int] = {}
        for position, col in enumerate(cols):
            key = col.name.lower()
            if key in index:
                raise SchemaError(f"duplicate column name {col.name!r}")
            index[key] = position
        object.__setattr__(self, "columns", cols)
        object.__setattr__(self, "_index", index)

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self) -> Iterator[ColumnDef]:
        return iter(self.columns)

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._index

    @property
    def names(self) -> list[str]:
        return [col.name for col in self.columns]

    def position(self, name: str) -> int:
        """Ordinal of a column by (case-insensitive) name."""
        try:
            return self._index[name.lower()]
        except KeyError:
            raise SchemaError(f"unknown column {name!r}") from None

    def column(self, name: str) -> ColumnDef:
        return self.columns[self.position(name)]

    def dtype(self, name: str) -> DataType:
        return self.column(name).dtype

    # ------------------------------------------------------------------ #
    # Row validation
    # ------------------------------------------------------------------ #
    def coerce_row(
        self, row: Sequence[Any], physical: Sequence[bool] | None = None
    ) -> tuple[Any, ...]:
        """Validate one row against the schema, returning physical values.
        A value ``physical`` marks is its column's physical value already:
        it is checked as any other, and a DECIMAL's scaled integer is
        kept as it is.

        Raises :class:`SchemaError` on arity mismatch,
        :class:`ConstraintError` on NULL in a NOT NULL column, and
        :class:`TypeMismatchError` on bad values.
        """
        if len(row) != len(self.columns):
            raise SchemaError(
                f"row has {len(row)} values but table has {len(self.columns)} columns"
            )
        out = []
        for value, col, kept in zip(row, self.columns, physical or [False] * len(row)):
            if value is None and not col.nullable:
                raise ConstraintError(f"column {col.name!r} is NOT NULL")
            out.append(value if kept and col.dtype.kind is TypeKind.DECIMAL else col.dtype.coerce(value))
        return tuple(out)

    def coerce_columns(self, rows: Sequence[Sequence[Any]]) -> "PhysicalColumns":
        """:meth:`coerce_row` for many rows, one column at a time
        (:meth:`DataType.coerce_column`): each row's arity is checked,
        then each column is gathered from the rows once.

        Should any check fail, the rows are re-run through
        :meth:`coerce_row`, so the error raised is the one a row-by-row
        load raises first — its type and message, in row-major order.
        """
        if not isinstance(rows, (list, tuple)):
            rows = list(rows)
        try:
            return self._coerce_columns(rows)
        except (ReproError, TypeError, ValueError):  # TypeError: a row with no len
            for row in rows:
                self.coerce_row(row)
            raise

    def _coerce_columns(self, rows: Sequence[Sequence[Any]]) -> "PhysicalColumns":
        width = len(self.columns)
        if any(length != width for length in set(map(len, rows))):
            raise SchemaError(f"a row's arity differs from the table's {width} columns")
        values: dict[str, np.ndarray] = {}
        nulls: dict[str, np.ndarray | None] = {}
        for position, col in enumerate(self.columns):
            # One list per column: zip(*rows) makes an iterator per row,
            # and a million of those set the cyclic collector running.
            raw = [row[position] for row in rows]
            values[col.name], nulls[col.name] = col.dtype.coerce_column(raw)
            if nulls[col.name] is not None and not col.nullable:
                raise ConstraintError(f"column {col.name!r} is NOT NULL")
        return PhysicalColumns(values, nulls)

    def project(self, names: Sequence[str]) -> "TableSchema":
        """A new schema containing only the named columns, in the given order."""
        return TableSchema([self.column(name) for name in names])


@dataclass(frozen=True)
class PhysicalColumns:
    """Coerced rows held as columns: per column name its physical array
    (a NULL's slot holds the kind's fill) and its NULL mask (``None``
    when the column holds no NULL). What a bulk load logs and applies."""

    values: dict[str, np.ndarray]
    nulls: dict[str, np.ndarray | None]

    @property
    def count(self) -> int:
        return len(next(iter(self.values.values())))

    def rows(self) -> list[tuple[Any, ...]]:
        """The physical row tuples, for the paths whose unit is a row."""
        return list(
            zip(*(python_values(values, self.nulls[name]) for name, values in self.values.items()))
        )


def schema(*specs: tuple[str, DataType] | tuple[str, DataType, bool] | ColumnDef) -> TableSchema:
    """Build a :class:`TableSchema` from ``(name, dtype[, nullable])`` tuples.

    >>> from repro import types
    >>> schema(("id", types.INT, False), ("name", types.VARCHAR))
    """
    cols = []
    for spec in specs:
        if isinstance(spec, ColumnDef):
            cols.append(spec)
        elif len(spec) == 2:
            cols.append(ColumnDef(spec[0], spec[1]))
        else:
            cols.append(ColumnDef(spec[0], spec[1], spec[2]))
    return TableSchema(cols)
