"""SQL-ish data type system shared by storage, execution and the SQL binder.

The engine supports the scalar types a data-warehouse workload needs:
integers, floats, fixed-point decimals, strings, dates and booleans. Each
logical type maps to a NumPy dtype used by batch-mode vectors, and to a
Python-level coercion function used by the row store and the SQL frontend.

Dates are stored as days since 1970-01-01 (int32), and decimals as scaled
int64 with a per-column scale — mirroring how fixed-size values are kept
binary-comparable inside SQL Server column segments.
"""

from __future__ import annotations

import datetime
import enum
from dataclasses import dataclass
from typing import Any

import numpy as np

from .errors import TypeMismatchError

_EPOCH = datetime.date(1970, 1, 1)
_MIN_DAY = (datetime.date.min - _EPOCH).days
_MAX_DAY = (datetime.date.max - _EPOCH).days


class TypeKind(enum.Enum):
    """The logical type families understood by the engine."""

    INT = "int"
    BIGINT = "bigint"
    FLOAT = "float"
    DECIMAL = "decimal"
    VARCHAR = "varchar"
    DATE = "date"
    BOOL = "bool"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TypeKind.{self.name}"


# Kinds presented as a plain Python number: ``py(v)`` for one cell,
# ``astype(py)`` for a column — one table, so the two cannot disagree.
_PLAIN = {TypeKind.INT: int, TypeKind.BIGINT: int, TypeKind.FLOAT: float, TypeKind.BOOL: bool}
_NUMPY_DTYPES = {
    TypeKind.INT: np.dtype(np.int32),
    TypeKind.BIGINT: np.dtype(np.int64),
    TypeKind.FLOAT: np.dtype(np.float64),
    TypeKind.DECIMAL: np.dtype(np.int64),
    TypeKind.VARCHAR: np.dtype(object),
    TypeKind.DATE: np.dtype(np.int32),
    TypeKind.BOOL: np.dtype(np.bool_),
}


@dataclass(frozen=True)
class DataType:
    """A concrete column type: a :class:`TypeKind` plus its parameters.

    ``scale`` is only meaningful for DECIMAL (number of fractional digits);
    ``length`` is only meaningful for VARCHAR (declared maximum length, used
    for validation, not storage).
    """

    kind: TypeKind
    scale: int = 0
    length: int | None = None

    def __post_init__(self) -> None:
        if self.kind is not TypeKind.DECIMAL and self.scale != 0:
            raise TypeMismatchError(f"scale is only valid for DECIMAL, not {self.kind.value}")
        if self.kind is not TypeKind.VARCHAR and self.length is not None:
            raise TypeMismatchError(f"length is only valid for VARCHAR, not {self.kind.value}")
        if self.kind is TypeKind.DECIMAL and not 0 <= self.scale <= 18:
            raise TypeMismatchError(f"DECIMAL scale must be in [0, 18], got {self.scale}")

    # ------------------------------------------------------------------ #
    # Classification helpers
    # ------------------------------------------------------------------ #
    @property
    def is_integer(self) -> bool:
        return self.kind in (TypeKind.INT, TypeKind.BIGINT)

    @property
    def is_numeric(self) -> bool:
        return self.kind in (TypeKind.INT, TypeKind.BIGINT, TypeKind.FLOAT, TypeKind.DECIMAL)

    @property
    def is_string(self) -> bool:
        return self.kind is TypeKind.VARCHAR

    # ------------------------------------------------------------------ #
    # Physical representation
    # ------------------------------------------------------------------ #
    @property
    def numpy_dtype(self) -> np.dtype:
        """The NumPy dtype used for this type inside batch vectors.

        VARCHAR columns travel as object arrays (Python strings) outside the
        storage layer; inside column segments they are dictionary codes.
        """
        return _NUMPY_DTYPES[self.kind]

    @property
    def fixed_width_bytes(self) -> int:
        """Uncompressed width used for raw-size accounting (VARCHAR: average 16)."""
        if self.kind is TypeKind.VARCHAR:
            return 16 if self.length is None else min(self.length, 64)
        return int(self.numpy_dtype.itemsize)

    # ------------------------------------------------------------------ #
    # Coercion between Python values and the physical representation
    # ------------------------------------------------------------------ #
    def coerce(self, value: Any) -> Any:
        """Validate and convert a Python value to this type's physical form.

        Returns ``None`` unchanged (NULL). Raises :class:`TypeMismatchError`
        for values that cannot be represented.
        """
        if value is None:
            return None
        kind = self.kind
        if kind in (TypeKind.INT, TypeKind.BIGINT):
            return self._coerce_int(value)
        if kind is TypeKind.FLOAT:
            return self._coerce_float(value)
        if kind is TypeKind.DECIMAL:
            return self._coerce_decimal(value)
        if kind is TypeKind.VARCHAR:
            return self._coerce_varchar(value)
        if kind is TypeKind.DATE:
            return self._coerce_date(value)
        return self._coerce_bool(value)

    def _coerce_int(self, value: Any) -> int:
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise TypeMismatchError(f"expected {self.kind.value}, got {value!r}")
        value = int(value)
        limit = 2**31 if self.kind is TypeKind.INT else 2**63
        if not -limit <= value < limit:
            raise TypeMismatchError(f"{value} out of range for {self.kind.value}")
        return value

    def _coerce_float(self, value: Any) -> float:
        if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
            raise TypeMismatchError(f"expected float, got {value!r}")
        return float(value)

    def _coerce_decimal(self, value: Any) -> int:
        """Decimals are stored as int64 scaled by 10**scale."""
        if isinstance(value, bool):
            raise TypeMismatchError(f"expected decimal, got {value!r}")
        if isinstance(value, (int, np.integer)):
            return int(value) * 10**self.scale
        if isinstance(value, (float, np.floating)):
            return int(round(float(value) * 10**self.scale))
        raise TypeMismatchError(f"expected decimal, got {value!r}")

    def _coerce_varchar(self, value: Any) -> str:
        if not isinstance(value, str):
            raise TypeMismatchError(f"expected varchar, got {value!r}")
        if self.length is not None and len(value) > self.length:
            raise TypeMismatchError(
                f"string of length {len(value)} exceeds VARCHAR({self.length})"
            )
        return value

    def _coerce_date(self, value: Any) -> int:
        if isinstance(value, datetime.date) and not isinstance(value, datetime.datetime):
            return (value - _EPOCH).days
        if isinstance(value, str):
            try:
                parsed = datetime.date.fromisoformat(value)
            except ValueError as exc:
                raise TypeMismatchError(f"invalid date literal {value!r}") from exc
            return (parsed - _EPOCH).days
        if isinstance(value, bool):
            raise TypeMismatchError(f"expected date, got {value!r}")
        if isinstance(value, (int, np.integer)):
            return int(value)
        raise TypeMismatchError(f"expected date, got {value!r}")

    def _coerce_bool(self, value: Any) -> bool:
        if isinstance(value, (bool, np.bool_)):
            return bool(value)
        raise TypeMismatchError(f"expected bool, got {value!r}")

    # ------------------------------------------------------------------ #
    # Presentation: physical form back to user-facing Python values
    # ------------------------------------------------------------------ #
    def present(self, value: Any) -> Any:
        """Convert a stored physical value to its user-facing Python form."""
        if value is None:
            return None
        plain = _PLAIN.get(self.kind)
        if plain is not None:
            return plain(value)
        if self.kind is TypeKind.DATE:
            return _EPOCH + datetime.timedelta(days=int(value))
        if self.kind is TypeKind.DECIMAL:
            # Physical decimals are scaled ints; aggregate averages may
            # arrive as scaled floats — both divide out the scale.
            if self.scale:
                return float(value) / 10**self.scale
            return int(value)
        return value

    def present_column(
        self, values: np.ndarray, null_mask: np.ndarray | None = None
    ) -> list[Any]:
        """:meth:`present` for a whole physical column vector, ``None``
        where ``null_mask`` is set: the non-NULL values are converted as
        one array and leave through one ``tolist``, never cell by cell."""
        if null_mask is None or not null_mask.any():
            return self._present_array(values).tolist()
        boxed = np.empty(len(values), dtype=object)  # all None
        boxed[~null_mask] = self._present_array(values[~null_mask])
        return boxed.tolist()

    def _present_array(self, physical: np.ndarray) -> np.ndarray:
        """Non-NULL physical values as an array whose ``tolist`` holds
        what :meth:`present` returns for each of them."""
        plain = _PLAIN.get(self.kind)
        if plain is not None:
            # An aggregate may hand over another width or kind (MIN over
            # a BOOL accumulates as integers): same coercion as one cell.
            same = physical.dtype.kind == np.dtype(plain).kind
            return physical if same else physical.astype(plain)
        if self.kind is TypeKind.DATE:
            return _days_to_dates(physical)
        if self.kind is TypeKind.DECIMAL:
            if self.scale:
                return physical.astype(np.float64) / 10**self.scale
            return physical.astype(np.int64)
        return physical

    def __str__(self) -> str:
        if self.kind is TypeKind.DECIMAL:
            return f"DECIMAL(18,{self.scale})"
        if self.kind is TypeKind.VARCHAR:
            return f"VARCHAR({self.length})" if self.length else "VARCHAR"
        return self.kind.value.upper()


def _days_to_dates(days: np.ndarray) -> np.ndarray:
    days = days.astype(np.int64)
    if days.size and (days.min() < _MIN_DAY or days.max() > _MAX_DAY):
        # Outside datetime.date's range: raise what one cell would.
        return np.array([DATE.present(day) for day in days.tolist()], dtype=object)
    return days.astype("datetime64[D]").astype(object)


def python_values(values: np.ndarray, null_mask: np.ndarray | None = None) -> list[Any]:
    """A physical column vector as a list of Python values, ``None`` where
    ``null_mask`` is set: one ``tolist`` for the column, never ``item()``
    per cell."""
    if null_mask is None or not null_mask.any():
        return values.tolist()
    boxed = values.astype(object)
    boxed[null_mask] = None
    return boxed.tolist()


# Convenience singletons for the common parameterless types.
INT = DataType(TypeKind.INT)
BIGINT = DataType(TypeKind.BIGINT)
FLOAT = DataType(TypeKind.FLOAT)
VARCHAR = DataType(TypeKind.VARCHAR)
DATE = DataType(TypeKind.DATE)
BOOL = DataType(TypeKind.BOOL)


def decimal(scale: int) -> DataType:
    """A DECIMAL type with the given fractional-digit scale."""
    return DataType(TypeKind.DECIMAL, scale=scale)


def varchar(length: int) -> DataType:
    """A VARCHAR type with a declared maximum length."""
    return DataType(TypeKind.VARCHAR, length=length)


def common_numeric_type(left: DataType, right: DataType) -> DataType:
    """The result type of an arithmetic operation over two numeric types.

    Follows the usual widening lattice: INT < BIGINT < DECIMAL < FLOAT.
    Mixed decimal scales widen to the larger scale.
    """
    if not (left.is_numeric and right.is_numeric):
        raise TypeMismatchError(f"cannot combine {left} and {right} numerically")
    if TypeKind.FLOAT in (left.kind, right.kind):
        return FLOAT
    if TypeKind.DECIMAL in (left.kind, right.kind):
        return decimal(max(left.scale, right.scale))
    if TypeKind.BIGINT in (left.kind, right.kind):
        return BIGINT
    return INT
