"""Scalar expression trees, evaluable in batch (vectorized) and row mode.

The same tree is compiled by both engines: ``eval_batch`` computes a full
column vector per batch (NumPy), ``eval_row`` computes one value per call
(the row-mode baseline's tuple-at-a-time interpretation). NULL semantics
follow SQL three-valued logic: every evaluation returns ``(values,
null_mask)`` in batch mode and ``None``-means-NULL in row mode.
"""

from __future__ import annotations

import abc
import re
from typing import Any, Callable, Sequence

import numpy as np

from ..errors import ExecutionError, TypeMismatchError
from ..types import BOOL, FLOAT, INT, VARCHAR, DataType, TypeKind, common_numeric_type

Resolver = Callable[[str], DataType]
BatchResult = tuple[np.ndarray, "np.ndarray | None"]


def _union_nulls(*masks: np.ndarray | None) -> np.ndarray | None:
    present = [m for m in masks if m is not None]
    if not present:
        return None
    out = present[0].copy()
    for mask in present[1:]:
        out |= mask
    return out


def _known_false(truth: np.ndarray, *masks: np.ndarray | None) -> np.ndarray:
    """Rows where a comparison is FALSE and none of its inputs is NULL."""
    unknown = _union_nulls(*masks)
    return ~truth if unknown is None else ~truth & ~unknown


# BIGINT's range. Integer + - * and an integer SUM / AVG whose value
# leaves it raise (SQL Server's arithmetic overflow), in both engines.
BIGINT_MIN, BIGINT_MAX = -(2**63), 2**63 - 1


def overflow(what: Any) -> ExecutionError:
    """The error of ``what`` (an expression, an aggregate) leaving BIGINT."""
    return ExecutionError(f"arithmetic overflow: {what} leaves BIGINT's range")


def bigint(value: Any, what: Any) -> Any:
    """``value``, unless it is an integer outside BIGINT's range."""
    if isinstance(value, int) and not BIGINT_MIN <= value <= BIGINT_MAX:
        raise overflow(what)
    return value


def magnitude(values: np.ndarray) -> int:
    """A bound on |value| in a non-empty integer array, as a Python int:
    its dtype's below 64 bits (no pass over the values), else the largest."""
    if values.dtype.itemsize < 8:
        return 2 ** (8 * values.dtype.itemsize)
    return max(-int(values.min()), int(values.max()))


class Expr(abc.ABC):
    """Base class of all scalar expressions."""

    @abc.abstractmethod
    def eval_batch(self, batch) -> BatchResult:
        """Evaluate over a batch, returning full-length (values, null_mask)."""

    @abc.abstractmethod
    def eval_row(self, row: dict[str, Any]) -> Any:
        """Evaluate for one row (a name->value dict); ``None`` means NULL."""

    @abc.abstractmethod
    def infer_dtype(self, resolver: Resolver) -> DataType:
        """Result type given a column-name -> DataType resolver."""

    def referenced_columns(self) -> set[str]:
        """All column names this expression reads."""
        out: set[str] = set()
        self._collect_columns(out)
        return out

    def _collect_columns(self, out: set[str]) -> None:
        for child in self.children():
            child._collect_columns(out)

    def children(self) -> Sequence["Expr"]:
        return ()


class Column(Expr):
    """Reference to a column by name."""

    def __init__(self, name: str) -> None:
        self.name = name

    def eval_batch(self, batch) -> BatchResult:
        return batch.column(self.name), batch.null_mask(self.name)

    def eval_row(self, row: dict[str, Any]) -> Any:
        try:
            return row[self.name]
        except KeyError:
            raise ExecutionError(f"row has no column {self.name!r}") from None

    def infer_dtype(self, resolver: Resolver) -> DataType:
        return resolver(self.name)

    def _collect_columns(self, out: set[str]) -> None:
        out.add(self.name)

    def __str__(self) -> str:
        return self.name


class Literal(Expr):
    """A constant in its physical representation; one bound from SQL text
    keeps its ``slot`` among the statement's literals, whether a unary
    minus was folded into it (``negated``) and the ``coerce`` that made
    ``value`` of it, for a statement shape (sql/runner.py)."""

    def __init__(
        self,
        value: Any,
        dtype: DataType | None = None,
        slot: int | None = None,
        coerce: Callable[[Any], Any] | None = None,
        negated: bool = False,
    ) -> None:
        self.value = value
        self.dtype = dtype if dtype is not None else _literal_dtype(value)
        self.slot = slot
        self.coerce = coerce
        self.negated = negated

    def eval_batch(self, batch) -> BatchResult:
        n = batch.row_count
        np_dtype = self.dtype.numpy_dtype
        if self.value is None:
            # Never read, but it must compare with the other side: a
            # NULL of a string type holds strings.
            fill = np.full(n, "", dtype=object) if np_dtype == object else np.zeros(n, np.int64)
            return fill, np.ones(n, dtype=bool)
        if np_dtype == object:
            return np.full(n, self.value, dtype=object), None
        if isinstance(self.value, float) and np.issubdtype(np_dtype, np.integer):
            # A fractional physical value in an integer-backed type (an AVG
            # over decimals embedded as a scalar-subquery literal): keep the
            # float, truncating would silently change the result.
            np_dtype = np.float64
        return np.full(n, self.value, dtype=np_dtype), None

    def eval_row(self, row: dict[str, Any]) -> Any:
        return self.value

    def infer_dtype(self, resolver: Resolver) -> DataType:
        return self.dtype

    def __str__(self) -> str:
        return repr(self.value)


def _literal_dtype(value: Any) -> DataType:
    if value is None:
        return INT  # NULL literal; type refined by context when it matters
    if isinstance(value, bool):
        return BOOL
    if isinstance(value, int):
        return INT if -(2**31) <= value < 2**31 else DataType(TypeKind.BIGINT)
    if isinstance(value, float):
        return FLOAT
    if isinstance(value, str):
        return VARCHAR
    raise TypeMismatchError(f"unsupported literal {value!r}")


_ARITH_OPS: dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": np.divide,
    "%": np.mod,
}


def _wrapped(op: str, lv: np.ndarray, rv: np.ndarray, values: np.ndarray) -> np.ndarray | None:
    """Where int64 ``op`` wrapped: for + and -, where the result's sign
    is no operand's it could have; for *, ``None`` (no row) when a bound
    shows no product leaves int64, else where the exact product does."""
    if op == "+":
        return ((lv ^ values) & (rv ^ values)) < 0
    if op == "-":
        return ((lv ^ rv) & (lv ^ values)) < 0
    if not lv.size or magnitude(lv) * magnitude(rv) <= BIGINT_MAX:
        return None
    exact = lv.astype(object) * rv.astype(object)
    return (exact < BIGINT_MIN) | (exact > BIGINT_MAX)


class Arithmetic(Expr):
    """Binary arithmetic: + - * / %.

    Division always produces FLOAT (documented divergence from SQL Server's
    integer division); division by zero yields NULL rather than an error so
    vectorized evaluation over non-qualifying rows stays total. Integer
    + - * that leaves BIGINT's range raises, in a qualifying row whose
    result is not NULL only.
    """

    def __init__(self, op: str, left: Expr, right: Expr) -> None:
        if op not in _ARITH_OPS:
            raise ExecutionError(f"unknown arithmetic operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def children(self) -> Sequence[Expr]:
        return (self.left, self.right)

    def eval_batch(self, batch) -> BatchResult:
        lv, ln = self.left.eval_batch(batch)
        rv, rn = self.right.eval_batch(batch)
        nulls = _union_nulls(ln, rn)
        if self.op in ("/", "%"):
            lv = lv.astype(np.float64)
            rv = rv.astype(np.float64)
            zero = rv == 0
            if zero.any():
                rv = np.where(zero, 1.0, rv)
                nulls = _union_nulls(nulls, zero)
        elif lv.dtype.kind in "iu" and rv.dtype.kind in "iu":
            # Integers add and multiply in 64 bits, as a row's Python ints
            # do within that range: INT * INT overflows 32 bits.
            lv = lv.astype(np.int64, copy=False)
            rv = rv.astype(np.int64, copy=False)
        with np.errstate(over="ignore", invalid="ignore"):
            values = _ARITH_OPS[self.op](lv, rv)
        # Only a qualifying row whose result is not NULL may raise.
        if values.dtype == np.int64 and (wrapped := _wrapped(self.op, lv, rv, values)) is not None:
            if nulls is not None:
                wrapped &= ~nulls
            if (wrapped if batch.selection is None else wrapped[batch.selection]).any():
                raise overflow(self)
        return values, nulls

    def eval_row(self, row: dict[str, Any]) -> Any:
        lv = self.left.eval_row(row)
        rv = self.right.eval_row(row)
        if lv is None or rv is None:
            return None
        if self.op == "+":
            return bigint(lv + rv, self)
        if self.op == "-":
            return bigint(lv - rv, self)
        if self.op == "*":
            return bigint(lv * rv, self)
        if rv == 0:
            return None
        if self.op == "/":
            return lv / rv
        return lv % rv

    def infer_dtype(self, resolver: Resolver) -> DataType:
        if self.op in ("/", "%"):
            return FLOAT
        left = self.left.infer_dtype(resolver)
        right = self.right.infer_dtype(resolver)
        return common_numeric_type(left, right)

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


_COMPARE_OPS = {"=", "!=", "<", "<=", ">", ">="}


class Comparison(Expr):
    """Binary comparison with SQL NULL propagation."""

    def __init__(self, op: str, left: Expr, right: Expr) -> None:
        if op not in _COMPARE_OPS:
            raise ExecutionError(f"unknown comparison operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def children(self) -> Sequence[Expr]:
        return (self.left, self.right)

    def eval_batch(self, batch) -> BatchResult:
        lv, ln = self.left.eval_batch(batch)
        rv, rn = self.right.eval_batch(batch)
        values = _compare_arrays(self.op, lv, rv)
        return values, _union_nulls(ln, rn)

    def eval_row(self, row: dict[str, Any]) -> Any:
        lv = self.left.eval_row(row)
        rv = self.right.eval_row(row)
        if lv is None or rv is None:
            return None
        if self.op == "=":
            return lv == rv
        if self.op == "!=":
            return lv != rv
        if self.op == "<":
            return lv < rv
        if self.op == "<=":
            return lv <= rv
        if self.op == ">":
            return lv > rv
        return lv >= rv

    def infer_dtype(self, resolver: Resolver) -> DataType:
        return BOOL

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


def _compare_arrays(op: str, lv: np.ndarray, rv: np.ndarray) -> np.ndarray:
    if op == "=":
        result = lv == rv
    elif op == "!=":
        result = lv != rv
    elif op == "<":
        result = lv < rv
    elif op == "<=":
        result = lv <= rv
    elif op == ">":
        result = lv > rv
    else:
        result = lv >= rv
    return np.asarray(result, dtype=bool)


class And(Expr):
    """Kleene AND over any number of conjuncts."""

    def __init__(self, *conjuncts: Expr) -> None:
        if not conjuncts:
            raise ExecutionError("AND requires at least one operand")
        self.conjuncts = list(conjuncts)

    def children(self) -> Sequence[Expr]:
        return tuple(self.conjuncts)

    def eval_batch(self, batch) -> BatchResult:
        values: np.ndarray | None = None
        nulls: np.ndarray | None = None
        for conjunct in self.conjuncts:
            cv, cn = conjunct.eval_batch(batch)
            cv = np.asarray(cv, dtype=bool)
            if values is None:
                values, nulls = cv.copy(), (cn.copy() if cn is not None else None)
                continue
            # Kleene AND: a definite FALSE on either side dominates NULL.
            new_nulls = _union_nulls(nulls, cn)
            if new_nulls is not None:
                left_false = ~values & (~nulls if nulls is not None else True)
                right_false = ~cv & (~cn if cn is not None else True)
                new_nulls = new_nulls & ~(left_false | right_false)
            values = values & cv
            nulls = new_nulls
        assert values is not None
        if nulls is not None:
            values = values & ~nulls  # NULL rows must not read as TRUE
        return values, nulls

    def eval_row(self, row: dict[str, Any]) -> Any:
        saw_null = False
        for conjunct in self.conjuncts:
            value = conjunct.eval_row(row)
            if value is None:
                saw_null = True
            elif not value:
                return False
        return None if saw_null else True

    def infer_dtype(self, resolver: Resolver) -> DataType:
        return BOOL

    def __str__(self) -> str:
        return "(" + " AND ".join(str(c) for c in self.conjuncts) + ")"


class Or(Expr):
    """Kleene OR over any number of disjuncts."""

    def __init__(self, *disjuncts: Expr) -> None:
        if not disjuncts:
            raise ExecutionError("OR requires at least one operand")
        self.disjuncts = list(disjuncts)

    def children(self) -> Sequence[Expr]:
        return tuple(self.disjuncts)

    def eval_batch(self, batch) -> BatchResult:
        values: np.ndarray | None = None
        nulls: np.ndarray | None = None
        for disjunct in self.disjuncts:
            dv, dn = disjunct.eval_batch(batch)
            dv = np.asarray(dv, dtype=bool)
            if values is None:
                values, nulls = dv.copy(), (dn.copy() if dn is not None else None)
                continue
            # Kleene OR: a definite TRUE on either side dominates NULL.
            new_nulls = _union_nulls(nulls, dn)
            if new_nulls is not None:
                left_true = values & (~nulls if nulls is not None else True)
                right_true = dv & (~dn if dn is not None else True)
                new_nulls = new_nulls & ~(left_true | right_true)
            values = values | dv
            nulls = new_nulls
        assert values is not None
        return values, nulls

    def eval_row(self, row: dict[str, Any]) -> Any:
        saw_null = False
        for disjunct in self.disjuncts:
            value = disjunct.eval_row(row)
            if value is None:
                saw_null = True
            elif value:
                return True
        return None if saw_null else False

    def infer_dtype(self, resolver: Resolver) -> DataType:
        return BOOL

    def __str__(self) -> str:
        return "(" + " OR ".join(str(d) for d in self.disjuncts) + ")"


class Not(Expr):
    def __init__(self, operand: Expr) -> None:
        self.operand = operand

    def children(self) -> Sequence[Expr]:
        return (self.operand,)

    def eval_batch(self, batch) -> BatchResult:
        values, nulls = self.operand.eval_batch(batch)
        return ~np.asarray(values, dtype=bool), nulls

    def eval_row(self, row: dict[str, Any]) -> Any:
        value = self.operand.eval_row(row)
        return None if value is None else not value

    def infer_dtype(self, resolver: Resolver) -> DataType:
        return BOOL

    def __str__(self) -> str:
        return f"(NOT {self.operand})"


class IsNull(Expr):
    """IS NULL / IS NOT NULL — never returns NULL itself."""

    def __init__(self, operand: Expr, negated: bool = False) -> None:
        self.operand = operand
        self.negated = negated

    def children(self) -> Sequence[Expr]:
        return (self.operand,)

    def eval_batch(self, batch) -> BatchResult:
        _, nulls = self.operand.eval_batch(batch)
        if nulls is None:
            result = np.zeros(batch.row_count, dtype=bool)
        else:
            result = nulls.copy()
        if self.negated:
            result = ~result
        return result, None

    def eval_row(self, row: dict[str, Any]) -> Any:
        is_null = self.operand.eval_row(row) is None
        return not is_null if self.negated else is_null

    def infer_dtype(self, resolver: Resolver) -> DataType:
        return BOOL

    def __str__(self) -> str:
        return f"({self.operand} IS {'NOT ' if self.negated else ''}NULL)"


class Between(Expr):
    """value BETWEEN low AND high (inclusive both ends): the Kleene AND of
    ``value >= low`` and ``value <= high``, so a side known FALSE makes it
    FALSE even when the other bound is NULL."""

    def __init__(self, operand: Expr, low: Expr, high: Expr) -> None:
        self.operand = operand
        self.low = low
        self.high = high

    def children(self) -> Sequence[Expr]:
        return (self.operand, self.low, self.high)

    def eval_batch(self, batch) -> BatchResult:
        values, vn = self.operand.eval_batch(batch)
        low, ln = self.low.eval_batch(batch)
        high, hn = self.high.eval_batch(batch)
        above = np.asarray(values >= low, dtype=bool)
        below = np.asarray(values <= high, dtype=bool)
        nulls = _union_nulls(vn, ln, hn)
        if nulls is not None:
            nulls &= ~(_known_false(above, vn, ln) | _known_false(below, vn, hn))
        return above & below, nulls

    def eval_row(self, row: dict[str, Any]) -> Any:
        value = self.operand.eval_row(row)
        low = self.low.eval_row(row)
        high = self.high.eval_row(row)
        if value is None:
            return None
        if (low is not None and not low <= value) or (high is not None and not value <= high):
            return False
        return None if low is None or high is None else True

    def infer_dtype(self, resolver: Resolver) -> DataType:
        return BOOL

    def __str__(self) -> str:
        return f"({self.operand} BETWEEN {self.low} AND {self.high})"


class InList(Expr):
    """value IN (c1, c2, ...) over constant lists, with SQL 3VL.

    ``values`` must not contain None — the binder strips NULL entries and
    passes ``has_null=True`` instead. Semantics: a match is TRUE; no match
    is NULL when the list had a NULL or the operand is NULL (the
    comparison to the unknown member is unknown), otherwise FALSE. An
    empty list is FALSE for every operand, NULL ones included.
    """

    def __init__(
        self, operand: Expr, values: Sequence[Any], has_null: bool = False
    ) -> None:
        self.operand = operand
        self.values = [v for v in values if v is not None]
        self.has_null = has_null or any(v is None for v in values)
        self._value_set = set(self.values)

    def children(self) -> Sequence[Expr]:
        return (self.operand,)

    def eval_batch(self, batch) -> BatchResult:
        values, nulls = self.operand.eval_batch(batch)
        if not self.values:
            result = np.zeros(values.shape[0], dtype=bool)
            # Empty list: FALSE everywhere... unless the list held a NULL,
            # in which case every answer is unknown.
            if not self.has_null:
                return result, None
            return result, np.ones(values.shape[0], dtype=bool)
        if values.dtype == object:
            result = np.fromiter(
                (v in self._value_set for v in values.tolist()),
                dtype=bool,
                count=values.shape[0],
            )
        else:
            result = np.isin(values, np.array(self.values))
        if self.has_null:
            # Non-matches are unknown, matches stay TRUE.
            nulls = _union_nulls(nulls, ~result)
        return result, nulls

    def eval_row(self, row: dict[str, Any]) -> Any:
        if not self.values and not self.has_null:
            return False
        value = self.operand.eval_row(row)
        if value is None:
            return None
        if value in self._value_set:
            return True
        return None if self.has_null else False

    def infer_dtype(self, resolver: Resolver) -> DataType:
        return BOOL

    def __str__(self) -> str:
        inner = ", ".join(repr(v) for v in self.values)
        if self.has_null:
            inner = f"{inner}, NULL" if inner else "NULL"
        return f"({self.operand} IN ({inner}))"


class Like(Expr):
    """SQL LIKE with % (any run) and _ (any single character)."""

    def __init__(self, operand: Expr, pattern: str, negated: bool = False) -> None:
        self.operand = operand
        self.pattern = pattern
        self.negated = negated
        self._regex = compile_like(pattern)

    def children(self) -> Sequence[Expr]:
        return (self.operand,)

    def matches(self, value: str) -> bool:
        hit = self._regex.match(value) is not None
        return not hit if self.negated else hit

    def eval_batch(self, batch) -> BatchResult:
        values, nulls = self.operand.eval_batch(batch)
        regex = self._regex
        result = np.fromiter(
            (regex.match(v) is not None for v in values.tolist()),
            dtype=bool,
            count=values.shape[0],
        )
        if self.negated:
            result = ~result
        return result, nulls

    def eval_row(self, row: dict[str, Any]) -> Any:
        value = self.operand.eval_row(row)
        if value is None:
            return None
        return self.matches(value)

    def infer_dtype(self, resolver: Resolver) -> DataType:
        return BOOL

    def __str__(self) -> str:
        return f"({self.operand} {'NOT ' if self.negated else ''}LIKE {self.pattern!r})"


def compile_like(pattern: str) -> re.Pattern:
    """Translate a SQL LIKE pattern to an anchored regex."""
    out = []
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return re.compile("".join(out) + r"\Z", re.DOTALL)


class Case(Expr):
    """Searched CASE: WHEN cond THEN value ... [ELSE value] END.

    It has one result type: the common type of its results, NULL literals
    aside (they take any type) — what ``infer_dtype`` reports and what
    ``eval_batch`` builds, whichever branch comes first.
    """

    def __init__(
        self, branches: Sequence[tuple[Expr, Expr]], default: Expr | None = None
    ) -> None:
        if not branches:
            raise ExecutionError("CASE requires at least one WHEN branch")
        self.branches = list(branches)
        self.default = default

    def children(self) -> Sequence[Expr]:
        out: list[Expr] = []
        for cond, value in self.branches:
            out.extend((cond, value))
        if self.default is not None:
            out.append(self.default)
        return tuple(out)

    def results(self) -> list[Expr]:
        """Each branch's THEN, then the ELSE (NULL when there is none)."""
        default = self.default if self.default is not None else Literal(None)
        return [*(value for _, value in self.branches), default]

    def literal_results(self) -> list[Any] | None:
        """The values of :meth:`results` when every one is a literal —
        the CASE is then a dictionary and :meth:`deciding_branch` its
        codes — else ``None``."""
        results = self.results()
        if all(type(result) is Literal for result in results):
            return [result.value for result in results]
        return None

    def deciding_branch(self, batch) -> np.ndarray:
        """Per row, the index into :meth:`results` of the result it
        takes: the first branch whose condition is TRUE, else the ELSE."""
        branch = np.full(batch.row_count, len(self.branches), dtype=np.int64)
        # Last to first: an earlier branch overwrites a later one.
        for at in range(len(self.branches) - 1, -1, -1):
            holds, unknown = self.branches[at][0].eval_batch(batch)
            holds = np.asarray(holds, dtype=bool)
            if unknown is not None:
                holds = holds & ~unknown
            branch[holds] = at
        return branch

    def eval_batch(self, batch) -> BatchResult:
        branch = self.deciding_branch(batch)
        nulls = np.zeros(batch.row_count, dtype=bool)
        evaluated = []  # (index into results, values, null mask), NULL literals aside
        for at, result in enumerate(self.results()):
            if _is_null_literal(result):
                nulls |= branch == at
            else:  # over the rows that take it: only they may raise
                evaluated.append((at, *result.eval_batch(batch.narrow(branch == at))))
        dtypes = [values.dtype for _, values, _ in evaluated]
        if any(dtype == object for dtype in dtypes):
            out = np.full(batch.row_count, "", dtype=object)
        else:
            out = np.zeros(batch.row_count, dtype=np.result_type(*dtypes) if dtypes else np.int64)
        for at, values, value_nulls in evaluated:
            takes = branch == at
            out[takes] = values[takes]
            if value_nulls is not None:
                nulls[takes] = value_nulls[takes]
        return out, nulls if nulls.any() else None

    def eval_row(self, row: dict[str, Any]) -> Any:
        for cond, value in self.branches:
            if self.cond_true(cond, row):
                return value.eval_row(row)
        if self.default is not None:
            return self.default.eval_row(row)
        return None

    @staticmethod
    def cond_true(cond: Expr, row: dict[str, Any]) -> bool:
        value = cond.eval_row(row)
        return bool(value) and value is not None

    def infer_dtype(self, resolver: Resolver) -> DataType:
        types = [
            result.infer_dtype(resolver)
            for result in self.results()
            if not _is_null_literal(result)
        ]
        if not types:
            return _literal_dtype(None)
        common = types[0]
        for dtype in types[1:]:
            if dtype == common:
                continue
            if dtype.kind is common.kind is TypeKind.VARCHAR:
                common = VARCHAR  # lengths differ
            elif dtype.is_numeric and common.is_numeric:
                common = common_numeric_type(common, dtype)
            else:
                raise TypeMismatchError(f"CASE results {common} and {dtype} have no common type")
        return common

    def __str__(self) -> str:
        parts = [f"WHEN {cond} THEN {value}" for cond, value in self.branches]
        if self.default is not None:
            parts.append(f"ELSE {self.default}")
        return "CASE " + " ".join(parts) + " END"


def _is_null_literal(expr: Expr) -> bool:
    return type(expr) is Literal and expr.value is None


def _assign_where(target: np.ndarray, source: np.ndarray, mask: np.ndarray) -> np.ndarray:
    if target.dtype != source.dtype and target.dtype != object:
        promoted = np.promote_types(target.dtype, source.dtype)
        target = target.astype(promoted)
    target[mask] = source[mask]
    return target


# ---------------------------------------------------------------------- #
# Scalar functions
# ---------------------------------------------------------------------- #
def _days_to_years(days: np.ndarray) -> np.ndarray:
    return days.astype("datetime64[D]").astype("datetime64[Y]").astype(np.int64) + 1970


def _days_to_months(days: np.ndarray) -> np.ndarray:
    months = days.astype("datetime64[D]").astype("datetime64[M]").astype(np.int64)
    return months % 12 + 1


def _days_to_dom(days: np.ndarray) -> np.ndarray:
    d = days.astype("datetime64[D]")
    return (d - d.astype("datetime64[M]")).astype(np.int64) + 1


_FUNCTIONS: dict[str, dict[str, Any]] = {
    "year": {
        "batch": lambda a: _days_to_years(a),
        "row": lambda v: (np.datetime64(0, "D") + np.timedelta64(v, "D")).astype(object).year,
        "dtype": lambda arg: INT,
    },
    "month": {
        "batch": lambda a: _days_to_months(a),
        "row": lambda v: (np.datetime64(0, "D") + np.timedelta64(v, "D")).astype(object).month,
        "dtype": lambda arg: INT,
    },
    "day": {
        "batch": lambda a: _days_to_dom(a),
        "row": lambda v: (np.datetime64(0, "D") + np.timedelta64(v, "D")).astype(object).day,
        "dtype": lambda arg: INT,
    },
    "abs": {
        "batch": lambda a: np.abs(a),
        "row": lambda v: abs(v),
        "dtype": lambda arg: arg,
    },
    "upper": {
        "batch": lambda a: _map_strings(a, str.upper),
        "row": lambda v: v.upper(),
        "dtype": lambda arg: VARCHAR,
    },
    "lower": {
        "batch": lambda a: _map_strings(a, str.lower),
        "row": lambda v: v.lower(),
        "dtype": lambda arg: VARCHAR,
    },
    "length": {
        "batch": lambda a: np.fromiter((len(v) for v in a.tolist()), dtype=np.int64, count=a.shape[0]),
        "row": lambda v: len(v),
        "dtype": lambda arg: INT,
    },
}


def _map_strings(arr: np.ndarray, fn: Callable[[str], str]) -> np.ndarray:
    out = np.empty(arr.shape[0], dtype=object)
    out[:] = [fn(v) for v in arr.tolist()]
    return out


# N-ary functions: (min_args, max_args). Unary functions live in
# _FUNCTIONS; these have bespoke evaluation below.
_NARY_FUNCTIONS: dict[str, tuple[int, int]] = {
    "coalesce": (1, 64),
    "concat": (1, 64),
    "substr": (2, 3),
    "round": (1, 2),
}


class FunctionCall(Expr):
    """A scalar function call.

    Unary functions (YEAR, MONTH, DAY, ABS, UPPER, LOWER, LENGTH) come
    from the ``_FUNCTIONS`` table; COALESCE, CONCAT, SUBSTR and ROUND are
    n-ary with bespoke NULL semantics (CONCAT treats NULL as '', like SQL
    Server's CONCAT; SUBSTR is 1-based).
    """

    def __init__(self, name: str, *operands: Expr) -> None:
        key = name.lower()
        if key in _FUNCTIONS:
            if len(operands) != 1:
                raise ExecutionError(f"{name} takes exactly one argument")
        elif key in _NARY_FUNCTIONS:
            lo, hi = _NARY_FUNCTIONS[key]
            if not lo <= len(operands) <= hi:
                raise ExecutionError(
                    f"{name} takes {lo}..{hi} arguments, got {len(operands)}"
                )
        else:
            raise ExecutionError(f"unknown function {name!r}")
        self.name = key
        self.operands = list(operands)

    def children(self) -> Sequence[Expr]:
        return tuple(self.operands)

    # ------------------------------------------------------------------ #
    def eval_batch(self, batch) -> BatchResult:
        if self.name in _FUNCTIONS:
            values, nulls = self.operands[0].eval_batch(batch)
            return _FUNCTIONS[self.name]["batch"](values), nulls
        parts = [operand.eval_batch(batch) for operand in self.operands]
        if self.name == "coalesce":
            return self._coalesce_batch(batch, parts)
        if self.name == "concat":
            return self._concat_batch(batch, parts)
        if self.name == "substr":
            return self._substr_batch(parts)
        return self._round_batch(parts)

    def _coalesce_batch(self, batch, parts) -> BatchResult:
        values, nulls = parts[0]
        result = values.copy()
        missing = nulls.copy() if nulls is not None else np.zeros(batch.row_count, dtype=bool)
        for part_values, part_nulls in parts[1:]:
            if not missing.any():
                break
            take = missing.copy()
            if part_nulls is not None:
                take &= ~part_nulls
            result = _assign_where(result, part_values, take)
            missing &= ~take
        return result, missing if missing.any() else None

    def _concat_batch(self, batch, parts) -> BatchResult:
        n = batch.row_count
        columns = []
        for part_values, part_nulls in parts:
            strings = [_as_str(v) for v in part_values.tolist()]
            if part_nulls is not None:
                flags = part_nulls.tolist()
                strings = ["" if flag else s for s, flag in zip(strings, flags)]
            columns.append(strings)
        out = np.empty(n, dtype=object)
        out[:] = ["".join(cells) for cells in zip(*columns)]
        return out, None

    def _substr_batch(self, parts) -> BatchResult:
        values, nulls = parts[0]
        starts, start_nulls = parts[1]
        nulls = _union_nulls(nulls, start_nulls)
        if len(parts) == 3:
            lengths, length_nulls = parts[2]
            nulls = _union_nulls(nulls, length_nulls)
            triples = zip(values.tolist(), starts.tolist(), lengths.tolist())
            result = [_substr(s, int(p), int(l)) for s, p, l in triples]
        else:
            result = [
                _substr(s, int(p), None)
                for s, p in zip(values.tolist(), starts.tolist())
            ]
        out = np.empty(values.shape[0], dtype=object)
        out[:] = result
        return out, nulls

    def _round_batch(self, parts) -> BatchResult:
        values, nulls = parts[0]
        digits = 0
        if len(parts) == 2:
            digit_values, _ = parts[1]
            digits = int(digit_values[0]) if digit_values.size else 0
        return np.round(values.astype(np.float64), digits), nulls

    # ------------------------------------------------------------------ #
    def eval_row(self, row: dict[str, Any]) -> Any:
        if self.name in _FUNCTIONS:
            value = self.operands[0].eval_row(row)
            if value is None:
                return None
            return _FUNCTIONS[self.name]["row"](value)
        args = [operand.eval_row(row) for operand in self.operands]
        if self.name == "coalesce":
            return next((a for a in args if a is not None), None)
        if self.name == "concat":
            return "".join("" if a is None else _as_str(a) for a in args)
        if self.name == "substr":
            if args[0] is None or args[1] is None:
                return None
            length = args[2] if len(args) == 3 else None
            if len(args) == 3 and length is None:
                return None
            return _substr(args[0], int(args[1]), None if length is None else int(length))
        if args[0] is None:
            return None
        digits = int(args[1]) if len(args) == 2 and args[1] is not None else 0
        return round(float(args[0]), digits)

    def infer_dtype(self, resolver: Resolver) -> DataType:
        if self.name in _FUNCTIONS:
            return _FUNCTIONS[self.name]["dtype"](self.operands[0].infer_dtype(resolver))
        if self.name == "coalesce":
            return self.operands[0].infer_dtype(resolver)
        if self.name in ("concat", "substr"):
            return VARCHAR
        return FLOAT

    def __str__(self) -> str:
        inner = ", ".join(str(o) for o in self.operands)
        return f"{self.name.upper()}({inner})"


def _as_str(value: Any) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return f"{float(value):g}"
    return str(value)


def _substr(s: str, start: int, length: int | None) -> str:
    """SQL SUBSTR: 1-based start; negative/zero starts clamp like SQLite."""
    begin = max(0, start - 1)
    if length is None:
        return s[begin:]
    if length <= 0:
        return ""
    return s[begin : begin + length]


# ---------------------------------------------------------------------- #
# Predicate truth helpers
# ---------------------------------------------------------------------- #
def predicate_mask(expr: Expr, batch) -> np.ndarray:
    """Full-length boolean mask of rows where ``expr`` is TRUE (not NULL)."""
    values, nulls = expr.eval_batch(batch)
    mask = np.asarray(values, dtype=bool)
    if nulls is not None:
        mask = mask & ~nulls
    return mask


def predicate_true(expr: Expr, row: dict[str, Any]) -> bool:
    """Row-mode WHERE truth: TRUE only (NULL/FALSE both reject)."""
    value = expr.eval_row(row)
    return value is not None and bool(value)


# Convenience constructors, used by the query-builder API and tests.
def col(name: str) -> Column:
    return Column(name)


def lit(value: Any, dtype: DataType | None = None) -> Literal:
    return Literal(value, dtype)
