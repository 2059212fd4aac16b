"""SQL abstract syntax trees (pre-binding)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


# ---------------------------------------------------------------------- #
# Expressions
# ---------------------------------------------------------------------- #
class SqlExpr:
    """Base class of unbound SQL expressions."""


@dataclass
class EIdent(SqlExpr):
    name: str
    qualifier: str | None = None

    def __str__(self) -> str:
        return f"{self.qualifier}.{self.name}" if self.qualifier else self.name


@dataclass
class ELiteral(SqlExpr):
    value: Any  # int | float | str | bool | None
    # The number or string token's place among the statement's literals;
    # None for NULL / TRUE / FALSE and literals the parser folded.
    slot: int | None = field(default=None, compare=False)

    def __str__(self) -> str:
        return repr(self.value)


@dataclass
class EBinary(SqlExpr):
    op: str  # arithmetic or comparison or and/or
    left: SqlExpr
    right: SqlExpr

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass
class EUnary(SqlExpr):
    op: str  # "not" | "-"
    operand: SqlExpr

    def __str__(self) -> str:
        return f"({self.op} {self.operand})"


@dataclass
class EFunc(SqlExpr):
    name: str
    args: list[SqlExpr]
    star: bool = False  # COUNT(*)
    distinct: bool = False

    def __str__(self) -> str:
        inner = "*" if self.star else ", ".join(str(a) for a in self.args)
        return f"{self.name}({inner})"


@dataclass
class ECase(SqlExpr):
    branches: list[tuple[SqlExpr, SqlExpr]]
    default: SqlExpr | None = None

    def __str__(self) -> str:
        return "CASE ..."


@dataclass
class EBetween(SqlExpr):
    operand: SqlExpr
    low: SqlExpr
    high: SqlExpr
    negated: bool = False


@dataclass
class EIn(SqlExpr):
    operand: SqlExpr
    values: list[Any]
    negated: bool = False


@dataclass
class ELike(SqlExpr):
    operand: SqlExpr
    pattern: str
    negated: bool = False


@dataclass
class EIsNull(SqlExpr):
    operand: SqlExpr
    negated: bool = False


@dataclass
class ESubquery(SqlExpr):
    """A scalar subquery: ``(SELECT ...)`` in expression position."""

    select: "SelectStatement"

    def __str__(self) -> str:
        return "(SELECT ...)"


@dataclass
class EExists(SqlExpr):
    """``[NOT] EXISTS (SELECT ...)``."""

    select: "SelectStatement"
    negated: bool = False

    def __str__(self) -> str:
        return f"{'NOT ' if self.negated else ''}EXISTS (SELECT ...)"


@dataclass
class EInSubquery(SqlExpr):
    """``operand [NOT] IN (SELECT ...)``."""

    operand: SqlExpr
    select: "SelectStatement"
    negated: bool = False

    def __str__(self) -> str:
        return f"({self.operand} {'NOT ' if self.negated else ''}IN (SELECT ...))"


@dataclass
class EWindow(SqlExpr):
    """A window function call: ``func(args) OVER (PARTITION BY ... ORDER BY ...)``.

    ``star`` marks ``COUNT(*) OVER (...)``. The only supported frame is the
    SQL default (RANGE UNBOUNDED PRECEDING .. CURRENT ROW when ordered,
    the whole partition otherwise); explicit frames are rejected at parse
    time.
    """

    func: str
    args: list[SqlExpr]
    star: bool = False
    partition_by: list[SqlExpr] = field(default_factory=list)
    order_by: list[tuple[SqlExpr, bool]] = field(default_factory=list)

    def __str__(self) -> str:
        inner = "*" if self.star else ", ".join(str(a) for a in self.args)
        parts = []
        if self.partition_by:
            parts.append("PARTITION BY " + ", ".join(str(p) for p in self.partition_by))
        if self.order_by:
            parts.append(
                "ORDER BY "
                + ", ".join(f"{e}{' DESC' if d else ''}" for e, d in self.order_by)
            )
        return f"{self.func}({inner}) OVER ({' '.join(parts)})"


# ---------------------------------------------------------------------- #
# Statements
# ---------------------------------------------------------------------- #
@dataclass
class SelectItem:
    expr: SqlExpr
    alias: str | None = None


@dataclass
class TableRef:
    table: str
    alias: str


@dataclass
class JoinClause:
    table: TableRef
    join_type: str  # inner | left
    # Equi-join conditions: pairs of identifier expressions.
    conditions: list[tuple[EIdent, EIdent]] = field(default_factory=list)


@dataclass
class SelectStatement:
    items: list[SelectItem]
    star: bool
    from_table: TableRef | None
    joins: list[JoinClause]
    where: SqlExpr | None
    group_by: list[SqlExpr]
    having: SqlExpr | None
    order_by: list[tuple[SqlExpr, bool]]  # (expr, descending)
    limit: int | None
    distinct: bool
    # WITH clause: (name, select) pairs in declaration order. Non-recursive
    # only; each reference re-binds the definition (inlining).
    ctes: list[tuple[str, "SelectStatement"]] = field(default_factory=list)


@dataclass
class InsertStatement:
    table: str
    columns: list[str] | None
    rows: list[list[SqlExpr]]


@dataclass
class CreateTableStatement:
    table: str
    columns: list[tuple[str, str, list[int], bool]]  # (name, type, params, nullable)
    storage: str | None  # columnstore | rowstore | both


@dataclass
class DropTableStatement:
    table: str


@dataclass
class DeleteStatement:
    table: str
    where: SqlExpr | None


@dataclass
class UpdateStatement:
    table: str
    assignments: list[tuple[str, SqlExpr]]
    where: SqlExpr | None


@dataclass
class BeginStatement:
    """``BEGIN [TRANSACTION | WORK]`` / ``START TRANSACTION``."""


@dataclass
class CommitStatement:
    """``COMMIT [TRANSACTION | WORK]``."""


@dataclass
class RollbackStatement:
    """``ROLLBACK [TRANSACTION | WORK]``."""


@dataclass
class SetStatement:
    """``SET <name> = <int>`` / ``SET <name> TO <int>`` session setting.

    ``value`` is None for ``SET <name> = DEFAULT`` (and OFF / NULL),
    which clears the setting back to the database default. Recognized
    names are validated by the runner, not the parser.
    """

    name: str
    value: int | None


@dataclass
class ShowStatement:
    """``SHOW QUERIES`` (running statements) or ``SHOW <setting>``."""

    name: str


@dataclass
class KillStatement:
    """``KILL <query_id>`` — request termination of a running statement."""

    query_id: int


@dataclass
class ExplainStatement:
    """``EXPLAIN [ANALYZE] SELECT ...`` — plan text, optionally executed
    with runtime stats collection."""

    select: SelectStatement
    analyze: bool = False
