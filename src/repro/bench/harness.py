"""Shared benchmark harness: timing, table rendering, and the one
differential comparator.

The benchmark scripts in ``benchmarks/`` use the timing and table helpers
to produce the paper-style tables EXPERIMENTS.md records. Timing uses a
best-of-N (minimum) policy to damp interpreter noise, and every timed
comparison first checks that the engines agree — a speedup over a wrong
answer is not a result.

The tests check the same way. Every enhancement the paper adds (batch
mode, encoded evaluation and aggregation, bitmap pushdown, segment
elimination, spilling) must leave a statement's answer unchanged, so each
way of running it that a setting selects is an *arm* (:data:`ARMS`,
derived from :data:`repro.settings.SETTINGS`), and :func:`same_answers`
compares every arm's answer with the reference's — and, given one, with
an sqlite3 mirror of the same rows (:func:`oracle_for`); :func:`same_writes`
compares the table a DELETE or UPDATE leaves the same way.
"""

from __future__ import annotations

import datetime
import math
import re
import sqlite3
import struct
import time
from collections import Counter
from contextlib import closing
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Sequence

from ..db.database import Database
from ..settings import SETTINGS
from ..sql.ast import ELiteral
from ..sql.lexer import BIGINT, FLOAT, INT, lex
from ..sql.parser import parse_statement
from ..types import TypeKind


@dataclass
class Timing:
    """Best-of-N wall-clock timing of one callable."""

    seconds: float
    runs: int
    result_rows: int


def time_call(fn: Callable[[], Any], repeat: int = 3) -> Timing:
    """Best-of-``repeat`` timing; returns the timed function's last result size."""
    best = float("inf")
    rows = 0
    for _ in range(max(1, repeat)):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
        try:
            rows = len(result)
        except TypeError:
            rows = 0
    return Timing(seconds=best, runs=repeat, result_rows=rows)


def time_query(db: Database, sql: str, repeat: int = 3, **overrides) -> Timing:
    return time_call(lambda: db.sql(sql, **overrides), repeat=repeat)


def query_stats(db: Database, sql: str, **overrides) -> dict[str, Any]:
    """Run a query with runtime stats collection and return a flat dict.

    The dict is :meth:`repro.observability.ExecutionStats.to_dict` output:
    elapsed/rows/mode at the top level, per-operator actuals under
    ``operators``, and engine counter deltas under ``counters``. Benchmarks
    assert effects (segment elimination, spilling) on these counters rather
    than reaching into operator internals.
    """
    result = db.sql(sql, stats=True, **overrides)
    if result is None or result.stats is None:
        raise AssertionError(f"no stats collected for {sql!r}")
    return result.stats.to_dict()


# ---------------------------------------------------------------------- #
# The differential: arms, answers, one comparator, one sqlite3 mirror
# ---------------------------------------------------------------------- #
REFERENCE: dict[str, Any] = {"mode": "batch"}
ORACLE_DIGITS = 4  # sqlite3 sums in doubles, in its own order

# (statement, arm) pairs checked in this process, by arm name: what the
# test suite reports when it ends.
CHECKED: Counter[str] = Counter()


class Rows(NamedTuple):
    """A statement's answer: its columns, their types and its rows."""

    columns: list[str]
    dtypes: list
    rows: list[tuple]


class Failure(NamedTuple):
    """An arm's answer when it raises: a difference from the reference's
    rows, or, between two binds of one statement, an error both must
    raise alike."""

    error: type
    message: str


def answer(db: Database, sql: str, **settings: Any) -> Rows | Failure | None:
    """``sql``'s :class:`Rows` under ``settings``, a :class:`Failure` when
    it raises, None for a statement without rows."""
    try:
        return _rows(db.sql(sql, **settings))
    except Exception as exc:  # compared, not raised
        return Failure(type(exc), str(exc))


def _rows(result) -> Rows | None:
    return None if result is None else Rows(result.columns, result.dtypes, result.rows)


@dataclass(frozen=True)
class Arm:
    """One way of running a statement that must not change its answer:
    ``settings`` over the reference's. ``digits=None`` compares floats
    by their bits, a number to that many digits; ``ordered`` compares
    rows in order rather than as sorted multisets."""

    name: str
    settings: Mapping[str, Any] = field(default_factory=dict)
    digits: int | None = None
    ordered: bool = False

    def answer(self, db: Database, sql: str) -> Rows | Failure | None:
        return answer(db, sql, **{**REFERENCE, **self.settings})


class _ShapeHit(Arm):
    """The statement filled into the template its literal-moved twin left
    in ``db.shapes``: a hit, which must answer as the fresh bind did. The
    twin runs in a transaction rolled back, so a write's leaves no trace."""

    def answer(self, db: Database, sql: str) -> Rows | Failure | None:
        db.shapes.clear()
        db.begin()
        try:
            answer(db, twin(sql), **REFERENCE)
        finally:
            db.rollback()
        return answer(db, sql, **REFERENCE)


_SWITCHES = [name for name, setting in SETTINGS.items() if setting.kind == "boolean"]
ROW_ENGINE = Arm("mode=row", {"mode": "row"}, digits=6)  # sums in another order
# Spilled partials merge in another order: float sums move in the last bits.
SPILL = Arm("query_memory_budget=1", {"query_memory_budget": 1}, digits=6)
# The row engine first: it shares almost no execution code with batch
# mode, and a property drawing one arm an example draws the first most.
ARMS: tuple[Arm, ...] = (
    ROW_ENGINE,
    *(Arm(f"{name}=off", {name: False}) for name in _SWITCHES),
    Arm("every switch off", dict.fromkeys(_SWITCHES, False)),
    Arm("batch_size=3", {"batch_size": 3}),
    SPILL,
    _ShapeHit("shape hit", ordered=True),
)
# Limits fail a statement instead of changing how it runs: no arm.
EXCLUDED = ("statement_timeout", "query_memory_limit")
# Declarations move where a key is coded, never a row: the join and
# aggregate tests hold the decoded arm to row order as well.
DECODED_IN_ORDER = Arm("enable_encoded_agg=off, in order", {"enable_encoded_agg": False},
                       ordered=True)


def reference_answer(db: Database, sql: str) -> Rows:
    """``sql``'s answer in batch mode from a fresh bind: what every arm is
    compared with. It must run and return rows: its error is raised, not
    compared, so a statement that fails everywhere does not pass."""
    db.shapes.clear()
    reference = _rows(db.sql(sql, **REFERENCE))
    if reference is None:
        raise AssertionError(f"mode=batch returned no rows for {sql!r}")
    return reference


def same_answers(
    db: Database, sql: str, arms: Iterable[Arm] = ARMS, oracle: sqlite3.Connection | None = None,
    reference: Rows | None = None,
) -> list[str]:
    """Check ``sql`` under each of ``arms`` against the reference
    (:func:`reference_answer`, or ``reference`` when the caller kept it
    for several calls), then the reference against ``oracle`` to
    :data:`ORACLE_DIGITS` digits unless sqlite3 cannot run it. Returns the
    names of the arms checked ("sqlite3" last when the oracle was) and
    counts them in :data:`CHECKED`; the first difference raises
    AssertionError."""
    if reference is None:
        reference = reference_answer(db, sql)
    in_order = order_by_columns(sql, reference.columns)
    checked = []
    for arm in arms:
        got = arm.answer(db, sql)
        label = f"{arm.name} differs from mode=batch on {sql!r}"
        if not isinstance(got, Rows) or got[:2] != reference[:2]:
            raise AssertionError(f"{label}\n  reference: {_brief(reference)}\n  arm: {_brief(got)}")
        same_rows(got.rows, reference.rows, arm.digits, label, arm.ordered, in_order)
        checked.append(arm.name)
    if oracle is not None:
        try:
            theirs = oracle.execute(sql).fetchall()
        except sqlite3.Error:  # outside sqlite's dialect: nothing to compare with
            theirs = None
        if theirs is not None:
            same_rows(reference.rows, theirs, ORACLE_DIGITS, f"sqlite3 differs on {sql!r}")
            checked.append("sqlite3")
    CHECKED.update(checked)
    return checked


def same_writes(
    make: Callable[[], Database], sql: str, table: str = "t", arms: Iterable[Arm] = ARMS,
    oracle: bool = True,
) -> list[str]:
    """:func:`same_answers` for the DELETE or UPDATE ``sql``: each arm
    applies it to a fresh copy of ``make()``'s tables, and must affect
    the rows batch mode does and leave ``table`` as it does (a multiset,
    floats by their bits); with ``oracle``, batch mode's ``table`` must
    be what sqlite3 leaves applying ``sql`` to a mirror of the rows before."""

    def applied(arm: Arm, db: Database):
        return arm.answer(db, sql), _rows(db.sql(f"SELECT * FROM {table}", **REFERENCE))

    db = make()
    mirror = oracle_for(db) if oracle else None
    count, after = applied(Arm("mode=batch"), db)
    if not isinstance(count, Rows):  # batch mode must apply it
        raise AssertionError(f"mode=batch failed on {sql!r}: {count}")
    checked = []
    for arm in arms:
        got, then = applied(arm, make())
        label = f"{arm.name} differs from mode=batch on {sql!r}"
        if got != count:
            raise AssertionError(f"{label}\n  reference: {count}\n  arm: {got}")
        same_rows(then.rows, after.rows, None, label)
        checked.append(arm.name)
    if mirror is not None:
        with closing(mirror):
            mirror.execute(sql)
            theirs = mirror.execute(f"SELECT * FROM {table}").fetchall()
        same_rows(after.rows, theirs, ORACLE_DIGITS, f"sqlite3 differs on {sql!r}")
        checked.append("sqlite3")
    CHECKED.update(checked)
    return checked


def _brief(answer: Rows | Failure | None) -> Any:
    if isinstance(answer, Rows):
        return f"{answer.columns} {answer.dtypes}, {len(answer.rows)} rows"
    return answer


def order_by_columns(sql: str, columns: list[str]) -> list[int]:
    """The positions in ``columns`` of ``sql``'s ORDER BY keys, which name
    an output column or its position (the binder allows nothing else)."""
    statement = parse_statement(sql)
    keys = []
    for expr, _ in getattr(statement, "order_by", []):
        if isinstance(expr, ELiteral):
            keys.append(expr.value - 1)
        else:
            keys.append([c.lower() for c in columns].index(expr.name.lower()))
    return keys


def same_rows(got, want, digits: int | None = None, label: str = "rows differ",
              ordered: bool = False, in_order: Sequence[int] = ()) -> None:
    """Assert two lists of rows are equal as sorted multisets (in order
    with ``ordered``), and the columns at ``in_order`` (a statement's
    ORDER BY keys) in order: floats by their bits when ``digits`` is None,
    otherwise numbers by value to ``digits`` digits, booleans as 0 / 1 and
    dates as ISO text, the way sqlite3 spells them."""
    cell = _bits if digits is None else lambda value: _rounded(value, digits)
    mine = [tuple(map(cell, row)) for row in got]
    theirs = [tuple(map(cell, row)) for row in want]
    if in_order:
        _same_list([tuple(row[i] for i in in_order) for row in mine],
                   [tuple(row[i] for i in in_order) for row in theirs], f"{label} (ORDER BY keys)")
    if not ordered:
        mine.sort()
        theirs.sort()
    _same_list(mine, theirs, label)


def _same_list(mine: list, theirs: list, label: str) -> None:
    if mine != theirs:
        first = next((i for i, pair in enumerate(zip(mine, theirs)) if pair[0] != pair[1]),
                     min(len(mine), len(theirs)))
        raise AssertionError(
            f"{label}: {len(mine)} rows against {len(theirs)}, first difference at {first}:\n"
            f"  got:  {mine[first:first + 1]}\n  want: {theirs[first:first + 1]}"
        )


def _bits(value: Any) -> tuple[str, Any]:
    """A cell compared exactly: its type, and its value (a float's bits:
    -0.0 is not 0.0, and a NaN is its payload)."""
    return type(value).__name__, struct.pack("<d", value) if isinstance(value, float) else value


def _rounded(value: Any, digits: int) -> tuple[str, Any]:
    if isinstance(value, float) and math.isfinite(value):
        return "number", round(value, digits)
    if isinstance(value, int):  # bool included
        return "number", int(value)
    if isinstance(value, datetime.date):
        return "str", value.isoformat()
    return _bits(value)


_SQLITE_TYPES = {
    TypeKind.INT: "INTEGER",
    TypeKind.BIGINT: "INTEGER",
    TypeKind.BOOL: "INTEGER",
    TypeKind.FLOAT: "REAL",
    TypeKind.DECIMAL: "REAL",
    TypeKind.VARCHAR: "TEXT",
    TypeKind.DATE: "TEXT",  # ISO-8601 text compares like dates
}


def oracle_for(db: Database) -> sqlite3.Connection:
    """An in-memory sqlite3 database holding ``db``'s tables, declared
    from its catalog and filled with its own rows, with the engine's
    ``year`` / ``month`` / ``day`` over ISO date text. The caller closes it."""
    conn = sqlite3.connect(":memory:")
    for name, part in (("year", slice(0, 4)), ("month", slice(5, 7)), ("day", slice(8, 10))):
        conn.create_function(name, 1, lambda s, part=part: None if s is None else int(s[part]))
    for table in db.catalog.table_names():
        columns = db.catalog.table(table).schema.columns
        declared = ", ".join(f"{c.name} {_SQLITE_TYPES[c.dtype.kind]}" for c in columns)
        conn.execute(f"CREATE TABLE {table} ({declared})")
        rows = db.sql(f"SELECT * FROM {table}", **REFERENCE).rows
        conn.executemany(
            f"INSERT INTO {table} VALUES ({', '.join('?' * len(columns))})",
            [tuple(v.isoformat() if isinstance(v, datetime.date) else v for v in row)
             for row in rows],
        )
    conn.commit()
    return conn


_STRING_LITERAL = re.compile(r"'[^']*(?:''[^']*)*'")


def twin(sql: str) -> str:
    """``sql`` with every literal moved within its class — an INT stays
    an INT, a date string a date — so it has ``sql``'s shape."""
    lexed = lex(sql)
    classes = [part for part in lexed.shape if part.startswith("#")]
    for token, cls in reversed(list(zip(lexed.literals, classes))):
        text = _moved(token.value, cls)
        if text is not None:
            start = token.position
            end = (_STRING_LITERAL.match(sql, start).end() if token.kind == "string"
                   else start + len(token.text))
            sql = sql[:start] + text + sql[end:]
    return sql


def _moved(value: Any, cls: str) -> str | None:
    """Another literal of ``value``'s class as SQL text (None: keep it)."""
    if cls == INT:
        return str(value + 1 if value + 1 < 2**31 else value - 1)
    if cls == BIGINT:
        return str(value + 1 if value < 2**63 - 1 else value - 1)
    if cls == FLOAT:
        return repr(value * 1.5 + 0.25) if math.isfinite(value * 1.5) else None
    try:  # a date moves by a day and stays a date
        moved = (datetime.date.fromisoformat(value) + datetime.timedelta(days=1)).isoformat()
    except ValueError:
        moved = value + "x"
    return "'" + moved.replace("'", "''") + "'"


@dataclass
class ReportTable:
    """A fixed-column report table printed like the paper's tables."""

    title: str
    headers: list[str]
    rows: list[list[Any]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, *values: Any) -> None:
        if len(values) != len(self.headers):
            raise ValueError(
                f"row has {len(values)} cells for {len(self.headers)} headers"
            )
        self.rows.append(list(values))

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def render(self) -> str:
        cells = [[_fmt(v) for v in row] for row in self.rows]
        widths = [len(h) for h in self.headers]
        for row in cells:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = [self.title, "=" * len(self.title)]
        lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(self.headers)))
        lines.append("  ".join("-" * w for w in widths))
        for row in cells:
            lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value >= 100:
            return f"{value:,.0f}"
        if value >= 1:
            return f"{value:,.2f}"
        return f"{value:.4f}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


def fmt_bytes(n: int) -> str:
    """Human-readable byte count."""
    units = ["B", "KiB", "MiB", "GiB"]
    value = float(n)
    for unit in units:
        if value < 1024 or unit == units[-1]:
            return f"{value:,.1f} {unit}"
        value /= 1024
    return f"{value:,.1f} GiB"
