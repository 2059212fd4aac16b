"""Correctness oracles: sqlite3 for reads, a plain-Python model for writes.

A throughput number over wrong answers is not a result, so every
statement a workload times is also checked. Reads are compared with
sqlite3 loaded with the same rows (relative float tolerance 1e-6,
order-insensitive unless the query has ORDER BY); write workloads compare
the final table with :class:`TableModel`, a dict that applied the same
operation list.
"""

from __future__ import annotations

import hashlib
import math
import re
import sqlite3
from functools import cmp_to_key
from typing import Iterable, Sequence

from inputs import Op

_SQLITE_TYPES = {"INT": "INTEGER", "FLOAT": "REAL", "DATE": "TEXT", "VARCHAR": "TEXT"}
_LIMIT = re.compile(r"\s+LIMIT\s+\d+\s*$", re.IGNORECASE)
REL_TOL = 1e-6


def _close(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-9)
    return a == b


def _row_close(got: Sequence, want: Sequence) -> bool:
    return len(got) == len(want) and all(_close(g, w) for g, w in zip(got, want))


def _canonical(row: Sequence) -> tuple:
    """Sort key that puts exact columns first, so float noise cannot
    reorder rows that an exact column already tells apart."""
    exact = tuple(v for v in row if not isinstance(v, float))
    floats = tuple(round(v, 4) for v in row if isinstance(v, float))
    return exact, floats


# Self-test hook (``run.py --inject-wrong-answer``): comparisons are made
# against a corrupted expectation, so the whole failure path — the
# mismatch, the count, ``failed_share`` — is exercised end to end.
_corrupt_expectations = False


def corrupt_expectations() -> None:
    global _corrupt_expectations
    _corrupt_expectations = True


def same_rows(got: Iterable[Sequence], want: Iterable[Sequence]) -> bool:
    """Multiset equality under the float tolerance."""
    if _corrupt_expectations:
        want = [*want, *want] or [()]
    try:
        got = sorted(got, key=_canonical)
        want = sorted(want, key=_canonical)
    except TypeError:  # e.g. a NULL where the oracle has a number
        return False
    return len(got) == len(want) and all(_row_close(g, w) for g, w in zip(got, want))


def _order_cmp(order: Sequence[tuple[int, bool]]):
    def compare(a: Sequence, b: Sequence) -> int:
        for index, descending in order:
            if _close(a[index], b[index]):
                continue
            less = a[index] < b[index]
            return (1 if less else -1) if descending else (-1 if less else 1)
        return 0

    return compare


def check_ordered(
    got: list[Sequence],
    full: list[Sequence],
    order: Sequence[tuple[int, bool]],
    limit: int | None,
) -> bool:
    """Is ``got`` a correct answer given the un-LIMITed oracle rows ``full``?

    Rows tied on the sort key may come back in any order, and a LIMIT may
    keep any of the rows tied at the cut-off; so the check is: right
    length, sorted by the ORDER BY, the same sort keys as the oracle's
    prefix, and every row present in the oracle's full answer.
    """
    expected_len = len(full) if limit is None else min(limit, len(full))
    if len(got) != expected_len:
        return False
    compare = _order_cmp(order)
    if any(compare(a, b) > 0 for a, b in zip(got, got[1:])):
        return False
    prefix = sorted(full, key=cmp_to_key(compare))[:expected_len]
    if any(compare(g, w) != 0 for g, w in zip(got, prefix)):
        return False
    if limit is None:
        return same_rows(got, full)
    by_exact = {_canonical(row)[0]: row for row in full}
    return all(
        _row_close(row, by_exact.get(_canonical(row)[0], ())) for row in got
    )


class SqliteOracle:
    """An in-memory sqlite3 database holding the same rows as the engine."""

    def __init__(self) -> None:
        self.con = sqlite3.connect(":memory:", check_same_thread=False)
        self._cache: dict[str, list[tuple]] = {}

    def load(self, table: str, columns: list[tuple[str, str]], rows: list[tuple],
             key: str | None = None) -> None:
        body = ", ".join(
            f"{name} {_SQLITE_TYPES[sql_type]}" + (" PRIMARY KEY" if name == key else "")
            for name, sql_type in columns
        )
        self.con.execute(f"CREATE TABLE {table} ({body})")
        marks = ", ".join("?" * len(columns))
        date_columns = [i for i, (_n, t) in enumerate(columns) if t == "DATE"]
        if date_columns:
            rows = [
                tuple(str(v) if i in date_columns else v for i, v in enumerate(row))
                for row in rows
            ]
        self.con.executemany(f"INSERT INTO {table} VALUES ({marks})", rows)

    def query(self, sql: str) -> list[tuple]:
        """Rows of ``sql`` with any trailing LIMIT removed."""
        return self.con.execute(_LIMIT.sub("", sql)).fetchall()

    def cached(self, sql: str) -> list[tuple]:
        """``query`` memoized by text — for lists that repeat statements
        over a table that does not change."""
        rows = self._cache.get(sql)
        if rows is None:
            rows = self._cache[sql] = self.query(sql)
        return rows

    def apply(self, op: Op) -> None:
        """Apply one write of an operation list (the engine's SQL text
        is valid sqlite3 as it stands)."""
        self.con.execute(op.sql)

    def close(self) -> None:
        self.con.close()


class TableModel:
    """The ``kv`` table as a dict; replays an operation list's writes."""

    def __init__(self, rows: Iterable[tuple]) -> None:
        self.rows = {row[0]: row for row in rows}

    def apply(self, op: Op) -> None:
        if op.kind == "insert":
            self.rows[op.key] = op.row
        elif op.kind == "update":
            k, grp, _v, price, tag = self.rows[op.key]
            self.rows[op.key] = (k, grp, op.value, price, tag)
        elif op.kind == "delete":
            del self.rows[op.key]

    def summary(self) -> tuple[int, int, str]:
        """``(row count, SUM(v), hash of the key set)``."""
        return (
            len(self.rows),
            sum(row[2] for row in self.rows.values()),
            key_set_hash(self.rows),
        )


def key_set_hash(keys: Iterable[int]) -> str:
    digest = hashlib.sha256()
    for key in sorted(keys):
        digest.update(b"%d," % key)
    return digest.hexdigest()[:16]
