"""Four front doors, one statement pipeline: same script, same transcript.

One fixed statement list runs through ``Database.sql``, ``Session.sql``,
``ConcurrentDatabase.sql`` and ``ServerClient.sql`` on identical data.
Per statement the doors must agree on columns and rows (or
``rows_affected``), on the error's class / retryability, and on whether
the statement was governed (took a query id); over the whole script on
the ``governance.*`` counter deltas and the final table contents. After
every failing statement nothing may be left held: no lock side, latch,
reader lease or registry entry.
"""

from __future__ import annotations

import json
import re

import pytest

from repro.bench.tpch_tiny import build_tpch_tiny
from repro.concurrency import ConcurrentDatabase
from repro.errors import ReproError
from repro.governance import get_query_registry
from repro.observability import registry as metrics
from repro.server import ReproServer, ServerClient
from repro.server.server import ServerError

from ..sql_battery.battery_lib import load_statements

# Every sixth battery statement: all nine feature files are sampled.
BATTERY = [s.sql for s in load_statements()][::6]

SLOW = "SELECT s1.a FROM slow s1 JOIN slow s2 ON s1.b = s2.b ORDER BY s1.a"

SCRIPT = [
    *BATTERY,
    "CREATE TABLE fd (k INT NOT NULL, v INT, tag VARCHAR(8))",
    "CREATE TABLE fr (k INT NOT NULL, v INT) USING rowstore",
    "CREATE TABLE slow (a INT, b INT)",
    "INSERT INTO slow VALUES " + ", ".join(f"({i}, {i % 7})" for i in range(2000)),
    "INSERT INTO fd VALUES (1, 10, 'a'), (2, 20, 'b'), (3, 30, 'c'), (4, 40, 'd')",
    "INSERT INTO fr VALUES (1, 1), (2, 2)",
    "UPDATE fd SET v = v + 1 WHERE k >= 3",
    "DELETE FROM fd WHERE k = 2",
    "SELECT k, v FROM fr WHERE k = 2",  # row-store leaf: the shared side
    "BEGIN",
    "INSERT INTO fd VALUES (5, 50, 'e')",
    "UPDATE fr SET v = 9 WHERE k = 1",
    "SELECT COUNT(*) AS n FROM fd",  # read-your-writes inside the txn
    "COMMIT",
    "BEGIN",
    "DELETE FROM fd",
    "SELECT COUNT(*) AS n FROM fd",
    "ROLLBACK",
    "COMMIT",  # error: nothing open
    "SET query_memory_budget = 4096",
    "SHOW query_memory_budget",
    "SELECT a, b FROM slow ORDER BY b, a",  # spills under the budget
    "SET query_memory_budget = DEFAULT",
    "SHOW query_memory_budget",
    "SHOW QUERIES",
    "KILL 999999999",
    "EXPLAIN SELECT tag, SUM(v) AS s FROM fd GROUP BY tag",
    "EXPLAIN ANALYZE SELECT tag, SUM(v) AS s FROM fd WHERE k > 1 GROUP BY tag",
    "SELECT nope FROM fd",  # binder error
    "SELEC 1",  # parser error
    "INSERT INTO fd VALUES (NULL, 1, 'x')",  # constraint violation
    "INSERT INTO nowhere VALUES (1)",
    "SET statement_timeout = 1",
    SLOW,  # statement_timeout expiry
    "SET statement_timeout = DEFAULT",
    "SELECT COUNT(*) AS n FROM slow",
    "SELECT k, v, tag FROM fd ORDER BY k",
]

GOVERNANCE_COUNTERS = (
    "governance.statements_timed_out",
    "governance.statements_cancelled",
    "governance.statements_killed",
    "governance.statements_shed",
    "governance.spills_forced",
    "governance.budget_rejections",
)

_TIMINGS = re.compile(r"\d+(\.\d+)?\s*ms|time=\S+")


def _plain(rows):
    """Rows as the wire carries them, measured times masked out."""
    rows = json.loads(json.dumps([list(row) for row in rows], default=str))
    return [
        [_TIMINGS.sub("<t>", v) if isinstance(v, str) else v for v in row]
        for row in rows
    ]


class Door:
    """One way in to a fresh copy of the data, plus what to inspect for
    leaks behind it."""

    def __init__(self, kind: str) -> None:
        self.db = build_tpch_tiny()
        self.cdb = self.server = self.client = self.session = None
        if kind == "database":
            self._sql = self.db.sql
            return
        self.cdb = ConcurrentDatabase(self.db)
        if kind == "session":
            self.session = self.cdb.session("door")
            self._sql = self.session.sql
        elif kind == "concurrent":
            self._sql = self.cdb.sql
        else:
            self.server = ReproServer(self.cdb)
            self.client = ServerClient("127.0.0.1", self.server.start(), retries=0)
            self._sql = self.client.sql

    def run(self, sql: str):
        """``("ok", columns, rows)`` or ``("error", class, retryable)``."""
        try:
            result = self._sql(sql)
        except ServerError as exc:
            return ("error", exc.kind, exc.retryable)
        except ReproError as exc:
            return ("error", type(exc).__name__, bool(exc.retryable))
        if isinstance(result, dict):  # the server's payload
            columns, rows = result["columns"], result["rows"]
        elif result is None:
            columns = rows = None
        else:
            columns, rows = list(result.columns), result.rows
        return ("ok", columns, None if rows is None else _plain(rows))

    def assert_nothing_held(self, sql: str) -> None:
        assert len(get_query_registry()) == 0, f"registry entry left by {sql!r}"
        assert len(self.db.mvcc.readers) == 0, f"reader lease left by {sql!r}"
        if self.cdb is None:
            return
        lock = self.cdb.lock
        in_txn = self.db.in_transaction
        assert lock._readers == 0, f"shared side left held by {sql!r}"
        assert lock._busy() == in_txn, f"write lock wrong after {sql!r}"
        for latch in self.cdb.latches._latches.values():
            assert not latch._busy(), f"latch {latch.name} left held by {sql!r}"

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
        if self.server is not None:
            self.server.shutdown()
        if self.cdb is not None:
            self.cdb.close()


def transcript(kind: str) -> dict:
    door = Door(kind)
    try:
        registry = get_query_registry()
        before = metrics.get_registry().snapshot()
        steps = []
        for sql in SCRIPT:
            ids_before = registry._next_id
            outcome = door.run(sql)
            governed = registry._next_id - ids_before
            if outcome[0] == "error":
                door.assert_nothing_held(sql)
            steps.append((sql, outcome, governed))
        after = metrics.get_registry().snapshot()
        door.assert_nothing_held("<end of script>")
        final = {
            table: door.db.sql(f"SELECT * FROM {table} ORDER BY k").rows
            for table in ("fd", "fr")
        }
        return {
            "steps": steps,
            "governance": {
                name: after.get(name, 0) - before.get(name, 0)
                for name in GOVERNANCE_COUNTERS
            },
            "final": final,
        }
    finally:
        door.close()


@pytest.fixture(scope="module")
def reference():
    """The single-caller door's transcript; sanity-checked once here so
    "all four agree" cannot mean "all four are wrong the same way"."""
    result = transcript("database")
    outcomes = {sql: outcome for sql, outcome, _ in result["steps"]}
    governed = {sql: n for sql, _, n in result["steps"]}
    assert outcomes["SELECT nope FROM fd"] == ("error", "BindingError", False)
    assert outcomes["SELEC 1"][:2] == ("error", "SqlSyntaxError")
    assert outcomes["INSERT INTO fd VALUES (NULL, 1, 'x')"][1] == "ConstraintError"
    assert outcomes[SLOW] == ("error", "QueryTimeoutError", False)
    assert outcomes["KILL 999999999"] == ("ok", ["killed"], [[0]])
    assert outcomes["SHOW QUERIES"][2] == []
    assert outcomes["UPDATE fd SET v = v + 1 WHERE k >= 3"][2] == [[2]]
    assert result["governance"]["governance.statements_timed_out"] == 1
    assert result["governance"]["governance.spills_forced"] >= 1
    # Reads, DML and DDL are governed; control statements never are.
    assert governed["SELECT k, v FROM fr WHERE k = 2"] == 1
    assert governed["DELETE FROM fd WHERE k = 2"] == 1
    assert governed["CREATE TABLE slow (a INT, b INT)"] == 1
    for control in ("BEGIN", "COMMIT", "ROLLBACK", "SHOW QUERIES", "KILL 999999999",
                    "SET statement_timeout = 1", "SHOW query_memory_budget"):
        assert governed[control] == 0, control
    assert result["final"]["fd"] == [
        (1, 10, "a"), (3, 31, "c"), (4, 41, "d"), (5, 50, "e")
    ]
    assert result["final"]["fr"] == [(1, 9), (2, 2)]
    return result


@pytest.mark.parametrize("kind", ["session", "concurrent", "server"])
def test_door_matches_database_sql(kind, reference):
    got = transcript(kind)
    for (sql, want, want_governed), (_, outcome, governed) in zip(
        reference["steps"], got["steps"]
    ):
        assert outcome == want, f"{kind}: {sql!r}"
        assert governed == want_governed, f"{kind}: governed differs for {sql!r}"
    assert got["governance"] == reference["governance"]
    assert got["final"] == reference["final"]
