"""SET / SHOW / KILL surface and end-to-end governance behavior."""

import threading
import time

import pytest

from repro import Database, StoreConfig
from repro.concurrency import ConcurrentDatabase
from repro.errors import (
    BindingError,
    QueryCancelledError,
    QueryKilledError,
    QueryTimeoutError,
    ResourceExhaustedError,
    SqlSyntaxError,
)
from repro.governance import get_query_registry

# A self-join with an ORDER BY: slow enough (thousands of output rows
# per input row) that a governance signal lands mid-flight.
SLOW_QUERY = "SELECT t1.a FROM t t1 JOIN t t2 ON t1.b = t2.b ORDER BY t1.a"


@pytest.fixture
def db():
    database = Database()
    database.sql("CREATE TABLE t (a INT, b INT)")
    database.sql(
        "INSERT INTO t VALUES " + ", ".join(f"({i}, {i % 7})" for i in range(2000))
    )
    return database


class TestSettings:
    def test_set_show_roundtrip(self, db):
        db.sql("SET statement_timeout = 5000")
        assert db.sql("SHOW statement_timeout").scalar() == 5000
        assert db.settings["statement_timeout"] == 5000

    def test_set_default_clears(self, db):
        db.sql("SET statement_timeout = 5000")
        db.sql("SET statement_timeout = DEFAULT")
        assert db.sql("SHOW statement_timeout").scalar() == 0

    def test_set_to_syntax(self, db):
        db.sql("SET query_memory_budget TO 1048576")
        assert db.settings["query_memory_budget"] == 1048576

    def test_unknown_setting_rejected(self, db):
        with pytest.raises(BindingError):
            db.sql("SET wibble = 1")
        with pytest.raises(BindingError):
            db.sql("SHOW wibble")

    def test_set_requires_integer(self, db):
        with pytest.raises(SqlSyntaxError):
            db.sql("SET statement_timeout = 'soon'")

    def test_zero_disables(self, db):
        db.sql("SET statement_timeout = 5000")
        db.sql("SET statement_timeout = 0")
        assert db.settings["statement_timeout"] is None


class TestTimeout:
    def test_statement_timeout_fires(self, db):
        db.sql("SET statement_timeout = 1")
        with pytest.raises(QueryTimeoutError):
            db.sql(SLOW_QUERY)
        db.sql("SET statement_timeout = DEFAULT")
        assert len(get_query_registry()) == 0

    def test_timeout_lands_inside_an_encoded_aggregate(self):
        """A blocking aggregate over many row groups emits nothing until
        the end; the scan's per-unit checkpoint is what stops it."""
        database = Database(StoreConfig(rowgroup_size=8, bulk_load_threshold=1))
        database.sql("CREATE TABLE g (s VARCHAR, v INT)")
        database.bulk_load("g", [("xyz"[i % 3], i) for i in range(8000)])
        query = "SELECT s, COUNT(*) AS n, SUM(v) AS total FROM g GROUP BY s"
        assert "encoded=['s']" in "\n".join(r[0] for r in database.sql(f"EXPLAIN {query}").rows)
        database.sql("SET statement_timeout = 1")
        with pytest.raises(QueryTimeoutError):
            database.sql(query)
        database.sql("SET statement_timeout = DEFAULT")
        assert len(get_query_registry()) == 0
        assert len(database.sql(query).rows) == 3

    def test_timeout_lands_between_units_of_a_selective_scan(self):
        """Every unit decodes its predicate column, keeps no row and so
        emits nothing: only the scan's per-unit checkpoint can stop it."""
        database = Database(StoreConfig(rowgroup_size=8, bulk_load_threshold=1))
        database.sql("CREATE TABLE g (k INT, v INT)")
        database.bulk_load("g", [(i, i % 8) for i in range(8000)])
        query = "SELECT k, v FROM g WHERE v * 2 = 15"  # min/max cannot tell
        database.sql("SET statement_timeout = 1")
        with pytest.raises(QueryTimeoutError):
            database.sql(query)
        database.sql("SET statement_timeout = DEFAULT")
        assert len(get_query_registry()) == 0
        result = database.sql(query, stats=True)
        assert result.rows == []
        assert result.stats.counter("storage.scan.units_seen") == 1000
        assert result.stats.counter("storage.scan.units_eliminated") == 0

    def test_control_statements_never_time_out(self, db):
        db.sql("SET statement_timeout = 1")
        db.sql("SHOW statement_timeout")  # ungoverned: must not raise
        db.sql("SET statement_timeout = DEFAULT")

    def test_fast_query_unaffected(self, db):
        db.sql("SET statement_timeout = 10000")
        assert db.sql("SELECT count(*) FROM t").scalar() == 2000
        db.sql("SET statement_timeout = DEFAULT")


class TestKill:
    def test_show_queries_and_kill(self, db):
        outcome = {}

        def worker():
            try:
                db.sql(SLOW_QUERY)
                outcome["state"] = "finished"
            except QueryKilledError:
                outcome["state"] = "killed"

        thread = threading.Thread(target=worker)
        thread.start()
        rows = []
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and not rows:
            rows = db.sql("SHOW QUERIES").rows
        assert rows, "statement never appeared in SHOW QUERIES"
        query_id = rows[0][0]
        assert rows[0][6] == SLOW_QUERY  # sql column
        assert db.sql(f"KILL {query_id}").scalar() == 1
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert outcome["state"] in ("killed", "finished")
        assert len(get_query_registry()) == 0

    def test_kill_unknown_id_returns_zero(self, db):
        assert db.sql("KILL 999999").scalar() == 0


class TestMemorySettings:
    def test_soft_budget_forces_spill(self, db):
        db.sql("SET query_memory_budget = 4096")
        result = db.sql("SELECT a, b FROM t ORDER BY b, a")
        assert len(result.rows) == 2000
        db.sql("SET query_memory_budget = DEFAULT")
        # Degraded to spill, same answer:
        assert result.rows == db.sql("SELECT a, b FROM t ORDER BY b, a").rows

    def test_hard_limit_raises_resource_exhausted(self, db):
        db.sql("SET query_memory_limit = 1024")
        with pytest.raises(ResourceExhaustedError) as err:
            db.sql("SELECT a, b FROM t ORDER BY b, a")
        assert err.value.retryable
        db.sql("SET query_memory_limit = DEFAULT")
        assert len(get_query_registry()) == 0


class TestSessionOverlay:
    @pytest.fixture
    def cdb(self, db):
        concurrent = ConcurrentDatabase(db)
        yield concurrent
        concurrent.close()

    def test_session_overlay_wins(self, cdb, db):
        db.sql("SET statement_timeout = 60000")
        with cdb.session("a") as session:
            session.sql("SET statement_timeout = 1")
            with pytest.raises(QueryTimeoutError):
                session.sql(SLOW_QUERY)
            assert session.sql("SHOW statement_timeout").scalar() == 1
        db.sql("SET statement_timeout = DEFAULT")

    def test_session_zero_overrides_database_default(self, cdb, db):
        db.sql("SET statement_timeout = 1")
        with cdb.session("a") as session:
            session.sql("SET statement_timeout = 0")
            assert session.sql("SELECT count(*) FROM t").scalar() == 2000
        db.sql("SET statement_timeout = DEFAULT")

    def test_overlay_does_not_leak_across_sessions(self, cdb):
        with cdb.session("a") as a, cdb.session("b") as b:
            a.sql("SET statement_timeout = 12345")
            assert b.sql("SHOW statement_timeout").scalar() == 0

    def test_cancel_running_from_other_thread(self, cdb):
        outcome = {}
        with cdb.session("victim") as session:

            def worker():
                try:
                    session.sql(SLOW_QUERY)
                    outcome["state"] = "finished"
                except QueryCancelledError:
                    outcome["state"] = "cancelled"

            thread = threading.Thread(target=worker)
            thread.start()
            deadline = time.monotonic() + 5.0
            cancelled = False
            while time.monotonic() < deadline and not cancelled:
                cancelled = session.cancel_running()
            thread.join(timeout=10.0)
            assert not thread.is_alive()
            if cancelled:
                assert outcome["state"] == "cancelled"
            assert session.cancel_running() is False  # idle again

    def test_timeout_inside_transaction_rolls_back(self, cdb):
        with cdb.session("txn") as session:
            session.sql("BEGIN")
            session.sql("INSERT INTO t VALUES (9001, 0)")
            session.sql("SET statement_timeout = 1")
            with pytest.raises(QueryTimeoutError):
                session.sql(SLOW_QUERY)
            session.sql("SET statement_timeout = DEFAULT")
            # The transaction survives a statement-level failure.
            session.sql("ROLLBACK")
            assert (
                session.sql("SELECT count(*) FROM t WHERE a = 9001").scalar() == 0
            )


class TestPlanApiGovernance:
    def test_execute_registers_and_cleans_up(self, db):
        plan = db.scan_plan("t")
        result = db.execute(plan)
        assert len(result.rows) == 2000
        assert len(get_query_registry()) == 0

    def test_subquery_reuses_outer_context(self, db):
        # The scalar subquery executes through db.execute while the outer
        # statement is governed; it must not create a second context.
        db.sql("SET statement_timeout = 60000")
        value = db.sql("SELECT count(*) FROM t WHERE a < (SELECT max(b) FROM t)")
        assert value.scalar() == 6
        db.sql("SET statement_timeout = DEFAULT")
        assert len(get_query_registry()) == 0
