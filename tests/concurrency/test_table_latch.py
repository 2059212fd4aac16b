"""TableWriteLatch semantics: per-table exclusion, governed waits, KILL.

Mirrors test_rwlock.py (one OwnedLock implementation serves both): the
latch is owned by the acquirer's token, never a thread, and must honor the same typed-retryable
timeout contract and the same governance interruption guarantees as the
database RW lock (the PR 7 contract), and a latch wait that dies must
never leave the latch held.
"""

import threading
import time

import pytest

from repro import Database, StoreConfig, schema, types
from repro.concurrency import ConcurrentDatabase, TableLatches, TableWriteLatch
from repro.errors import (
    ConcurrencyError,
    LockTimeoutError,
    QueryKilledError,
    QueryTimeoutError,
    RetryableError,
)
from repro.governance import QueryContext, activate
from repro.observability import registry as metrics


def run_in_thread(fn):
    t = threading.Thread(target=fn, daemon=True)
    t.start()
    return t


class TestBasics:
    def test_excludes_other_owners(self):
        latch = TableWriteLatch("t")
        me, other = object(), object()
        latch.acquire(me)
        got = threading.Event()
        t = run_in_thread(
            lambda: (latch.acquire(other), got.set(), latch.release(other))
        )
        time.sleep(0.05)
        assert not got.is_set()
        latch.release(me)
        t.join(timeout=2.0)
        assert got.is_set()

    def test_reentrant_for_the_owning_token(self):
        latch = TableWriteLatch("t")
        me = object()
        latch.acquire(me)
        latch.acquire(me)
        latch.release(me)
        assert latch.held_by(me)
        latch.release(me)
        assert not latch.held_by(me)

    def test_locked_guard(self):
        latch = TableWriteLatch("t")
        with latch.locked():
            assert latch._busy()
        assert not latch._busy()

    def test_registry_is_per_table_and_case_normalized(self):
        latches = TableLatches()
        assert latches.latch("Orders") is latches.latch("orders")
        assert latches.latch("orders") is not latches.latch("lineitem")

    def test_disjoint_tables_do_not_block_each_other(self):
        latches = TableLatches()
        me = object()
        latches.latch("a").acquire(me)
        got = threading.Event()

        def other_table():
            with latches.latch("b").locked():
                got.set()

        run_in_thread(other_table).join(timeout=2.0)
        assert got.is_set()
        latches.latch("a").release(me)


class TestMisuse:
    def test_release_without_hold_raises(self):
        latch = TableWriteLatch("t")
        with pytest.raises(ConcurrencyError, match="without a hold"):
            latch.release(object())

    def test_release_by_non_owner_raises(self):
        """Only the owning token releases — stated with tokens, so the
        outcome cannot depend on which thread ident the OS hands out."""
        latch = TableWriteLatch("t")
        owner = object()
        run_in_thread(lambda: latch.acquire(owner)).join(timeout=2.0)
        with pytest.raises(ConcurrencyError, match="does not own"):
            latch.release(object())
        latch.release(owner)  # the owner's token works from any thread

    def test_forced_release_unblocks_waiters(self):
        """A holder whose thread is gone is released by whoever holds its
        token (session close / teardown), and the waiter gets the latch."""
        latch = TableWriteLatch("t")
        owner, waiter = object(), object()
        run_in_thread(lambda: latch.acquire(owner)).join(timeout=2.0)
        got = threading.Event()
        t = run_in_thread(
            lambda: (latch.acquire(waiter), got.set(), latch.release(waiter))
        )
        time.sleep(0.05)
        assert not got.is_set()
        latch.release(owner)
        t.join(timeout=2.0)
        assert got.is_set()


class TestTimeoutTyping:
    """Same contract as TestAcquireTimeoutTyping for the RW lock."""

    def test_wait_timeout_is_typed_and_retryable(self):
        before = metrics.get_registry().counter("concurrency.latch_waits")
        latch = TableWriteLatch("orders", timeout=0.1)
        holder = object()
        latch.acquire(holder)
        error = []

        def blocked():
            try:
                latch.acquire(object())
            except ConcurrencyError as exc:
                error.append(exc)

        run_in_thread(blocked).join(timeout=5.0)
        latch.release(holder)
        assert error
        assert isinstance(error[0], LockTimeoutError)
        assert isinstance(error[0], RetryableError)  # clients may retry
        assert error[0].retryable is True
        assert "orders" in str(error[0])  # names the table it waited on
        assert metrics.get_registry().counter("concurrency.latch_waits") >= before + 1

    def test_governed_wait_interrupted_by_deadline(self):
        latch = TableWriteLatch("t", timeout=30.0)  # budget far beyond test
        holder = object()
        latch.acquire(holder)
        error = []

        def blocked():
            ctx = QueryContext(1, timeout_ms=200)
            try:
                with activate(ctx):
                    latch.acquire(object())
            except QueryTimeoutError as exc:
                error.append(exc)

        started = time.monotonic()
        run_in_thread(blocked).join(timeout=10.0)
        elapsed = time.monotonic() - started
        latch.release(holder)
        assert error and isinstance(error[0], QueryTimeoutError)
        assert elapsed < 5.0  # nowhere near the 30s latch budget

    def test_governed_wait_interrupted_by_kill(self):
        """KILL lands while the statement *waits* on the latch, raises the
        typed retryable error, and leaves the latch cleanly releasable."""
        latch = TableWriteLatch("t", timeout=30.0)
        holder = object()
        latch.acquire(holder)
        ctx = QueryContext(7)
        error = []
        waiting = threading.Event()

        def blocked():
            try:
                with activate(ctx):
                    waiting.set()
                    latch.acquire(object())
            except QueryKilledError as exc:
                error.append(exc)

        t = run_in_thread(blocked)
        waiting.wait(timeout=2.0)
        time.sleep(0.05)
        ctx.cancel(reason="killed")
        t.join(timeout=10.0)
        assert error and isinstance(error[0], QueryKilledError)
        assert error[0].retryable is True
        latch.release(holder)
        # The dead waiter left no state behind: a fresh acquire succeeds.
        with latch.locked():
            pass


class TestSessionKillDuringLatchWait:
    """End to end: a session's DML blocked on a busy table latch is
    interruptible by KILL / statement_timeout, surfaces the typed error,
    and releases both the latch path and the shared lock side."""

    @pytest.fixture
    def cdb(self):
        db = Database(StoreConfig(rowgroup_size=64, bulk_load_threshold=40))
        db.create_table("t", schema(("id", types.INT, False), ("v", types.INT)))
        with ConcurrentDatabase(db) as cdb:
            yield cdb

    def _block_latch(self, cdb, table="t"):
        """Hold ``table``'s latch from a helper thread until released."""
        release = threading.Event()
        held = threading.Event()

        def holder():
            with cdb.latches.latch(table).locked():
                held.set()
                release.wait(timeout=30.0)

        t = run_in_thread(holder)
        assert held.wait(timeout=2.0)
        return release, t

    def test_kill_interrupts_insert_waiting_on_latch(self, cdb):
        from repro.governance import get_query_registry

        release, holder = self._block_latch(cdb)
        session = cdb.session("victim")
        error = []

        def blocked_insert():
            try:
                session.sql("INSERT INTO t VALUES (1, 1)")
            except QueryKilledError as exc:
                error.append(exc)

        t = run_in_thread(blocked_insert)
        # Wait until the victim statement is registered, then KILL it.
        registry = get_query_registry()
        for _ in range(100):
            running = [c for c in registry.list_running() if c.session == "victim"]
            if running:
                break
            time.sleep(0.01)
        assert running, "victim statement never registered"
        assert registry.kill(running[0].query_id)
        t.join(timeout=10.0)
        assert error and isinstance(error[0], QueryKilledError)
        assert error[0].retryable is True
        release.set()
        holder.join(timeout=5.0)
        # Clean release: the same session can write normally afterwards.
        assert session.sql("INSERT INTO t VALUES (2, 2)").scalar() == 1
        assert session.sql("SELECT COUNT(*) AS n FROM t").scalar() == 1
        session.close()

    def test_statement_timeout_interrupts_latch_wait(self, cdb):
        release, holder = self._block_latch(cdb)
        session = cdb.session("victim")
        session.sql("SET statement_timeout = 200")
        started = time.monotonic()
        with pytest.raises(QueryTimeoutError):
            session.sql("INSERT INTO t VALUES (1, 1)")
        assert time.monotonic() - started < 5.0
        release.set()
        holder.join(timeout=5.0)
        session.sql("SET statement_timeout = DEFAULT")
        assert session.sql("INSERT INTO t VALUES (2, 2)").scalar() == 1
        session.close()

    def test_latch_wait_does_not_block_disjoint_table_writer(self, cdb):
        cdb.db.create_table(
            "u", schema(("id", types.INT, False), ("v", types.INT))
        )
        release, holder = self._block_latch(cdb, table="t")
        with cdb.session("other") as other:
            # t's latch is busy, but u's writer proceeds immediately.
            assert other.sql("INSERT INTO u VALUES (1, 1)").scalar() == 1
        release.set()
        holder.join(timeout=5.0)
