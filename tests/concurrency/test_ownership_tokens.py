"""Ownership is a token held by the acquirer, never a thread ident.

Regressions for the three ways a recyclable ``threading.get_ident()``
used to leak ownership: a dead holder's ident handing the write lock or
a table latch to an unrelated later thread, implicit sessions keyed (and
named) by ident, and a transaction chained to the thread that ran BEGIN.
"""

import threading
import time

import pytest

from repro.concurrency import ConcurrentDatabase, ReadWriteLock, TableWriteLatch

IDENT_REUSE_ATTEMPTS = 200


def _run(fn):
    thread = threading.Thread(target=fn, daemon=True)
    thread.start()
    thread.join(timeout=5.0)
    assert not thread.is_alive()


@pytest.mark.parametrize(
    "make", [lambda: TableWriteLatch("t"), ReadWriteLock], ids=["latch", "write-lock"]
)
def test_dead_holders_ident_inherits_nothing(make):
    """A holder thread that exits without releasing must not hand its hold
    to whichever later thread the OS gives the same ident."""
    lock = make()
    holder = object()
    dead = []
    _run(lambda: (lock.acquire(holder), dead.append(threading.get_ident())))

    # Start-join-start until the dead holder's ident comes round again
    # (CPython on Linux reuses it at once); that thread — or the last
    # one tried — then asks for the hold under its own token.
    admitted = threading.Event()
    newcomer = None
    reused = False
    for attempt in range(IDENT_REUSE_ATTEMPTS):
        last = attempt == IDENT_REUSE_ATTEMPTS - 1
        decided = threading.Event()

        def candidate():
            nonlocal reused
            reused = threading.get_ident() == dead[0]
            chosen = reused or last
            decided.set()
            if chosen:
                token = object()
                lock.acquire(token)
                admitted.set()
                lock.release(token)

        thread = threading.Thread(target=candidate, daemon=True)
        thread.start()
        assert decided.wait(timeout=5.0)
        if reused or last:
            newcomer = thread
            break
        thread.join(timeout=5.0)
    assert newcomer is not None
    time.sleep(0.1)
    assert not admitted.is_set(), (
        f"a newcomer (ident reused: {reused}) was admitted to a hold its "
        "dead predecessor never released"
    )
    lock.release(holder)  # teardown by whoever has the token
    newcomer.join(timeout=5.0)
    assert admitted.is_set()


@pytest.fixture
def cdb():
    with ConcurrentDatabase() as cdb:
        cdb.sql("CREATE TABLE t (a INT NOT NULL)")
        yield cdb


def test_implicit_sessions_do_not_leak_or_collide(cdb):
    """50 short-lived threads calling ``cdb.sql`` one after another: each
    gets a session, none collides on a recycled ident, none outlives its
    thread by more than one call."""
    errors = []

    def insert(i):
        try:
            cdb.sql(f"INSERT INTO t VALUES ({i})")
        except Exception as exc:
            errors.append(exc)

    most = 0
    for i in range(50):
        _run(lambda: insert(i))
        most = max(most, len(cdb.session_names))
    assert errors == []
    assert most <= 2, cdb.session_names  # this test's thread + the last worker
    assert not any(name.startswith("thread-") for name in cdb.session_names)
    assert cdb.sql("SELECT COUNT(*) AS n FROM t").scalar() == 50


def test_thread_dying_mid_transaction_is_rolled_back(cdb):
    """An implicit session whose thread exits inside BEGIN is closed (rolled
    back, write lock released) by the next ``cdb.sql`` from anyone."""
    _run(lambda: (cdb.sql("BEGIN"), cdb.sql("INSERT INTO t VALUES (1)")))
    assert cdb.sql("SELECT COUNT(*) AS n FROM t").scalar() == 0
    assert cdb.sql("INSERT INTO t VALUES (2)").scalar() == 1
    assert not cdb.db.in_transaction


def test_transaction_driven_from_two_threads(cdb):
    """BEGIN on one thread, DML here, COMMIT on another: the session owns
    the transaction and the write lock, not the thread that opened it."""
    with cdb.session("shared") as session:
        _run(lambda: session.sql("BEGIN"))
        assert session.in_transaction
        session.sql("INSERT INTO t VALUES (1), (2)")
        with cdb.session("other") as other:  # still excluded by the txn
            assert other.sql("SELECT COUNT(*) AS n FROM t").scalar() == 0
        _run(lambda: session.sql("COMMIT"))
        assert not session.in_transaction
        assert not cdb.lock.held_by(session)
    assert cdb.sql("SELECT COUNT(*) AS n FROM t").scalar() == 2
