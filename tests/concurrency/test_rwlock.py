"""ReadWriteLock semantics: sharing, exclusion, preference, token ownership.

The write side is owned by the token the acquirer passes (a session in
the engine; a plain object here), never by a thread.
"""

import threading
import time

import pytest

from repro.concurrency import ReadWriteLock
from repro.errors import ConcurrencyError


def run_in_thread(fn):
    t = threading.Thread(target=fn, daemon=True)
    t.start()
    return t


class TestBasics:
    def test_readers_share(self):
        lock = ReadWriteLock()
        lock.acquire_read()
        acquired = threading.Event()

        def second_reader():
            lock.acquire_read()
            acquired.set()
            lock.release_read()

        run_in_thread(second_reader).join(timeout=2.0)
        assert acquired.is_set()
        lock.release_read()

    def test_writer_excludes_readers(self):
        lock = ReadWriteLock()
        me = object()
        lock.acquire_write(me)
        got_read = threading.Event()
        t = run_in_thread(lambda: (lock.acquire_read(), got_read.set(), lock.release_read()))
        time.sleep(0.05)
        assert not got_read.is_set()
        lock.release_write(me)
        t.join(timeout=2.0)
        assert got_read.is_set()

    def test_reader_excludes_writer(self):
        lock = ReadWriteLock()
        lock.acquire_read()
        got_write = threading.Event()
        other = object()
        t = run_in_thread(
            lambda: (lock.acquire_write(other), got_write.set(), lock.release_write(other))
        )
        time.sleep(0.05)
        assert not got_write.is_set()
        lock.release_read()
        t.join(timeout=2.0)
        assert got_write.is_set()

    def test_write_reentrant_for_the_owning_token(self):
        lock = ReadWriteLock()
        me = object()
        lock.acquire_write(me)
        lock.acquire_write(me)
        lock.release_write(me)
        assert lock.held_by(me)
        lock.release_write(me)
        assert not lock.held_by(me)

    def test_context_managers(self):
        lock = ReadWriteLock()
        with lock.read_locked():
            pass
        with lock.write_locked():
            # The guard's own per-acquire token holds it — nobody else's.
            assert not lock.held_by(object())
            with pytest.raises(ConcurrencyError, match="does not own"):
                lock.release_write(object())
        assert not lock._busy()


class TestWriterPreference:
    def test_new_readers_queue_behind_waiting_writer(self):
        lock = ReadWriteLock()
        lock.acquire_read()

        writer_done = threading.Event()
        late_reader_done = threading.Event()
        order = []

        def writer():
            with lock.write_locked():
                order.append("writer")
            writer_done.set()

        wt = run_in_thread(writer)
        time.sleep(0.05)  # writer is now waiting on our read hold

        def late_reader():
            lock.acquire_read()
            order.append("reader")
            lock.release_read()
            late_reader_done.set()

        rt = run_in_thread(late_reader)
        time.sleep(0.05)
        # The late reader must not have slipped past the waiting writer.
        assert not late_reader_done.is_set()
        lock.release_read()
        wt.join(timeout=2.0)
        rt.join(timeout=2.0)
        assert order == ["writer", "reader"]


class TestMisuse:
    def test_read_while_holding_write_raises(self):
        lock = ReadWriteLock()
        me = object()
        lock.acquire_write(me)
        with pytest.raises(ConcurrencyError, match="self-deadlock"):
            lock.acquire_read(me)
        lock.release_write(me)

    def test_unmatched_read_release_raises(self):
        with pytest.raises(ConcurrencyError):
            ReadWriteLock().release_read()

    def test_write_release_by_non_owner_token_raises(self):
        lock = ReadWriteLock()
        me = object()
        lock.acquire_write(me)
        with pytest.raises(ConcurrencyError, match="does not own"):
            lock.release_write(object())
        lock.release_write(me)

    def test_release_without_a_hold_raises(self):
        with pytest.raises(ConcurrencyError, match="without a hold"):
            ReadWriteLock().release_write(object())

    def test_owner_may_release_from_another_thread(self):
        """Teardown: whoever holds the token releases, whatever thread the
        acquire ran on (closing a session whose thread is gone)."""
        lock = ReadWriteLock()
        me = object()
        lock.acquire_write(me)
        run_in_thread(lambda: lock.release_write(me)).join(timeout=2.0)
        # Fully released: another writer can acquire immediately.
        with lock.write_locked():
            pass

    def test_acquire_timeout_raises_instead_of_hanging(self):
        lock = ReadWriteLock(timeout=0.1)
        holder = object()
        lock.acquire_write(holder)
        error = []

        def blocked():
            try:
                lock.acquire_read()
            except ConcurrencyError as exc:
                error.append(exc)

        run_in_thread(blocked).join(timeout=5.0)
        assert error and "timed out" in str(error[0])
        lock.release_write(holder)


class TestAcquireTimeoutTyping:
    """Lock-wait expiry surfaces as a *typed, retryable* error and the
    wait counters advance — clients can distinguish "back off and retry"
    from a real concurrency bug (satellite of the governance PR)."""

    def test_read_timeout_is_typed_and_retryable(self):
        from repro.errors import LockTimeoutError, RetryableError
        from repro.observability import registry as metrics

        before = metrics.get_registry().counter("concurrency.read_waits")
        lock = ReadWriteLock(timeout=0.1)
        holder = object()
        lock.acquire_write(holder)
        error = []

        def blocked():
            try:
                lock.acquire_read()
            except ConcurrencyError as exc:
                error.append(exc)

        run_in_thread(blocked).join(timeout=5.0)
        lock.release_write(holder)
        assert error
        assert isinstance(error[0], LockTimeoutError)
        assert isinstance(error[0], RetryableError)  # clients may retry
        assert isinstance(error[0], ConcurrencyError)  # old catchers still work
        assert error[0].retryable is True
        after = metrics.get_registry().counter("concurrency.read_waits")
        assert after >= before + 1

    def test_write_timeout_is_typed_and_retryable(self):
        from repro.errors import LockTimeoutError
        from repro.observability import registry as metrics

        before = metrics.get_registry().counter("concurrency.write_waits")
        lock = ReadWriteLock(timeout=0.1)
        lock.acquire_read()
        error = []

        def blocked():
            try:
                lock.acquire_write(object())
            except ConcurrencyError as exc:
                error.append(exc)

        run_in_thread(blocked).join(timeout=5.0)
        lock.release_read()
        assert error
        assert isinstance(error[0], LockTimeoutError)
        assert error[0].retryable is True
        after = metrics.get_registry().counter("concurrency.write_waits")
        assert after >= before + 1

    def test_governed_wait_interrupted_by_deadline(self):
        """A statement blocked on the lock honors its deadline: the wait
        is sliced, so the timeout lands while *waiting*, not after."""
        import time as _time

        from repro.errors import QueryTimeoutError
        from repro.governance import QueryContext, activate

        lock = ReadWriteLock(timeout=30.0)  # lock budget far beyond test
        holder = object()
        lock.acquire_write(holder)
        error = []

        def blocked():
            ctx = QueryContext(1, timeout_ms=200)
            try:
                with activate(ctx):
                    lock.acquire_read()
            except QueryTimeoutError as exc:
                error.append(exc)

        started = _time.monotonic()
        run_in_thread(blocked).join(timeout=10.0)
        elapsed = _time.monotonic() - started
        lock.release_write(holder)
        assert error and isinstance(error[0], QueryTimeoutError)
        assert elapsed < 5.0  # nowhere near the 30s lock budget

    def test_wakeup_reported_as_timeout_is_not_lost(self):
        """``Condition.wait`` reports a notify that lands as the timed wait
        expires as a timeout. The waiter must re-check the lock state
        after *every* wake-up, or it sleeps on until the acquire timeout
        (seen as a 60 s stall when COMMIT met a governed wait's slice
        boundary)."""
        import time as _time

        from repro.governance import QueryContext, activate

        lock = ReadWriteLock(timeout=10.0)
        real_wait = lock._condition.wait
        lock._condition.wait = lambda timeout=None: real_wait(timeout) and False
        holder = object()
        lock.acquire_write(holder)
        admitted = threading.Event()

        def reader():
            with activate(QueryContext(1)):
                lock.acquire_read()
            admitted.set()
            lock.release_read()

        t = run_in_thread(reader)
        _time.sleep(0.05)
        lock.release_write(holder)
        assert admitted.wait(timeout=2.0), "wake-up lost: reader still asleep"
        t.join(timeout=2.0)


def test_token_owned_write_side_under_contention():
    """More writers than cores, a shortened switch interval, and a
    read-modify-write that only exclusion keeps exact."""
    import sys

    lock = ReadWriteLock(timeout=30.0)
    counter = {"n": 0}

    def writer():
        me = object()
        for _ in range(200):
            lock.acquire_write(me)
            try:
                seen = counter["n"]
                time.sleep(0)  # invite a switch inside the critical section
                counter["n"] = seen + 1
            finally:
                lock.release_write(me)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [run_in_thread(writer) for _ in range(8)]
        for t in threads:
            t.join(timeout=30.0)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(previous)
    assert counter["n"] == 8 * 200
    assert not lock._busy() and lock._waiting == 0

