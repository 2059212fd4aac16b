"""QueryContext / MemoryGovernor / QueryRegistry unit behavior."""

import threading

import pytest

from repro.errors import (
    QueryCancelledError,
    QueryKilledError,
    QueryTimeoutError,
    ResourceExhaustedError,
    RetryableError,
)
from repro.governance import (
    RESERVE_OK,
    RESERVE_SPILL,
    MemoryGovernor,
    QueryContext,
    QueryRegistry,
    activate,
    current,
    get_memory_governor,
    governed,
    set_query_registry,
)


@pytest.fixture
def registry():
    """A fresh registry installed for the test, restored afterwards."""
    fresh = QueryRegistry()
    previous = set_query_registry(fresh)
    yield fresh
    set_query_registry(previous)


class TestDeadline:
    def test_check_passes_without_deadline(self):
        ctx = QueryContext(1)
        for _ in range(10):
            ctx.check()
        assert ctx.checks == 10

    def test_expired_deadline_raises_timeout(self):
        ctx = QueryContext(1, timeout_ms=1)
        ctx.deadline = 0.0  # force the past
        with pytest.raises(QueryTimeoutError) as err:
            ctx.check()
        assert err.value.query_id == 1
        assert not err.value.retryable  # same statement would time out again

    def test_zero_timeout_means_disabled(self):
        assert QueryContext(1, timeout_ms=0).deadline is None
        assert QueryContext(1, timeout_ms=None).deadline is None


class TestCancel:
    def test_cancel_raises_cancelled(self):
        ctx = QueryContext(2)
        ctx.cancel()
        with pytest.raises(QueryCancelledError) as err:
            ctx.check()
        assert err.value.retryable

    def test_kill_reason_raises_killed(self):
        ctx = QueryContext(3)
        ctx.cancel(reason="killed")
        with pytest.raises(QueryKilledError):
            ctx.check()

    def test_first_cancel_reason_wins(self):
        ctx = QueryContext(4)
        ctx.cancel(reason="cancelled")
        ctx.cancel(reason="killed")
        with pytest.raises(QueryCancelledError) as err:
            ctx.check()
        assert not isinstance(err.value, QueryKilledError)

    def test_cancel_from_another_thread_is_seen(self):
        ctx = QueryContext(5)
        threading.Thread(target=ctx.cancel).start()
        for _ in range(1000):
            try:
                ctx.check()
            except QueryCancelledError:
                return
        pytest.fail("cancel never observed")


class TestActivation:
    def test_activate_installs_and_restores(self):
        ctx = QueryContext(6)
        assert current() is None
        with activate(ctx):
            assert current() is ctx
        assert current() is None

    def test_activation_is_thread_local(self):
        ctx = QueryContext(7)
        seen = {}

        def probe():
            seen["other"] = current()

        with activate(ctx):
            t = threading.Thread(target=probe)
            t.start()
            t.join()
        assert seen["other"] is None


class TestMemory:
    def test_soft_budget_signals_spill(self):
        ctx = QueryContext(8, memory_budget_bytes=100)
        assert ctx.try_reserve(80) == RESERVE_OK
        assert ctx.try_reserve(80) == RESERVE_SPILL
        assert ctx.reserved_bytes == 80  # the refused reservation not held
        ctx.release_all()  # the process-wide governor outlives this test

    def test_hard_limit_raises_retryable(self):
        ctx = QueryContext(9, memory_limit_bytes=100)
        assert ctx.try_reserve(80) == RESERVE_OK
        with pytest.raises(ResourceExhaustedError) as err:
            ctx.try_reserve(80)
        assert isinstance(err.value, RetryableError)
        assert ctx.reserved_bytes == 80
        ctx.release_all()  # the process-wide governor outlives this test

    def test_process_governor_cap(self):
        governor = MemoryGovernor(limit_bytes=150)
        a = QueryContext(10, governor=governor)
        b = QueryContext(11, governor=governor)
        assert a.try_reserve(100) == RESERVE_OK
        with pytest.raises(ResourceExhaustedError):
            b.try_reserve(100)
        a.release(100)
        assert b.try_reserve(100) == RESERVE_OK
        b.release_all()
        assert governor.reserved_bytes == 0

    def test_release_clamps_to_held(self):
        governor = MemoryGovernor(limit_bytes=1000)
        ctx = QueryContext(12, governor=governor)
        ctx.try_reserve(100)
        ctx.release(10_000)  # buggy double-release must not underflow
        assert ctx.reserved_bytes == 0
        assert governor.reserved_bytes == 0

    def test_release_all_is_leakproof(self):
        governor = MemoryGovernor(limit_bytes=1000)
        ctx = QueryContext(13, governor=governor)
        ctx.try_reserve(100)
        ctx.try_reserve(200)
        ctx.release_all()
        assert ctx.reserved_bytes == 0
        assert governor.reserved_bytes == 0

    def test_default_governor_uncapped(self):
        assert get_memory_governor().limit_bytes is None


class TestRegistry:
    def test_ids_monotonic(self, registry):
        assert registry.next_query_id() < registry.next_query_id()

    def test_kill_running(self, registry):
        ctx = QueryContext(registry.next_query_id())
        registry.register(ctx)
        assert registry.kill(ctx.query_id)
        with pytest.raises(QueryKilledError):
            ctx.check()
        registry.deregister(ctx)

    def test_kill_unknown_id_is_false(self, registry):
        assert registry.kill(424242) is False

    def test_list_running_sorted(self, registry):
        contexts = [QueryContext(registry.next_query_id()) for _ in range(3)]
        for ctx in reversed(contexts):
            registry.register(ctx)
        assert registry.list_running() == contexts
        for ctx in contexts:
            registry.deregister(ctx)

    def test_governed_registers_then_cleans_up(self, registry):
        ctx = QueryContext(registry.next_query_id())
        with governed(ctx):
            assert registry.get(ctx.query_id) is ctx
            assert current() is ctx
        assert len(registry) == 0
        assert current() is None

    def test_governed_cleans_up_on_error(self, registry):
        governor = MemoryGovernor(limit_bytes=1000)
        ctx = QueryContext(registry.next_query_id(), governor=governor)
        with pytest.raises(RuntimeError):
            with governed(ctx):
                ctx.try_reserve(500)
                raise RuntimeError("operator died")
        assert len(registry) == 0
        assert governor.reserved_bytes == 0
