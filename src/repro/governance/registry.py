"""Process-wide registry of running statements: SHOW QUERIES and KILL.

Every governed statement registers its :class:`QueryContext` here for the
duration of execution. ``KILL <query_id>`` (and client-requested cancel)
resolve the id through the registry and set the context's cancel flag;
the statement notices at its next cooperative checkpoint and unwinds.

:func:`governed` is the one entry point that ties the lifecycle together:
register → activate thread-locally → classify the outcome into the
``governance.*`` counters → deregister → bulk-release memory. The
statement pipeline (:func:`repro.sql.runner.governing`) wraps every
read and write in it.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

from ..errors import QueryCancelledError, QueryKilledError, QueryTimeoutError
from ..observability import registry as metrics
from .context import QueryContext, activate


class QueryRegistry:
    """Running-statement directory with monotonic query-id allocation."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._next_id = 1
        self._running: dict[int, QueryContext] = {}

    def next_query_id(self) -> int:
        with self._lock:
            qid = self._next_id
            self._next_id += 1
            return qid

    def register(self, ctx: QueryContext) -> None:
        with self._lock:
            self._running[ctx.query_id] = ctx

    def deregister(self, ctx: QueryContext) -> None:
        with self._lock:
            self._running.pop(ctx.query_id, None)

    def get(self, query_id: int) -> QueryContext | None:
        with self._lock:
            return self._running.get(query_id)

    def kill(self, query_id: int, reason: str = "killed") -> bool:
        """Request termination of a running statement by id.

        Returns False when no statement with that id is running (it may
        have already finished — KILL racing completion is not an error).
        """
        with self._lock:
            ctx = self._running.get(query_id)
        if ctx is None:
            return False
        ctx.cancel(reason=reason)
        return True

    def cancel(self, query_id: int) -> bool:
        """Client-requested cancel of the client's own statement."""
        return self.kill(query_id, reason="cancelled")

    def list_running(self) -> list[QueryContext]:
        with self._lock:
            return sorted(self._running.values(), key=lambda c: c.query_id)

    def __len__(self) -> int:
        with self._lock:
            return len(self._running)


_global_query_registry = QueryRegistry()


def get_query_registry() -> QueryRegistry:
    """The process-wide registry SHOW QUERIES / KILL operate on."""
    return _global_query_registry


def set_query_registry(registry: QueryRegistry) -> QueryRegistry:
    """Install a registry (tests); returns the previously installed one."""
    global _global_query_registry
    previous = _global_query_registry
    _global_query_registry = registry
    return previous


@contextmanager
def governed(ctx: QueryContext):
    """Run one statement under governance (see module docstring).

    The ``except`` ordering matters: :class:`QueryKilledError` subclasses
    :class:`QueryCancelledError`, so killed must be tested first.
    """
    registry = get_query_registry()
    registry.register(ctx)
    try:
        with activate(ctx):
            yield ctx
    except QueryKilledError:
        metrics.increment("governance.statements_killed")
        raise
    except QueryCancelledError:
        metrics.increment("governance.statements_cancelled")
        raise
    except QueryTimeoutError:
        metrics.increment("governance.statements_timed_out")
        raise
    finally:
        registry.deregister(ctx)
        ctx.release_all()
