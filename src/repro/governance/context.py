"""Per-statement query context: deadline, cancel flag, memory accounting.

A :class:`QueryContext` is created for every governed statement (by the
statement pipeline's *govern* stage) and made visible to the operators
running that statement through a *thread-local* activation: a statement
runs on the thread that submitted it, start to finish.

Operators call :meth:`QueryContext.check` at coarse boundaries (per
emitted batch, per scan unit, every few hundred rows in the row engine).
``check`` raises the classified governance error — killed, cancelled, or
timed out — which unwinds the operator stack through the existing
``try/finally`` pin/lock releases and the PR 4 undo machinery.

Memory accounting is two-level:

* per-query **soft budget** (``memory_budget_bytes``): exceeding it makes
  ``try_reserve`` report "spill" so hash join/aggregate/sort/window
  degrade to their spill paths;
* per-query **hard limit** (``memory_limit_bytes``) and the process-wide
  :class:`MemoryGovernor` cap: exceeding either raises a *retryable*
  :class:`~repro.errors.ResourceExhaustedError` instead of OOM-ing.

Reservations made by a query are owned by its context and bulk-released
at context teardown (:meth:`release_all`), so an operator that dies
without releasing can never leak process-governor bytes.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

from ..errors import (
    QueryCancelledError,
    QueryKilledError,
    QueryTimeoutError,
    ResourceExhaustedError,
)
from ..observability import registry as metrics

# Outcomes of QueryContext.try_reserve: proceed in memory, degrade to the
# operator's spill path, or (exception) ResourceExhaustedError.
RESERVE_OK = "ok"
RESERVE_SPILL = "spill"


class MemoryGovernor:
    """Process-wide memory cap shared by all governed queries.

    ``limit_bytes is None`` (the default) disables the cap. The governor
    only tracks bytes reserved *through a QueryContext* — ungoverned
    internal work (maintenance, recovery) is not charged.
    """

    def __init__(self, limit_bytes: int | None = None) -> None:
        self._lock = threading.Lock()
        self.limit_bytes = limit_bytes
        self.reserved_bytes = 0
        self.peak_bytes = 0

    def try_reserve(self, n_bytes: int) -> bool:
        with self._lock:
            if (
                self.limit_bytes is not None
                and self.reserved_bytes + n_bytes > self.limit_bytes
            ):
                return False
            self.reserved_bytes += n_bytes
            self.peak_bytes = max(self.peak_bytes, self.reserved_bytes)
            return True

    def release(self, n_bytes: int) -> None:
        with self._lock:
            self.reserved_bytes = max(0, self.reserved_bytes - n_bytes)


_process_governor = MemoryGovernor()


def get_memory_governor() -> MemoryGovernor:
    """The process-wide governor every governed reservation goes through."""
    return _process_governor


def set_process_memory_limit(limit_bytes: int | None) -> None:
    """Set (or clear, with None) the process-wide governed-memory cap."""
    _process_governor.limit_bytes = limit_bytes


class QueryContext:
    """Governance state for one running statement (see module docstring)."""

    def __init__(
        self,
        query_id: int,
        sql: str = "",
        session: str | None = None,
        timeout_ms: int | None = None,
        memory_budget_bytes: int | None = None,
        memory_limit_bytes: int | None = None,
        governor: MemoryGovernor | None = None,
        settings: dict | None = None,
    ) -> None:
        self.query_id = query_id
        self.sql = sql
        self.session = session
        # The statement's settings, resolved, for what it compiles beyond
        # its own plan (a DELETE's or UPDATE's); None: not known here.
        self.settings = settings
        self.timeout_ms = timeout_ms
        self.memory_budget_bytes = memory_budget_bytes
        self.memory_limit_bytes = memory_limit_bytes
        self.started_monotonic = time.monotonic()
        self.started_wall = time.time()
        self.deadline = (
            self.started_monotonic + timeout_ms / 1000.0
            if timeout_ms is not None and timeout_ms > 0
            else None
        )
        self._governor = governor if governor is not None else _process_governor
        self._cancel = threading.Event()
        self.cancel_reason: str | None = None
        # MVCC: the snapshot epoch a lock-free read pinned (None until a
        # reader lease is taken, and always None for writes/EXPLAIN).
        self.epoch: int | None = None
        self._mem_lock = threading.Lock()
        self.reserved_bytes = 0
        self.peak_bytes = 0
        # Diagnostic: how many cooperative checkpoints this statement hit.
        # Benchmarks use it to prove governance is actually being polled.
        self.checks = 0

    # ------------------------------------------------------------------ #
    # Cancellation and deadline
    # ------------------------------------------------------------------ #
    def cancel(self, reason: str = "cancelled") -> None:
        """Request cancellation; the first reason recorded wins."""
        if not self._cancel.is_set():
            self.cancel_reason = reason
        self._cancel.set()

    @property
    def elapsed_ms(self) -> float:
        return (time.monotonic() - self.started_monotonic) * 1000.0

    def check(self) -> None:
        """Cooperative checkpoint: raise if cancelled, killed, or expired.

        Called at batch/row/scan-unit boundaries and inside lock waits.
        Cheap on the happy path: one Event check and one clock read.
        """
        self.checks += 1
        if self._cancel.is_set():
            if self.cancel_reason == "killed":
                raise QueryKilledError(
                    f"query {self.query_id} killed", query_id=self.query_id
                )
            raise QueryCancelledError(
                f"query {self.query_id} cancelled", query_id=self.query_id
            )
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise QueryTimeoutError(
                f"query {self.query_id} exceeded statement_timeout "
                f"of {self.timeout_ms} ms",
                query_id=self.query_id,
            )

    # ------------------------------------------------------------------ #
    # Memory accounting
    # ------------------------------------------------------------------ #
    def try_reserve(self, n_bytes: int, optional: bool = False) -> str:
        """Charge ``n_bytes`` against this query and the process governor.

        Returns ``RESERVE_OK`` when the reservation was committed, or
        ``RESERVE_SPILL`` when the *soft* per-query budget is exceeded
        (the operator should degrade to its spill path). Raises
        :class:`ResourceExhaustedError` on a *hard* violation — per-query
        ``memory_limit_bytes`` or the process-wide governor cap — without
        committing anything.

        ``optional`` bytes are a cache the caller drops when refused: any
        refusal, hard or soft, returns ``RESERVE_SPILL`` and is not
        counted as a rejection or a forced spill.
        """
        with self._mem_lock:
            proposed = self.reserved_bytes + n_bytes
            over_limit = (
                self.memory_limit_bytes is not None
                and proposed > self.memory_limit_bytes
            )
            over_budget = (
                self.memory_budget_bytes is not None
                and proposed > self.memory_budget_bytes
            )
            if optional and (over_limit or over_budget):
                return RESERVE_SPILL
            if over_limit:
                metrics.increment("governance.budget_rejections")
                raise ResourceExhaustedError(
                    f"query {self.query_id} exceeded its hard memory limit of "
                    f"{self.memory_limit_bytes} bytes ({self.reserved_bytes} "
                    f"reserved, {n_bytes} requested)"
                )
            if not self._governor.try_reserve(n_bytes):
                if optional:
                    return RESERVE_SPILL
                metrics.increment("governance.budget_rejections")
                raise ResourceExhaustedError(
                    f"process memory governor cap of "
                    f"{self._governor.limit_bytes} bytes exceeded "
                    f"({self._governor.reserved_bytes} reserved across all "
                    f"queries, {n_bytes} requested by query {self.query_id})"
                )
            if over_budget:
                # Soft budget: hand the bytes back and tell the operator
                # to spill instead of growing.
                self._governor.release(n_bytes)
                metrics.increment("governance.spills_forced")
                return RESERVE_SPILL
            self.reserved_bytes = proposed
            self.peak_bytes = max(self.peak_bytes, self.reserved_bytes)
            return RESERVE_OK

    def release(self, n_bytes: int) -> None:
        """Return bytes; clamps so a double release cannot underflow the
        governor (only what this context actually holds is returned)."""
        with self._mem_lock:
            actual = min(n_bytes, self.reserved_bytes)
            self.reserved_bytes -= actual
        if actual:
            self._governor.release(actual)

    def release_all(self) -> None:
        """Teardown: return every byte this query still holds.

        Makes operator error paths leak-proof — whatever they failed to
        release comes back to the governor here.
        """
        with self._mem_lock:
            actual = self.reserved_bytes
            self.reserved_bytes = 0
        if actual:
            self._governor.release(actual)

    def describe(self) -> dict:
        """Row-shaped summary for SHOW QUERIES / ``\\stats``."""
        return {
            "query_id": self.query_id,
            "session": self.session,
            "sql": self.sql,
            "elapsed_ms": round(self.elapsed_ms, 1),
            "timeout_ms": self.timeout_ms,
            "reserved_bytes": self.reserved_bytes,
            "state": ("cancelling" if self._cancel.is_set() else "running"),
            "epoch": self.epoch,
        }


# ---------------------------------------------------------------------- #
# Thread-local activation
# ---------------------------------------------------------------------- #
_active = threading.local()


def current() -> QueryContext | None:
    """The QueryContext governing the *current thread*, if any."""
    return getattr(_active, "ctx", None)


@contextmanager
def activate(ctx: QueryContext | None):
    """Install ``ctx`` as the current thread's governing context.

    :func:`~repro.governance.registry.governed` does this for the span
    of a statement. Nested activations restore the previous context on
    exit.
    """
    prev = current()
    _active.ctx = ctx
    try:
        yield ctx
    finally:
        _active.ctx = prev


def checkpoint() -> None:
    """Free-standing cooperative checkpoint for loops that filter heavily.

    Highly selective scans can chew through many scan units (or many
    thousands of rows) without emitting anything, so the per-emission
    check of the operator wrapper (:func:`repro.exec.operators.base.operator_stream`)
    never runs; such loops call this directly.
    """
    ctx = current()
    if ctx is not None:
        ctx.check()
