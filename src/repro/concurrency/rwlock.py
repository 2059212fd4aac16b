"""A writer-preference read/write lock for the session layer.

The concurrency model (DESIGN.md "Statement pipeline") needs exactly one
database-wide lock: statements that read row-store structures in place
share it, latched columnstore writers share it, and DDL, explicit
transactions and maintenance hold it exclusively. Python's standard
library has no RW lock, so this is a small condition-variable
implementation with the properties the pipeline relies on:

* **Writer preference.** Once a writer is waiting, new readers queue
  behind it. Without this, a steady stream of short readers starves
  the writer forever (readers overlap, so the reader count never
  reaches zero). With it, writers interleave fairly with reader
  bursts — the E18 benchmark measures exactly this mix.

* **Ownership is a token, never a thread.** The exclusive side (and a
  :class:`~repro.concurrency.latch.TableWriteLatch`) is held by whatever
  object the acquirer passed — a session for the span of its
  transaction, a fresh per-acquire token for a maintenance wrapper. A
  thread ident is recyclable (a holder that died hands its ident to a
  later thread); a live object reference is not. Because the owner is
  the session, any thread driving that session may continue or end its
  transaction, and the same token re-acquiring is depth-counted.

The read side is anonymous and **not** reentrant, and a write-lock owner
must not request a read lock (it would self-deadlock behind its own
writer preference); the pipeline never does either — it acquires at
statement boundaries only, in ``try/finally``.
"""

from __future__ import annotations

import threading
import time

from ..errors import ConcurrencyError, LockTimeoutError
from ..governance.context import current as governance_current
from ..observability import registry as metrics

# How long acquire() waits before concluding the system is wedged.
# Generous on purpose: it exists to turn a deadlock bug into a loud
# LockTimeoutError instead of a hung process, not to time out real work.
DEFAULT_ACQUIRE_TIMEOUT_SECONDS = 60.0

# When the acquiring statement is governed, its lock wait is sliced into
# short condition waits so a statement_timeout / KILL interrupts the
# acquire instead of blocking until the lock frees up.
_GOVERNANCE_POLL_SECONDS = 0.1


class OwnedLock:
    """An exclusive, depth-counted hold owned by a token (see module doc).

    The one implementation behind the RW lock's write side and every
    table latch: owner check, reentrancy, misuse errors, and the bounded
    wait that a governed statement's deadline or KILL can interrupt.
    """

    def __init__(self, what: str, wait_counter: str, timeout: float | None) -> None:
        self._condition = threading.Condition()
        self._owner: object | None = None
        self._depth = 0
        self._waiting = 0  # acquirers queued for the exclusive hold
        self._what = what
        self._wait_counter = wait_counter
        self._timeout = timeout

    def _busy(self) -> bool:
        return self._owner is not None

    def acquire(self, owner: object) -> None:
        """Take the hold for ``owner``; blocks (interruptibly when
        governed) while another token holds it."""
        with self._condition:
            if self._owner is owner:
                self._depth += 1
                return
            self._waiting += 1
            try:
                if self._busy():
                    metrics.increment(self._wait_counter)
                    self._wait_while(self._busy, self._what)
            finally:
                self._waiting -= 1
            self._owner = owner
            self._depth = 1

    def release(self, owner: object) -> None:
        """Release one of ``owner``'s holds (from any thread)."""
        with self._condition:
            if self._owner is None:
                raise ConcurrencyError(f"release of {self._what} without a hold")
            if self._owner is not owner:
                raise ConcurrencyError(
                    f"release of {self._what} by a token that does not own it"
                )
            self._depth -= 1
            if self._depth == 0:
                self._owner = None
                self._condition.notify_all()

    def held_by(self, owner: object) -> bool:
        with self._condition:
            return self._owner is owner

    def locked(self) -> "_Guard":
        """``with`` guard owning the hold through a fresh per-acquire token."""
        token = object()
        return _Guard(lambda: self.acquire(token), lambda: self.release(token))

    def _wait_while(self, blocked, what: str) -> None:
        """Wait on the (held) condition until ``blocked()`` is false.

        ``blocked`` is re-evaluated after every wake-up, notified or
        timed out: a notify that lands just as a timed wait expires is
        reported by ``Condition.wait`` as a timeout, so trusting its
        return value loses wake-ups. A governed statement waits in short
        slices so its deadline / KILL lands while blocked, not after
        finally acquiring; everyone's wait is bounded by the loud
        acquire timeout.
        """
        bounded = self._timeout is not None and self._timeout > 0
        deadline = time.monotonic() + self._timeout if bounded else None
        ctx = governance_current()
        while blocked():
            step = None
            if ctx is not None:
                ctx.check()
                step = _GOVERNANCE_POLL_SECONDS
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise LockTimeoutError(
                        f"timed out after {self._timeout}s waiting for {what}, "
                        f"held by {self._owner!r} with {self._waiting} queued "
                        "(likely a leaked hold or deadlock — see DESIGN.md "
                        "Statement pipeline)"
                    )
                step = remaining if step is None else min(step, remaining)
            self._condition.wait(timeout=step)


class ReadWriteLock(OwnedLock):
    """Shared/exclusive lock with writer preference and token-owned writes."""

    def __init__(self, timeout: float | None = DEFAULT_ACQUIRE_TIMEOUT_SECONDS) -> None:
        super().__init__("the write lock", "concurrency.write_waits", timeout)
        self._readers = 0

    def _busy(self) -> bool:
        return self._owner is not None or self._readers > 0

    def _writer_ahead(self) -> bool:
        return self._owner is not None or self._waiting > 0

    acquire_write = OwnedLock.acquire
    release_write = OwnedLock.release
    write_locked = OwnedLock.locked

    def acquire_read(self, owner: object | None = None) -> None:
        """Take the shared side; blocks while a writer holds or waits.

        ``owner`` is only checked, never recorded: the token that holds
        the write side must not queue behind itself.
        """
        with self._condition:
            if owner is not None and self._owner is owner:
                raise ConcurrencyError(
                    "read-lock request while holding the write lock "
                    "(would self-deadlock behind writer preference)"
                )
            if self._writer_ahead():
                metrics.increment("concurrency.read_waits")
                self._wait_while(self._writer_ahead, "the read lock")
            self._readers += 1

    def release_read(self) -> None:
        with self._condition:
            if self._readers <= 0:
                raise ConcurrencyError("release_read without a matching acquire_read")
            self._readers -= 1
            if self._readers == 0:
                self._condition.notify_all()

    def read_locked(self) -> "_Guard":
        return _Guard(self.acquire_read, self.release_read)


class _Guard:
    """Minimal context manager pairing one acquire with one release."""

    __slots__ = ("_acquire", "_release")

    def __init__(self, acquire, release) -> None:
        self._acquire = acquire
        self._release = release

    def __enter__(self) -> None:
        self._acquire()

    def __exit__(self, *exc_info) -> None:
        self._release()
