"""The transaction context: an undo log of physical compensation actions.

A :class:`TxnContext` is a stack of undo closures. Storage mutators
record one entry per mutation point (a delta-store insert, a delete-
bitmap mark, a rowstore tombstone, a catalog registration); rolling back
runs the entries in reverse, restoring the exact pre-mutation state —
including allocator counters (next row id, next delta id, next row-group
id), open/closed delta transitions, and global-dictionary extensions, so
a rolled-back statement is indistinguishable from one that never ran.
That exactness is what keeps WAL replay deterministic: locators logged
by later statements address the same physical positions whether or not
an earlier statement was rolled back.

Savepoints are just stack depths: a statement records the depth on
entry and rolls back to it on failure, which gives statement-level
atomicity *inside* a multi-statement transaction without a separate
nested-transaction mechanism.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator

from ..errors import TxnError
from ..observability import registry as metrics

# Txn id 0 marks auto-commit statements: their WAL records need no
# commit marker (the record's presence is the commit, as before PR 4).
AUTO_COMMIT_TXN = 0


class TxnContext:
    """One transaction's undo log (also used per-statement in auto-commit).

    ``txn_id`` is 0 for the ephemeral per-statement context of an
    auto-commit statement and a positive id (the LSN of the TXN_BEGIN
    record when a WAL is attached) for explicit transactions.
    """

    __slots__ = (
        "txn_id", "_undo", "statements", "rolled_back", "owner",
        "_on_commit", "_keyed", "_published",
    )

    def __init__(self, txn_id: int = AUTO_COMMIT_TXN, owner: str | None = None) -> None:
        self.txn_id = txn_id
        self._undo: list[tuple[str, Callable[[], None]]] = []
        self.statements = 0  # completed statements (for status/tests)
        self.rolled_back = False
        # MVCC commit hooks: closures taking the commit epoch, run by the
        # epoch manager while installing it (stamping PENDING marks /
        # rows with the real epoch). Each hook is stamp-if-still-pending,
        # so a hook left behind by a statement-level rollback (its stamps
        # already undone) is a harmless no-op.
        self._on_commit: list[Callable[[int], None]] = []
        self._keyed: dict = {}  # hooks by key, which later mutations extend
        # Actions run once the commit epoch is published (vacuuming what
        # the transaction retired, which no reader may see before then).
        self._published: list[Callable[[], None]] = []
        # The session that opened this transaction (None for direct,
        # single-caller Database use). The concurrency layer serializes
        # writers, so at most one explicit transaction exists at a time —
        # but it belongs to *one* session, and the owner tag is how
        # Database.commit/rollback reject another session's attempt to
        # end it (see db.database.Database.begin).
        self.owner = owner

    @property
    def explicit(self) -> bool:
        return self.txn_id != AUTO_COMMIT_TXN

    def __len__(self) -> int:
        return len(self._undo)

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def record(self, description: str, action: Callable[[], None]) -> None:
        """Push one undo action (run if the statement/txn rolls back)."""
        self._undo.append((description, action))

    def on_commit(self, hook: Callable[[int], None]) -> None:
        """Register an epoch-stamping hook to run at commit."""
        self._on_commit.append(hook)

    def commit_hook(self, key, make: Callable[[], Callable[[int], None]]):
        """The one hook under ``key`` this transaction has, ``make()`` at first."""
        hook = self._keyed.get(key)
        if hook is None:
            hook = self._keyed[key] = make()
            self._on_commit.append(hook)
        return hook

    def after_publish(self, action: Callable[[], None]) -> None:
        """Register an action to run once the commit epoch is published."""
        self._published.append(action)

    def publish(self, mvcc) -> int | None:
        """Install the commit hooks at a fresh epoch of ``mvcc`` (an
        :class:`~repro.mvcc.EpochManager`) and return it, then run the
        after-publish actions. A transaction that registered no hook
        touched no versioned storage and allocates no epoch."""
        hooks, actions = self._on_commit, self._published
        self._on_commit, self._keyed, self._published = [], {}, []
        epoch = mvcc.commit(hooks) if hooks else None
        for action in actions:
            action()
        return epoch

    # ------------------------------------------------------------------ #
    # Savepoints / rollback
    # ------------------------------------------------------------------ #
    def savepoint(self) -> int:
        """Current undo depth; pass to :meth:`rollback_to` later."""
        return len(self._undo)

    def rollback_to(self, mark: int) -> int:
        """Undo every action recorded after ``mark``, newest first.

        Undo actions are pure in-memory compensations and must not fail;
        if one does, the database is in an undefined state, so the error
        is wrapped in :class:`TxnError` naming the failed action rather
        than silently continuing.
        """
        undone = 0
        while len(self._undo) > mark:
            description, action = self._undo.pop()
            try:
                action()
            except Exception as exc:
                raise TxnError(
                    f"undo action failed ({description}): {exc} — "
                    "in-memory state may be inconsistent"
                ) from exc
            undone += 1
        return undone

    def rollback(self) -> int:
        """Undo everything this transaction did."""
        undone = self.rollback_to(0)
        self.rolled_back = True
        self._on_commit.clear()
        self._keyed.clear()
        self._published.clear()
        return undone

    def discard(self) -> None:
        """Forget recorded undo actions (the changes are being kept)."""
        self._undo.clear()
        self._on_commit.clear()
        self._keyed.clear()
        self._published.clear()


@contextmanager
def autocommit(mvcc) -> Iterator[TxnContext]:
    """The auto-commit scope: one statement that is its own transaction.

    Yields a fresh context for storage mutators to record undo and
    commit hooks into. An exception rolls every recorded change back and
    propagates; on success the commit hooks install at a fresh epoch of
    ``mvcc`` (an :class:`~repro.mvcc.EpochManager`), so a reader pinned
    before the scope never sees its changes and one pinned after does.
    A row-store heap keeps no versions and registers no hooks: its
    scope may pass ``None``.
    """
    txn = TxnContext(AUTO_COMMIT_TXN)
    try:
        yield txn
    except BaseException:
        txn.rollback()
        metrics.increment("txn.statement_rollbacks")
        raise
    txn.publish(mvcc)
    txn.discard()
