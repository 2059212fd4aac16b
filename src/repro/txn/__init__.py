"""Transactions: statement-level atomicity and BEGIN/COMMIT/ROLLBACK.

The paper's updatable columnstore trickles DML through delta stores and
delete bitmaps; this package makes those mutations *transactional*. A
:class:`TxnContext` accumulates physical undo actions as storage
structures change (delta-row removals, delete-bitmap clears, rowstore
un-deletes, catalog restores) and plays them back in reverse to return
the database to an earlier state:

* every DML/DDL statement runs inside a statement scope — an exception
  anywhere mid-statement rolls the statement back to a no-op before the
  error propagates (statement-level atomicity, as in SQL Server); outside
  an explicit transaction that scope is :func:`autocommit`, the one way
  storage changes rows on its own;
* ``Database.begin()/commit()/rollback()`` group statements into
  multi-statement transactions whose WAL records are stamped with a
  transaction id and replayed only if a ``TXN_COMMIT`` made it to disk.

Undo actions are plain closures over storage objects, recorded by the
storage layer itself at each mutation point — the code that knows how to
apply a change is the code that records how to reverse it.
"""

from .context import AUTO_COMMIT_TXN, TxnContext, autocommit

__all__ = ["AUTO_COMMIT_TXN", "TxnContext", "autocommit"]
