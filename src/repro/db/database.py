"""The public database facade.

:class:`Database` ties everything together: DDL, DML (trickle and bulk),
querying via SQL or via logical plans, EXPLAIN, and the maintenance
operations the paper describes (tuple mover, REBUILD, archival toggles).

>>> from repro import Database, types
>>> db = Database()
>>> db.sql("CREATE TABLE t (a INT, b VARCHAR)")
>>> db.sql("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
>>> db.sql("SELECT a FROM t WHERE b = 'x'").rows
[(1,)]
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator, Sequence

from ..errors import BindingError, CatalogError, PlanningError, StorageError, TxnError
from ..governance import QueryContext, get_query_registry
from ..mvcc import EpochManager
from ..exec.expressions import Column, Expr
from ..exec.operators.scan import ColumnStoreScan
from ..exec.row_engine import RID_COLUMN, RowTableScan
from ..observability import ExecutionStats
from ..observability import registry as metrics
from ..planner.logical import LogicalNode, LogicalScan
from ..planner.optimizer import Optimizer, PhysicalPlan
from ..schema import TableSchema
from ..sql import runner as pipeline
from ..storage.config import StoreConfig
from ..txn import AUTO_COMMIT_TXN, TxnContext
from ..types import DataType
from ..wal.record import WalRecordType
from .catalog import Catalog, StorageKind, Table


@dataclass
class Result:
    """A query result: column names, types and presented Python rows.

    ``stats`` is the :class:`~repro.observability.ExecutionStats` handle
    when the query ran with ``stats=True`` (per-operator runtime counters
    plus the storage-counter delta), else ``None``.
    """

    columns: list[str]
    dtypes: list[DataType]
    rows: list[tuple[Any, ...]]
    stats: ExecutionStats | None = field(default=None, compare=False)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[tuple[Any, ...]]:
        return iter(self.rows)

    def to_pydict(self) -> dict[str, list[Any]]:
        return {
            name: [row[i] for row in self.rows] for i, name in enumerate(self.columns)
        }

    def scalar(self) -> Any:
        """The single value of a one-row, one-column result."""
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise PlanningError(
                f"scalar() needs a 1x1 result, got {len(self.rows)}x{len(self.columns)}"
            )
        return self.rows[0][0]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Result(columns={self.columns}, rows={len(self.rows)})"


class Database:
    """An in-process analytic database with columnstore + batch mode."""

    def __init__(self, default_config: StoreConfig | None = None) -> None:
        self.catalog = Catalog()
        self.optimizer = Optimizer(self.catalog)
        self.default_config = default_config or StoreConfig()
        # Write-ahead log, attached by open()/load(); facade statements
        # append a redo record before mutating in-memory state. Direct
        # Table-level mutations bypass the log — durability covers the
        # facade surface, which is also what SQL goes through.
        self._wal = None
        self._wal_root: str | None = None
        # Fingerprint of the state the last save/load at a path captured:
        # save() skips rewriting an unchanged snapshot.
        self._save_fingerprint: tuple | None = None
        # Which pool blob of that path holds each segment (a
        # storage.snapshot.StoredSegments): save() writes only the rest.
        self._stored_segments = None
        self._catalog_epoch = 0
        # Open explicit transaction (None outside BEGIN..COMMIT). The id
        # allocator only serves WAL-less databases; with a WAL the txn id
        # is the LSN of its TXN_BEGIN marker.
        self._txn: TxnContext | None = None
        self._next_txn_id = 1
        # MVCC: one epoch clock + reader registry shared by every table
        # (DESIGN.md "Multi-versioning"). Columnstore indexes are born
        # with a private manager; create_table and load() swap this one
        # in so commits across tables advance one clock.
        self.mvcc = EpochManager()
        # Hot backups currently copying (repro.backup): while nonzero,
        # save() defers the checkpoint so neither snapshot GC nor WAL
        # truncation can delete files a backup is reading.
        self._backups_in_flight = 0
        # Governance settings (statement_timeout / query_memory_budget /
        # query_memory_limit); sessions overlay their own on top.
        self.settings: dict[str, int] = {}
        # What this facade's own statements run under: a single caller on
        # the live structures, whose SET writes the settings above. Also
        # the owner of a transaction opened through the facade.
        self.isolation = pipeline.Isolation(settings=self.settings)
        # (shape, catalog version) -> templates of statements bound once
        # (sql/runner.py "Statement shapes").
        self.shapes: OrderedDict = OrderedDict()

    # ------------------------------------------------------------------ #
    # Write-ahead logging plumbing
    # ------------------------------------------------------------------ #
    @property
    def wal(self):
        """The attached :class:`~repro.wal.WriteAheadLog`, or ``None``."""
        return self._wal

    def _log(self, rtype: WalRecordType, table: str, payload: bytes) -> None:
        """Append + commit one statement's redo record (no-op when no WAL).

        Callers must have fully validated the statement first: a logged
        record is a promise that replay can apply it.
        """
        if self._wal is not None:
            self._wal.log_statement(rtype, table, payload)

    def set_durability(self, mode: str) -> None:
        """Switch the WAL durability mode (per-commit / group / off)."""
        if self._wal is None:
            raise StorageError(
                "no write-ahead log attached (use Database.open to get one)"
            )
        self._wal.set_durability(mode)

    def close(self) -> None:
        """Flush any pending group-commit window. Safe to call twice.

        An open transaction is rolled back first — close() without
        COMMIT means the work was never promised. Reader leases still
        registered at close are released *loudly*: a leaked lease would
        have pinned the GC horizon forever, so it is a caller bug worth
        a warning and a counter, not something to ignore quietly.
        """
        if self._txn is not None:
            # Teardown path: pass the transaction's own owner so an
            # abandoned session transaction still rolls back cleanly.
            self.rollback(self._txn.owner)
        leaked = self.mvcc.readers.release_all()
        if leaked:
            import warnings

            metrics.increment("mvcc.leases_leaked", leaked)
            warnings.warn(
                f"Database.close() released {leaked} reader lease(s) that "
                "were never released — a session forgot release_snapshot()",
                ResourceWarning,
                stacklevel=2,
            )
        if self._wal is not None:
            self._wal.close()

    # ------------------------------------------------------------------ #
    # Transactions
    # ------------------------------------------------------------------ #
    # Two guarantees, layered (see DESIGN.md "Transactions"):
    #
    # * **Statement atomicity** — every DML statement runs against a
    #   TxnContext that accumulates physical undo actions at each
    #   mutation point; an exception mid-statement rolls the in-memory
    #   state back to exactly the pre-statement state, and apply-then-log
    #   ordering means a failed statement is never in the log at all.
    # * **Multi-statement transactions** — BEGIN defers durability:
    #   statements append WAL records stamped with the txn id but do not
    #   fsync; COMMIT appends a TXN_COMMIT marker and makes the batch
    #   durable in one commit; ROLLBACK undoes the accumulated in-memory
    #   effects and logs a TXN_ABORT. Replay applies only records whose
    #   transaction committed, so a crash mid-transaction recovers to the
    #   last commit point.
    @property
    def in_transaction(self) -> bool:
        """Is an explicit BEGIN..COMMIT/ROLLBACK transaction open?"""
        return self._txn is not None

    def begin(self, owner: "pipeline.Isolation | None" = None) -> None:
        """Open an explicit transaction (SQL ``BEGIN``).

        Nested transactions are not supported: BEGIN inside an open
        transaction is an error rather than a silent commit-and-restart.

        ``owner`` is the isolation object (a session, or by default this
        facade's own) the transaction belongs to: COMMIT and ROLLBACK
        verify the same owner is ending it, so one session can never
        commit or abort another session's work.
        """
        if self._txn is not None:
            raise TxnError(
                "a transaction is already open (COMMIT or ROLLBACK it first; "
                "nested transactions are not supported)"
            )
        if self._wal is not None:
            # The begin marker's own LSN doubles as the transaction id,
            # which makes ids unique, ordered, and free.
            txn_id = self._wal.last_lsn + 1
            self._wal.append(WalRecordType.TXN_BEGIN, "", b"", txn_id)
        else:
            txn_id = self._next_txn_id
            self._next_txn_id += 1
        self._txn = TxnContext(txn_id, owner=owner or self.isolation)
        metrics.increment("txn.begins")

    def commit(self, owner: "pipeline.Isolation | None" = None) -> None:
        """Make the open transaction's work permanent (SQL ``COMMIT``)."""
        txn = self._require_txn("COMMIT", owner)
        # MVCC: install the transaction's stamps at a fresh epoch before
        # the commit marker is logged — the marker records the epoch so
        # replay can fast-forward the clock past it. Transactions that
        # touched no versioned storage (read-only, rowstore-only) skip
        # epoch allocation entirely.
        hooks = txn.take_commit_hooks()
        epoch = self.mvcc.commit(hooks) if hooks else None
        if self._wal is not None:
            from ..wal import replay as walreplay

            # The commit marker is what promotes the transaction's
            # records from "present in the log" to "applied by replay";
            # wal.commit() then makes the whole batch durable per the
            # configured durability mode — one fsync for N statements.
            payload = (
                walreplay.encode_json({"epoch": epoch}) if epoch is not None else b""
            )
            self._wal.append(WalRecordType.TXN_COMMIT, "", payload, txn.txn_id)
            self._wal.commit()
        txn.discard()
        self._txn = None
        metrics.increment("txn.commits")

    def rollback(self, owner: "pipeline.Isolation | None" = None) -> None:
        """Undo the open transaction's work (SQL ``ROLLBACK``)."""
        txn = self._require_txn("ROLLBACK", owner)
        # Undo in-memory effects first: if an undo action itself fails,
        # the abort marker must not already claim the rollback happened.
        txn.rollback()
        self._txn = None
        if self._wal is not None:
            self._wal.append(WalRecordType.TXN_ABORT, "", b"", txn.txn_id)
            self._wal.commit()
        metrics.increment("txn.rollbacks")

    @contextmanager
    def transaction(self):
        """``with db.transaction():`` — commit on success, rollback on error."""
        self.begin()
        try:
            yield self
        except BaseException:
            if self._txn is not None:
                self.rollback()
            raise
        else:
            if self._txn is not None:
                self.commit()

    def _require_txn(self, verb: str, owner=None) -> TxnContext:
        if self._txn is None:
            raise TxnError(f"{verb} outside a transaction (no BEGIN is open)")
        # A transaction may only be ended by the isolation object that
        # opened it (identity, not a name or a thread).
        owner = owner or self.isolation
        if owner is not self._txn.owner:
            raise TxnError(
                f"{verb} by session {owner.name!r} on a transaction owned by "
                f"session {self._txn.owner.name!r}"
            )
        return self._txn

    def _require_no_txn(self, operation: str) -> None:
        """Refuse operations that cannot serialize against an open txn.

        Checkpoints (save) and maintenance reorganizations (tuple mover,
        REBUILD, archival) are logged, non-undoable operations; running
        one mid-transaction would either bake uncommitted state into a
        snapshot or create log records that replay cannot order against
        the transaction's outcome.
        """
        if self._txn is not None:
            raise TxnError(
                f"{operation} is not allowed inside an open transaction — "
                "COMMIT or ROLLBACK first"
            )

    @contextmanager
    def _atomic_statement(self):
        """Statement-level atomicity scope for one DML/DDL statement.

        Yields the transaction context mutators record undo into. Inside
        an explicit transaction this is a savepoint: a failure rolls back
        to the statement start but the transaction stays open (and
        usable), matching SQL statement semantics. In auto-commit mode a
        throwaway context serves the same purpose and its undo log is
        discarded on success.
        """
        if self._txn is not None:
            txn = self._txn
            mark = txn.savepoint()
            try:
                yield txn
            except BaseException:
                txn.rollback_to(mark)
                metrics.increment("txn.statement_rollbacks")
                raise
            else:
                txn.statements += 1
        else:
            txn = TxnContext(AUTO_COMMIT_TXN)
            try:
                yield txn
            except BaseException:
                txn.rollback()
                metrics.increment("txn.statement_rollbacks")
                raise
            else:
                # Auto-commit: the statement IS the transaction, so its
                # MVCC stamps install at a fresh epoch right here.
                hooks = txn.take_commit_hooks()
                if hooks:
                    self.mvcc.commit(hooks)
                txn.discard()

    def _log_dml(self, rtype: WalRecordType, table: str, payload: bytes) -> None:
        """Log one applied statement (append-only inside a transaction).

        Auto-commit statements append **and** commit (their frame is the
        commit unit, as before). Inside an explicit transaction the
        record is stamped with the txn id and merely appended — it only
        becomes meaningful to replay if the TXN_COMMIT marker lands, and
        durability waits for :meth:`commit`.
        """
        if self._wal is None:
            return
        if self._txn is not None:
            self._wal.append(rtype, table, payload, self._txn.txn_id)
        else:
            self._wal.log_statement(rtype, table, payload)

    def _bump_epoch(self, txn: TxnContext) -> None:
        previous = self._catalog_epoch
        txn.record(
            f"restore catalog epoch to {previous}",
            lambda: setattr(self, "_catalog_epoch", previous),
        )
        self._catalog_epoch += 1

    # ------------------------------------------------------------------ #
    # DDL
    # ------------------------------------------------------------------ #
    def create_table(
        self,
        name: str,
        schema: TableSchema,
        storage: StorageKind | str = StorageKind.COLUMNSTORE,
        config: StoreConfig | None = None,
    ) -> Table:
        if isinstance(storage, str):
            storage = StorageKind(storage)
        if self.catalog.has_table(name):
            raise CatalogError(f"table {name!r} already exists")
        config = config or self.default_config
        with self._atomic_statement() as txn:
            table = self.catalog.create_table(name, schema, storage, config)
            if table.columnstore is not None:
                table.columnstore.attach_mvcc(self.mvcc)
            txn.record(
                f"un-create table {name}",
                lambda: self.catalog.drop_table(name),
            )
            self._bump_epoch(txn)
            if self._wal is not None:
                from ..storage import persist
                from ..wal import replay as walreplay

                self._log_dml(
                    WalRecordType.CREATE_TABLE,
                    name,
                    walreplay.encode_json(
                        {
                            "schema": persist.schema_to_json(schema),
                            "storage": storage.value,
                            "config": persist.config_to_json(config),
                        }
                    ),
                )
        return table

    def drop_table(self, name: str) -> None:
        if not self.catalog.has_table(name):
            raise CatalogError(f"unknown table {name!r}")
        with self._atomic_statement() as txn:
            dropped = self.catalog.table(name)
            self.catalog.drop_table(name)
            txn.record(
                f"restore dropped table {name}",
                lambda: self.catalog.restore_table(dropped),
            )
            self._bump_epoch(txn)
            self._log_dml(WalRecordType.DROP_TABLE, name, b"")

    def create_index(self, table: str, index_name: str, columns: list[str]):
        """Create a secondary row-store index (the logged DDL path)."""
        target = self.catalog.table(table)
        if target.rowstore is None:
            raise CatalogError(f"table {target.name!r} has no row store to index")
        if index_name in target.indexes:
            raise CatalogError(f"index {index_name!r} already exists")
        with self._atomic_statement() as txn:
            index = target.create_index(index_name, list(columns))
            txn.record(
                f"un-create index {index_name}",
                lambda: target.indexes.pop(index_name, None),
            )
            self._bump_epoch(txn)
            if self._wal is not None:
                from ..wal import replay as walreplay

                self._log_dml(
                    WalRecordType.CREATE_INDEX,
                    target.name,
                    walreplay.encode_json(
                        {"name": index_name, "columns": list(columns)}
                    ),
                )
        return index

    def table(self, name: str) -> Table:
        return self.catalog.table(name)

    # ------------------------------------------------------------------ #
    # DML
    # ------------------------------------------------------------------ #
    # DML statements share one shape: validate and coerce *before* the
    # atomic scope (a failure there touches nothing), then apply with
    # undo recording, then log. Apply-then-log means a statement that
    # fails mid-apply is rolled back to the exact pre-statement state
    # AND never reaches the log — replay cannot diverge from memory.
    def insert(self, table: str, rows: Sequence[Sequence[Any]]) -> int:
        """Trickle-insert rows (columnstores route through delta stores)."""
        target = self.catalog.table(table)
        physical = [target.schema.coerce_row(row) for row in rows]
        with self._atomic_statement() as txn:
            count = target.insert_physical_rows(physical, txn)
            if self._wal is not None:
                from ..storage import persist

                # Log the already-coerced rows: coercion is not idempotent
                # (DECIMAL coercion scales ints), so replay must not redo it.
                self._log_dml(
                    WalRecordType.INSERT,
                    target.name,
                    persist.serialize_rows(target.schema, physical),
                )
        return count

    def bulk_load(self, table: str, rows: Sequence[Sequence[Any]]) -> int:
        """Bulk-load rows (large loads compress directly into row groups)."""
        target = self.catalog.table(table)
        physical = [target.schema.coerce_row(row) for row in rows]
        with self._atomic_statement() as txn:
            count = target.bulk_load_physical(physical, txn)
            if self._wal is not None:
                from ..storage import persist

                self._log_dml(
                    WalRecordType.BULK_LOAD,
                    target.name,
                    persist.serialize_rows(target.schema, physical),
                )
        return count

    def delete_where(self, table: str, predicate: Expr | None) -> int:
        """DELETE ... WHERE: runs the predicate against every storage.

        Returns the number of *logical* rows deleted — on BOTH-storage
        tables each logical row lives in two storages, and the count is
        authoritative regardless of which storages held it
        (:meth:`Table.delete_rows`).
        """
        target = self.catalog.table(table)
        # Resolve the predicate to locators *before* mutating: the redo
        # record carries locators, not the predicate, so replay is
        # independent of scan order (and predicates need no serializer).
        _rows, rids, locators = self._matching(target, predicate, want_rows=False)
        with self._atomic_statement() as txn:
            deleted = target.delete_rows(rids, locators, txn)
            if self._wal is not None and (rids or locators):
                from ..wal import replay as walreplay

                self._log_dml(
                    WalRecordType.DELETE,
                    target.name,
                    walreplay.encode_json(walreplay.encode_locators(rids, locators)),
                )
        return deleted

    def update_where(
        self,
        table: str,
        assignments: dict[str, Expr],
        predicate: Expr | None,
    ) -> int:
        """UPDATE ... SET ... WHERE, executed as delete + insert."""
        target = self.catalog.table(table)
        names = target.schema.names
        unknown = set(assignments) - set(names)
        if unknown:
            raise CatalogError(f"unknown columns in SET: {sorted(unknown)}")
        matched, rids, locators = self._matching(target, predicate, want_rows=True)
        if not matched:
            return 0

        def resolver(column: str):
            return target.schema.dtype(column)

        # Each assignment expression presents through ITS inferred type:
        # e.g. `amount * 2` was descaled by the binder and is already a
        # user-space float, while a bare column reference is physical.
        expr_dtypes: dict[str, DataType] = {}
        for name, expr in assignments.items():
            try:
                expr_dtypes[name] = expr.infer_dtype(resolver)
            except Exception:
                expr_dtypes[name] = target.schema.dtype(name)
        new_rows = []
        for row in matched:
            row_map = dict(zip(names, row))
            new_row = []
            for name in names:
                if name in assignments:
                    physical = assignments[name].eval_row(row_map)
                    new_row.append(expr_dtypes[name].present(physical))
                else:
                    new_row.append(target.schema.dtype(name).present(row_map[name]))
            new_rows.append(tuple(new_row))
        physical_rows = [target.schema.coerce_row(row) for row in new_rows]
        with self._atomic_statement() as txn:
            target.delete_by_locators(rids, txn)
            target.delete_by_locators(locators, txn)
            target.insert_physical_rows(physical_rows, txn)
            if self._wal is not None:
                from ..wal import replay as walreplay

                # One compound record: UPDATE is delete + insert, and losing
                # one half of that to a crash would corrupt, so both travel
                # in a single frame (the unit of atomicity).
                self._log_dml(
                    WalRecordType.UPDATE,
                    target.name,
                    walreplay.encode_update(
                        target.schema, rids, locators, physical_rows
                    ),
                )
        return len(new_rows)

    def _matching(
        self, target: Table, predicate: Expr | None, want_rows: bool
    ) -> tuple[list[tuple], list[Any], list[Any]]:
        """Resolve a DML predicate in one pass per storage.

        Returns ``(rows, rids, locators)``: the matching rows' addresses
        in the row store and in the columnstore, and — when ``want_rows``
        — the rows themselves, read in the same pass (from the row store
        when the table has one). A columnstore pass that only needs
        addresses reads the predicate's columns alone.
        """
        names = target.schema.names
        rows: list[tuple] = []
        rids: list[Any] = []
        locators: list[Any] = []
        if target.rowstore is not None:
            scan = RowTableScan(
                target.rowstore, names, predicate=predicate, include_rids=True
            )
            for row in scan.rows():
                rids.append(row[RID_COLUMN])
                if want_rows:
                    rows.append(tuple(row[n] for n in names))
        if target.columnstore is not None:
            read_rows = want_rows and target.rowstore is None
            scan = ColumnStoreScan(
                target.columnstore,
                names if read_rows else [],
                predicate=predicate,
                include_locators=True,
            )
            for batch in scan.batches():
                locators.extend(batch.locators.tolist())
                if read_rows:
                    rows.extend(batch.to_rows())
        return rows, rids, locators

    # ------------------------------------------------------------------ #
    # Governance (settings + query contexts)
    # ------------------------------------------------------------------ #
    _SETTING_NAMES = ("statement_timeout", "query_memory_budget", "query_memory_limit")

    def setting_name(self, name: str) -> str:
        """The canonical form of a governance setting's name (or raise)."""
        name = name.lower()
        if name not in self._SETTING_NAMES:
            raise BindingError(
                f"unknown setting {name!r} (expected one of "
                f"{', '.join(self._SETTING_NAMES)})"
            )
        return name

    def set_setting(self, name: str, value: int | None) -> None:
        """Set a database-wide governance setting.

        ``statement_timeout`` is milliseconds; the memory settings are
        bytes. ``None``, zero and negative values clear the setting —
        "0 = disabled" matches the usual server convention. SQL ``SET``
        goes through the statement pipeline and writes the caller's
        isolation overlay (which for ``Database.sql`` is these settings).
        """
        name = self.setting_name(name)
        if value is None or value <= 0:
            self.settings.pop(name, None)
        else:
            self.settings[name] = int(value)

    def get_setting(self, name: str) -> int | None:
        return self.settings.get(self.setting_name(name)) or None

    def new_query_context(
        self,
        sql: str = "",
        session: str | None = None,
        settings: dict[str, int] | None = None,
    ) -> QueryContext:
        """A registered-id :class:`QueryContext` for one statement.

        ``settings`` (a session overlay) wins over the database-level
        settings; unset and 0 both mean "no limit".
        """
        effective = {**self.settings, **settings} if settings else self.settings
        return QueryContext(
            get_query_registry().next_query_id(),
            sql=sql,
            session=session,
            timeout_ms=effective.get("statement_timeout") or None,
            memory_budget_bytes=effective.get("query_memory_budget") or None,
            memory_limit_bytes=effective.get("query_memory_limit") or None,
        )

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def scan_plan(self, table: str, columns: list[str] | None = None) -> LogicalScan:
        """A logical scan of a table (start of a hand-built plan)."""
        target = self.catalog.table(table)
        names = columns if columns is not None else target.schema.names
        return LogicalScan(
            table=target.name,
            projections={name: target.schema.column(name).name for name in names},
        )

    def compile(self, plan: LogicalNode, **options: Any) -> PhysicalPlan:
        """Optimize + build a physical plan (see Optimizer.compile)."""
        return self.optimizer.compile(plan, **options)

    def execute(self, plan: LogicalNode, stats: bool = False, **options: Any) -> Result:
        """Run a logical plan and present results as Python values.

        With ``stats=True`` the plan executes under per-operator stats
        collection and the returned :class:`Result` carries an
        :class:`~repro.observability.ExecutionStats` handle — collection
        never changes the produced rows, only observes them.

        The plan enters the statement pipeline at *govern*: it runs under
        a :class:`~repro.governance.QueryContext` — the database's
        ``statement_timeout`` / memory settings apply, and it appears in
        ``SHOW QUERIES`` until it finishes — unless one is already active
        (a subquery inside an outer statement), which keeps governing.
        """
        with pipeline.governing(self, self.isolation, f"<plan:{type(plan).__name__}>"):
            return pipeline.execute_plan(
                self, plan, self.isolation, stats=stats, **options
            )

    def sql(self, text: str, **options: Any) -> Result | None:
        """Execute a SQL statement; queries return a :class:`Result`.

        A thin caller of the statement pipeline
        (:func:`repro.sql.runner.run_statement`) with this facade's own
        isolation: a single caller on the live structures.
        """
        return pipeline.run_statement(self, text, self.isolation, **options)

    def explain(self, text_or_plan: str | LogicalNode, **options: Any) -> str:
        """The optimized logical + physical plan as text."""
        if isinstance(text_or_plan, str):
            plan = pipeline.plan_query(self, text_or_plan)
        else:
            plan = text_or_plan
        return self.optimizer.compile(plan, **options).explain()

    def explain_analyze(self, text_or_plan: str | LogicalNode, **options: Any) -> str:
        """Execute a query and render the plan with runtime operator stats."""
        if isinstance(text_or_plan, str):
            plan = pipeline.plan_query(self, text_or_plan)
        else:
            plan = text_or_plan
        return self.optimizer.compile(plan, **options).explain_analyze()

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def _fingerprint(self, resolved_path: str) -> tuple:
        """State identity used to skip re-saving an unchanged database.

        Covers the target path, DDL history (catalog epoch) and every
        table's data version. Direct ``Table.create_index`` calls bypass
        the epoch — use :meth:`create_index` for skip-accurate DDL.
        """
        return (
            resolved_path,
            self._catalog_epoch,
            tuple(
                (name, self.catalog.table(name)._data_version)
                for name in self.catalog.table_names()
            ),
        )

    def save(self, path: str, disk=None, force: bool = False) -> None:
        """Persist the whole database to a directory, crash-safely.

        Compressed segments are immutable blobs in the directory's
        write-once pool (one file per segment, the paper's LOB model):
        a save writes only the segments the directory does not hold yet,
        so a checkpoint costs what changed. Delta stores, delete bitmaps
        and row-store heaps are serialized row-wise and the catalog is
        JSON, all written fresh.

        Every save is a checksummed snapshot committed by a single
        atomic manifest rename (:mod:`repro.storage.snapshot`): a crash
        at any point leaves either the previous save or this one — never
        a hybrid. ``disk`` is the I/O abstraction (tests inject a
        :class:`~repro.storage.diskio.FaultyDisk`).

        With a WAL attached, a save doubles as a **checkpoint**: the
        manifest records the log's last LSN and every fully covered
        segment is truncated afterwards. A save whose state is identical
        to what the path already holds is skipped entirely (pass
        ``force=True`` to override).
        """
        import json
        from pathlib import Path

        from ..observability import registry as obs_metrics
        from ..storage import persist
        from ..storage.diskio import DiskIO
        from ..storage.snapshot import MANIFEST_NAME, SnapshotWriter

        # A snapshot taken mid-transaction would bake uncommitted state
        # into the base image (and truncate the log segments replay
        # would need to undo-by-omission). Refuse; the checkpoint runs
        # after COMMIT/ROLLBACK.
        self._require_no_txn("save (checkpoint)")
        if self._backups_in_flight > 0:
            # A hot backup is copying this directory: a checkpoint now
            # would garbage-collect the files its manifest names and
            # truncate the WAL segments the copy is reading. Defer — the
            # WAL keeps everything recoverable until the next checkpoint.
            obs_metrics.increment("backup.checkpoints_deferred")
            return
        disk = disk or DiskIO()
        root = Path(path)
        resolved = str(root.resolve())
        fingerprint = self._fingerprint(resolved)
        if (
            not force
            and fingerprint == self._save_fingerprint
            and disk.exists(root / MANIFEST_NAME)
        ):
            obs_metrics.increment("storage.snapshot.saves_skipped")
            return
        wal = self._wal if self._wal is not None and self._wal_root == resolved else None
        checkpoint_lsn = 0
        if wal is not None:
            # Everything the snapshot will contain must be durable in the
            # log first, or a crash mid-save could lose committed work.
            wal.flush()
            checkpoint_lsn = wal.last_lsn
        writer = SnapshotWriter(disk, root, self._stored_segments)
        catalog_entries = []
        for name in self.catalog.table_names():
            table = self.catalog.table(name)
            entry = {
                "name": table.name,
                "schema": persist.schema_to_json(table.schema),
                "storage": table.storage_kind.value,
                "config": persist.config_to_json(table.config),
                "indexes": {
                    index_name: index.columns
                    for index_name, index in table.indexes.items()
                },
            }
            catalog_entries.append(entry)
            if table.columnstore is not None:
                persist.save_columnstore(table.columnstore, writer, table.name)
            if table.rowstore is not None:
                rows = [row for _, row in table.rowstore.scan()]
                writer.write(
                    f"{table.name}/rowstore.rows",
                    persist.serialize_rows(table.schema, rows),
                )
        writer.write(
            "catalog.json", json.dumps(catalog_entries, indent=1).encode("utf-8")
        )
        writer.commit(checkpoint_lsn=checkpoint_lsn)
        if writer.committed:
            # Only a read-back-verified manifest licenses destroying log
            # segments (a dropped rename means the old snapshot is still
            # the live one and its log tail is still needed).
            if wal is not None:
                wal.truncate_covered(checkpoint_lsn)
            self._save_fingerprint = fingerprint
            self._stored_segments = writer.stored

    def backup(self, dest: str, disk=None, barrier_hook=None):
        """Hot-backup this database into the fresh directory ``dest``.

        Takes a consistent, checksummed image — base snapshot, covered
        WAL prefix clipped at the backup LSN — while writers keep
        committing (:mod:`repro.backup.backup`). The backup pins an MVCC
        reader lease for its duration; restoring the image reproduces
        exactly the pinned epoch's visible state. Returns a
        :class:`~repro.backup.backup.BackupResult`.

        Single-caller use only — sessions go through
        :meth:`ConcurrentDatabase.backup`, which holds the write lock
        for the barrier phase.
        """
        from ..backup.backup import backup_database

        return backup_database(self, dest, disk=disk, barrier_hook=barrier_hook)

    @classmethod
    def load(
        cls,
        path: str,
        disk=None,
        durability: str | None = None,
        group_commit_size: int | None = None,
    ) -> "Database":
        """Reopen a database saved with :meth:`save`.

        Reads the committed manifest, verifies every listed file's size
        and CRC-32C before deserializing a byte, garbage-collects files
        left behind by interrupted saves, and raises structured
        :class:`~repro.errors.CorruptBlobError` /
        :class:`~repro.errors.RecoveryError` naming the offending path
        on any corruption. A pre-manifest directory (root-level
        ``catalog.json``, no checksums) is refused with a
        :class:`~repro.errors.RecoveryError` naming the layout.

        If the directory has a ``wal/`` log (or ``durability`` is given,
        which requests one), the log is recovered and every record past
        the snapshot's checkpoint LSN is replayed, then the log stays
        attached so further statements are durable.
        """
        import json
        from pathlib import Path

        from ..errors import RecoveryError
        from ..storage import persist
        from ..storage.diskio import DiskIO
        from ..storage.snapshot import MANIFEST_NAME, open_snapshot
        from ..wal.log import WAL_DIR_NAME, WriteAheadLog

        disk = disk or DiskIO()
        root = Path(path)
        from ..backup.manifest import RESTORE_MARKER_NAME

        if disk.exists(root / RESTORE_MARKER_NAME):
            raise RecoveryError(
                f"{root} holds an uncommitted restore (its "
                f"{RESTORE_MARKER_NAME} marker is present) — the restore "
                "crashed before completing; re-run it or delete the directory"
            )
        wal_dir = root / WAL_DIR_NAME
        has_wal = disk.is_dir(wal_dir)
        try:
            reader = open_snapshot(disk, root)
        except RecoveryError:
            if not has_wal or disk.exists(root / MANIFEST_NAME):
                # Either there is no log to recover from, or a manifest
                # *exists* but could not be used — that is corruption,
                # not a pre-first-checkpoint directory, and the log was
                # truncated at the snapshot's checkpoint: opening WAL-only
                # would silently present an empty database.
                raise
            # No snapshot yet but a log exists: the database crashed
            # before its first checkpoint — the log holds all state.
            reader = None
        db = cls()
        checkpoint_lsn = 0
        if reader is not None:
            try:
                catalog_entries = json.loads(
                    reader.read("catalog.json").decode("utf-8")
                )
            except (ValueError, UnicodeDecodeError) as exc:
                raise RecoveryError(f"unreadable catalog.json: {exc}") from exc
            for entry in catalog_entries:
                table_schema = persist.schema_from_json(entry["schema"])
                config = persist.config_from_json(entry["config"])
                table = db.create_table(
                    entry["name"], table_schema, storage=entry["storage"], config=config
                )
                if table.columnstore is not None:
                    table.columnstore = persist.load_columnstore(
                        table_schema, config, reader, table.name
                    )
                    table.columnstore.attach_mvcc(db.mvcc)
                if table.rowstore is not None:
                    rows = persist.deserialize_rows(
                        table_schema, reader.read(f"{table.name}/rowstore.rows")
                    )
                    table.rowstore.insert_many(rows)
                for index_name, columns in entry["indexes"].items():
                    table.create_index(index_name, columns)
            checkpoint_lsn = reader.manifest.checkpoint_lsn
            db._stored_segments = reader.stored
        resolved = str(root.resolve())
        if has_wal or durability is not None:
            from ..wal import replay as walreplay

            from ..wal.log import DEFAULT_GROUP_COMMIT_SIZE

            wal, recovery = WriteAheadLog.attach(
                disk,
                wal_dir,
                checkpoint_lsn=checkpoint_lsn,
                durability=durability or "group",
                group_commit_size=group_commit_size or DEFAULT_GROUP_COMMIT_SIZE,
            )
            replayed = walreplay.apply_records(db, recovery.replay_records)
            # Attach only after replay so nothing replayed is re-logged.
            db._wal = wal
            db._wal_root = resolved
            # WAL archiving is on by default for durable databases:
            # sealed segments are copied aside before anything deletes
            # them, which is what makes point-in-time recovery past the
            # latest backup possible. set_archiver also catches up on
            # segments sealed while no archiver was attached.
            from ..backup.archive import ARCHIVE_DIR_NAME, WalArchiver

            wal.set_archiver(WalArchiver(disk, root / ARCHIVE_DIR_NAME))
            if replayed == 0 and reader is not None:
                db._save_fingerprint = db._fingerprint(resolved)
        else:
            db._save_fingerprint = db._fingerprint(resolved)
        return db

    @classmethod
    def open(
        cls,
        path: str,
        disk=None,
        durability: str = "group",
        group_commit_size: int | None = None,
        default_config: StoreConfig | None = None,
    ) -> "Database":
        """Open a durable database at ``path``, creating it if absent.

        The returned database has a write-ahead log attached: every
        facade statement appends a redo record before applying, and
        reopening after a crash replays the committed tail. ``save``
        checkpoints the log.
        """
        from pathlib import Path

        from ..storage.diskio import DiskIO
        from ..storage.snapshot import MANIFEST_NAME
        from ..wal.log import DEFAULT_GROUP_COMMIT_SIZE, WAL_DIR_NAME, WriteAheadLog

        disk = disk or DiskIO()
        root = Path(path)
        existing = (
            disk.exists(root / MANIFEST_NAME)
            or disk.exists(root / "catalog.json")
            or disk.is_dir(root / WAL_DIR_NAME)
        )
        if existing:
            return cls.load(
                path,
                disk=disk,
                durability=durability,
                group_commit_size=group_commit_size,
            )
        db = cls(default_config)
        wal, _ = WriteAheadLog.attach(
            disk,
            root / WAL_DIR_NAME,
            checkpoint_lsn=0,
            durability=durability,
            group_commit_size=group_commit_size or DEFAULT_GROUP_COMMIT_SIZE,
        )
        db._wal = wal
        db._wal_root = str(root.resolve())
        from ..backup.archive import ARCHIVE_DIR_NAME, WalArchiver

        wal.set_archiver(WalArchiver(disk, root / ARCHIVE_DIR_NAME))
        return db

    @staticmethod
    def check(path: str, disk=None):
        """Integrity-scan a saved database without opening it.

        Returns an :class:`~repro.storage.snapshot.IntegrityReport` with
        a per-file verdict (``ok`` / ``missing`` / ``size-mismatch`` /
        ``checksum-mismatch`` / ``undecodable``). Never raises on
        corruption — corruption is the result being reported. Exposed on
        the CLI as ``repro check <dir>`` and the shell's ``\\check``.
        """
        from pathlib import Path

        from ..storage.diskio import DiskIO
        from ..storage.snapshot import check_database

        return check_database(disk or DiskIO(), Path(path))

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #
    # Maintenance operations are deterministic reorganizations of index
    # state, and they are *logged*: later DELETE/UPDATE records address
    # rows by post-reorganization locators, so replay must reproduce the
    # same reorganizations in the same order.
    def _columnstore_table(self, name: str) -> Table:
        target = self.catalog.table(name)
        if target.columnstore is None:
            raise CatalogError(f"table {target.name!r} has no columnstore index")
        return target

    def run_tuple_mover(self, table: str, include_open: bool = False):
        self._require_no_txn("the tuple mover")
        target = self._columnstore_table(table)
        if self._wal is not None:
            from ..wal import replay as walreplay

            self._log(
                WalRecordType.TUPLE_MOVER,
                target.name,
                walreplay.encode_json({"include_open": bool(include_open)}),
            )
        return target.run_tuple_mover(include_open)

    def rebuild(self, table: str) -> None:
        self._require_no_txn("REBUILD")
        target = self._columnstore_table(table)
        if target.storage_kind is StorageKind.BOTH:
            raise CatalogError("REBUILD on BOTH-storage tables is not supported")
        self._log(WalRecordType.REBUILD, target.name, b"")
        target.rebuild_columnstore()

    def vacuum(self, table: str | None = None) -> dict[str, int]:
        """Free MVCC versions no registered reader can see.

        Runs :meth:`ColumnStoreIndex.vacuum` on one table (or all) and
        returns the aggregate ``{"groups", "deltas", "tombstones"}``
        freed counts. Not logged: vacuum changes no visible state, and
        replay's deterministic txn-less GC reproduces it on its own.
        """
        totals = {"groups": 0, "deltas": 0, "tombstones": 0}
        names = [table] if table is not None else self.catalog.table_names()
        for name in names:
            target = self.catalog.table(name)
            if target.columnstore is not None:
                freed = target.columnstore.vacuum()
                for key in totals:
                    totals[key] += freed[key]
        return totals

    def set_archival(self, table: str, enabled: bool) -> None:
        self._require_no_txn("archival compression changes")
        target = self._columnstore_table(table)
        if self._wal is not None:
            from ..wal import replay as walreplay

            self._log(
                WalRecordType.ARCHIVAL,
                target.name,
                walreplay.encode_json({"enabled": bool(enabled)}),
            )
        target.set_archival(enabled)
