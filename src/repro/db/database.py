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
from pathlib import Path
from typing import Any, Iterator, Sequence

from ..errors import CatalogError, PlanningError, TxnError
from ..governance import QueryContext, get_query_registry
from ..governance.context import current as current_query
from ..mvcc import EpochManager
from ..exec.batch import RID_COLUMN
from ..exec.expressions import Column, Expr
from ..observability import ExecutionStats
from ..observability import registry as metrics
from ..planner.logical import LogicalNode, LogicalProject, LogicalScan
from ..planner.optimizer import Optimizer, PhysicalPlan
from ..schema import TableSchema
from ..settings import resolve
from ..sql import runner as pipeline
from ..storage.config import StoreConfig
from ..txn import TxnContext, autocommit
from ..types import DataType
from ..wal import replay as walreplay
from ..wal.record import WalRecordType
from .durability import Durability
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

    def scalar(self) -> Any:
        """The single value of a one-row, one-column result."""
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise PlanningError(
                f"scalar() needs a 1x1 result, got {len(self.rows)}x{len(self.columns)}"
            )
        return self.rows[0][0]


class Database:
    """An in-process analytic database with columnstore + batch mode."""

    def __init__(self, default_config: StoreConfig | None = None) -> None:
        self.catalog = Catalog()
        self.optimizer = Optimizer(self.catalog)
        self.default_config = default_config or StoreConfig()
        # The WAL, checkpoints, recovery and backups (repro.db.durability).
        self.durability = Durability(self)
        # DDL history: every create / drop bumps it (the save fingerprint
        # reads it; rollback restores it).
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
        # The database scope of the runtime settings (repro.settings);
        # sessions overlay their own, statements their keyword arguments.
        self.settings: dict[str, Any] = {}
        # What this facade's own statements run under: a single caller
        # reading the current state, whose SET writes the settings above. Also
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
        return self.durability.wal

    def set_durability(self, mode: str) -> None:
        """Switch the WAL durability mode (per-commit / group / off)."""
        self.durability.set_mode(mode)

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
        self.durability.close()

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
        wal = self.durability.wal
        if wal is not None:
            # The begin marker's own LSN doubles as the transaction id,
            # which makes ids unique, ordered, and free.
            txn_id = wal.last_lsn + 1
            wal.append(WalRecordType.TXN_BEGIN, "", b"", txn_id)
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
        epoch = txn.publish(self.mvcc)
        wal = self.durability.wal
        if wal is not None:
            # The commit marker is what promotes the transaction's
            # records from "present in the log" to "applied by replay";
            # wal.commit() then makes the whole batch durable per the
            # configured durability mode — one fsync for N statements.
            payload = walreplay.encode_commit(epoch)
            wal.append(WalRecordType.TXN_COMMIT, "", payload, txn.txn_id)
            wal.commit()
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
        wal = self.durability.wal
        if wal is not None:
            wal.append(WalRecordType.TXN_ABORT, "", b"", txn.txn_id)
            wal.commit()
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
        REBUILD, archival) act on the whole table; running one
        mid-transaction would either bake uncommitted state into a
        snapshot or fold the transaction's uncommitted rows into row
        groups.
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
        usable), matching SQL statement semantics. In auto-commit mode it
        is :func:`repro.txn.autocommit`.
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
            # Auto-commit: the statement IS the transaction.
            with autocommit(self.mvcc) as txn:
                yield txn

    def _apply_change(self, rtype: WalRecordType, table: str, body: Any) -> Any:
        """Make one validated change and log it: what every logged
        statement runs (recovery runs the same apply for each record).

        ``body`` is the change's physical body. It is encoded first (a
        ROW_GROUPS body writes its segment blobs into the pool then,
        before anything in memory changes); the record kind's apply
        (:data:`repro.wal.replay.CHANGES`) makes the change inside the
        statement's atomic scope, then the record is logged — apply, then
        log, so a change that fails is rolled back and never reaches the
        log. Recovery runs this before the WAL is attached, so nothing is
        logged twice. Returns what the apply returns.
        """
        change = walreplay.CHANGES[rtype]
        if self.durability.wal is None:
            with self._atomic_statement() as txn:
                return change.apply(self, table, body, txn)
        payload = change.encode(self, table, body)
        lsn = None
        try:
            with self._atomic_statement() as txn:
                result = change.apply(self, table, body, txn)
                lsn = self._log_change(rtype, table, payload)
        finally:
            if rtype is WalRecordType.ROW_GROUPS:
                self.durability.logged(payload, lsn)
        return result

    def _log_change(self, rtype: WalRecordType, table: str, payload: bytes) -> int:
        """Log one applied change (append-only inside a transaction).

        Auto-commit statements append **and** commit (their frame is the
        commit unit). Inside an explicit transaction the record is
        stamped with the txn id and merely appended — it only becomes
        meaningful to replay if the TXN_COMMIT marker lands, and
        durability waits for :meth:`commit`. Maintenance refuses to run
        inside a transaction, so it always takes the auto-commit path.
        """
        if self._txn is not None:
            return self.durability.wal.append(rtype, table, payload, self._txn.txn_id)
        return self.durability.wal.log_statement(rtype, table, payload)

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
        body = (schema, StorageKind(storage), config or self.default_config)
        return self._apply_change(WalRecordType.CREATE_TABLE, name, body)

    def drop_table(self, name: str) -> None:
        self._apply_change(WalRecordType.DROP_TABLE, name, None)

    def create_index(self, table: str, index_name: str, columns: list[str]):
        """Create a secondary row-store index (the logged DDL path)."""
        target = self.catalog.table(table)
        return self._apply_change(
            WalRecordType.CREATE_INDEX, target.name, (index_name, list(columns))
        )

    def table(self, name: str) -> Table:
        return self.catalog.table(name)

    # ------------------------------------------------------------------ #
    # DML
    # ------------------------------------------------------------------ #
    # DML statements share one shape: validate and coerce *before* the
    # atomic scope (a failure there touches nothing), then apply with
    # undo recording, then log (_apply_change). Apply-then-log means a
    # statement that fails mid-apply is rolled back to the exact
    # pre-statement state AND never reaches the log — replay cannot
    # diverge from memory.
    def insert(self, table: str, rows: Sequence[Sequence[Any]]) -> int:
        """Trickle-insert rows (columnstores route through delta stores)."""
        target = self.catalog.table(table)
        physical = [target.schema.coerce_row(row) for row in rows]
        return self._apply_change(WalRecordType.INSERT, target.name, physical)

    def bulk_load(self, table: str, rows: Sequence[Sequence[Any]]) -> int:
        """Bulk-load rows, coerced as columns (``coerce_columns``). A large
        load into a columnstore compresses directly into row groups and
        logs the blobs it wrote (ROW_GROUPS); any other is logged and
        applied as rows (BULK_LOAD)."""
        target = self.catalog.table(table)
        physical = target.schema.coerce_columns(rows)
        change = target.plan_bulk_load(physical)
        if change is None:
            return self._apply_change(WalRecordType.BULK_LOAD, target.name, physical)
        return self._apply_change(WalRecordType.ROW_GROUPS, target.name, change)

    def delete_where(self, table: str, predicate: Expr | None) -> int:
        """DELETE ... WHERE: the rows its plans find (:meth:`dml_plans`)
        leave every storage.

        Returns the number of *logical* rows deleted — on BOTH-storage
        tables each logical row lives in two storages, and the count is
        authoritative regardless of which storages held it
        (:meth:`Table.delete_rows`).
        """
        return self.apply_dml(table, None, predicate)[0]

    def update_where(
        self,
        table: str,
        assignments: dict[str, Expr],
        predicate: Expr | None,
    ) -> int:
        """UPDATE ... SET ... WHERE, executed as delete + insert of the
        rows its plans compute (:meth:`dml_plans`)."""
        return self.apply_dml(table, assignments, predicate)[0]

    def dml_plans(
        self, table: str, assignments: dict[str, Expr] | None, predicate: Expr | None
    ) -> list[LogicalNode]:
        """The plans a DELETE (``assignments`` None) or an UPDATE reads
        through: per storage of the table, row store first, a scan with
        the WHERE predicate emitting the matching rows' addresses
        (``RID_COLUMN``). An UPDATE's first plan also emits each new row,
        a projection of the SET expressions over the columns they leave."""
        target = self.catalog.table(table)
        names = target.schema.names
        unknown = set(assignments or ()) - set(names)
        if unknown:
            raise CatalogError(f"unknown columns in SET: {sorted(unknown)}")
        plans: list[LogicalNode] = []
        for storage, store in (("rowstore", target.rowstore), ("columnstore", target.columnstore)):
            if store is None:
                continue
            reads = names if assignments is not None and not plans else []
            projections = {**{name: name for name in reads}, RID_COLUMN: RID_COLUMN}
            plan: LogicalNode = LogicalScan(target.name, projections, predicate, storage)
            if reads:
                plan = LogicalProject(
                    plan,
                    [(RID_COLUMN, Column(RID_COLUMN))]
                    + [(name, assignments.get(name, Column(name))) for name in names],
                )
            plans.append(plan)
        return plans

    def apply_dml(
        self,
        table: str,
        assignments: dict[str, Expr] | None,
        predicate: Expr | None,
        stats: bool = False,
    ) -> tuple[int, list[ExecutionStats | None]]:
        """Run a DELETE's or UPDATE's plans (:meth:`dml_plans`) under the
        statement's settings, as a SELECT's, then apply what they found;
        the rows affected and each plan's stats (with ``stats``).

        The plans resolve the predicate to addresses *before* anything
        changes: the redo record carries addresses, not the predicate, so
        replay is independent of scan order (and predicates need no
        serializer).
        """
        target = self.catalog.table(table)
        settings = getattr(current_query(), "settings", None) or resolve(self.settings)
        found: list[list[tuple]] = []
        executions: list[ExecutionStats | None] = []
        for plan in self.dml_plans(table, assignments, predicate):
            physical = self.optimizer.compile(plan, settings, optimize=False)
            rows, execution = pipeline.run_physical(
                self.isolation, physical, lock_free=True, stats=stats
            )
            found.append(rows)
            executions.append(execution)
        if not any(found):
            return 0, executions
        rids = [row[0] for row in found[0]] if target.rowstore is not None else []
        locators = [row[0] for row in found[-1]] if target.columnstore is not None else []
        rtype, body = WalRecordType.DELETE, (rids, locators)
        if assignments is not None:
            rows = _new_rows(target.schema, assignments, [row[1:] for row in found[0]])
            rtype, body = WalRecordType.UPDATE, (rids, locators, rows)
        return self._apply_change(rtype, target.name, body), executions

    # ------------------------------------------------------------------ #
    # Governance (query contexts)
    # ------------------------------------------------------------------ #
    def new_query_context(
        self,
        sql: str = "",
        session: str | None = None,
        settings: dict[str, Any] | None = None,
    ) -> QueryContext:
        """A registered-id :class:`QueryContext` for one statement.

        ``settings`` are the statement's, resolved
        (:func:`repro.settings.resolve`; this database's own when not
        given); a limit of None or 0 means "no limit".
        """
        if settings is None:
            settings = resolve(self.settings)
        return QueryContext(
            get_query_registry().next_query_id(),
            sql=sql,
            session=session,
            timeout_ms=settings["statement_timeout"] or None,
            memory_budget_bytes=settings["query_memory_budget"] or None,
            memory_limit_bytes=settings["query_memory_limit"] or None,
            settings=settings,
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

    def compile(self, plan: LogicalNode, optimize: bool = True, **overrides: Any) -> PhysicalPlan:
        """Optimize + build a physical plan (see Optimizer.compile) under
        this database's settings and ``overrides``."""
        return self.optimizer.compile(plan, resolve(self.settings, None, overrides), optimize)

    def execute(self, plan: LogicalNode, stats: bool = False, **overrides: Any) -> Result:
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
        ``overrides`` are the statement's settings (:mod:`repro.settings`).
        """
        settings = resolve(self.settings, None, overrides)
        with pipeline.governing(self, self.isolation, f"<plan:{type(plan).__name__}>", settings):
            return pipeline.execute_plan(
                self, plan, self.isolation, stats=stats, settings=settings
            )

    def sql(self, text: str, stats: bool = False, **overrides: Any) -> Result | None:
        """Execute a SQL statement; queries return a :class:`Result`.

        A thin caller of the statement pipeline
        (:func:`repro.sql.runner.run_statement`) with this facade's own
        isolation: a single caller on the current state. ``overrides``
        are the statement's settings (:mod:`repro.settings`).
        """
        return pipeline.run_statement(self, text, self.isolation, stats, **overrides)

    def explain(self, text_or_plan: str | LogicalNode, **overrides: Any) -> str:
        """The optimized logical + physical plan as text."""
        settings = resolve(self.settings, None, overrides)
        return self.optimizer.compile(self._bound(text_or_plan, settings), settings).explain()

    def explain_analyze(self, text_or_plan: str | LogicalNode, **overrides: Any) -> str:
        """Run a query as :meth:`execute` does and render the plan annotated
        with runtime stats: every operator's actual rows, batches and
        inclusive time (plus grant peaks and spill bytes), its own
        counters, and the storage-counter delta."""
        plan = self._bound(text_or_plan, resolve(self.settings, None, overrides))
        return self.execute(plan, stats=True, **overrides).stats.render()

    def _bound(self, text_or_plan: str | LogicalNode, settings) -> LogicalNode:
        if isinstance(text_or_plan, str):
            return pipeline.plan_query(self, text_or_plan, settings)
        return text_or_plan

    # ------------------------------------------------------------------ #
    # Persistence (repro.db.durability)
    # ------------------------------------------------------------------ #
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
        ``force=True`` to override), and so is one while a hot backup
        is copying.
        """
        self.durability.save(path, disk, force)

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
        and checksum before deserializing a byte, garbage-collects files
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
        return cls().durability.recover(Path(path), disk, durability, group_commit_size, False)

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
        facade statement appends a redo record after applying, and
        reopening after a crash replays the committed tail. ``save``
        checkpoints the log. ``default_config`` is the configuration of
        tables created from now on, whether ``path`` is new or not. A
        directory an earlier build wrote is upgraded once, and one stamped
        with a newer format is refused (:meth:`Durability.recover
        <repro.db.durability.Durability.recover>`).
        """
        return cls(default_config).durability.recover(
            Path(path), disk, durability, group_commit_size, True
        )

    @staticmethod
    def check(path: str, disk=None):
        """Integrity-scan a saved database without opening it.

        Returns an :class:`~repro.storage.snapshot.IntegrityReport` with
        a per-file verdict (``ok`` / ``missing`` / ``size-mismatch`` /
        ``checksum-mismatch`` / ``undecodable``). Never raises on
        corruption — corruption is the result being reported — but
        refuses a directory stamped with a newer format. Exposed on
        the CLI as ``repro check <dir>`` and the shell's ``\\check``.
        """
        return Durability.check(path, disk)

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #
    # Maintenance operations are deterministic reorganizations of index
    # state, and they are *logged*: later DELETE/UPDATE records address
    # rows by post-reorganization locators, so replay must reproduce the
    # same reorganizations in the same order. Each is planned (its row
    # groups compressed), then logged as the row groups it installs
    # (ROW_GROUPS). They refuse to run inside a transaction; like any
    # statement, one that fails is rolled back.
    def run_tuple_mover(self, table: str, include_open: bool = False):
        self._require_no_txn("the tuple mover")
        target = self.catalog.table(table)
        change = target.plan_tuple_mover(include_open)
        return self._apply_change(WalRecordType.ROW_GROUPS, target.name, change)

    def rebuild(self, table: str) -> None:
        self._require_no_txn("REBUILD")
        target = self.catalog.table(table)
        self._apply_change(WalRecordType.ROW_GROUPS, target.name, target.plan_rebuild())

    def vacuum(self, table: str | None = None) -> dict[str, int]:
        """Free MVCC versions no registered reader can see.

        Runs :meth:`ColumnStoreIndex.vacuum` on one table (or all) and
        returns the aggregate ``{"groups", "deltas", "tombstones"}``
        freed counts. Not logged: vacuum changes no visible state and no
        row's address.
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
        target = self.catalog.table(table)
        change = target.plan_archival(enabled)
        self._apply_change(WalRecordType.ROW_GROUPS, target.name, change)


def _new_rows(schema: TableSchema, assignments: dict[str, Expr], found: list[tuple]) -> list[tuple]:
    """An UPDATE's new rows from the physical values its plan found: a
    column whose SET expression (the column itself when it is not set)
    has the column's type keeps its value, checked as a coerced one is
    (:meth:`TableSchema.coerce_row`); across types a value is presented,
    then coerced."""
    types = [assignments.get(name, Column(name)).infer_dtype(schema.dtype) for name in schema.names]
    own = [(t.kind, t.scale) == (c.dtype.kind, c.dtype.scale) for t, c in zip(types, schema.columns)]
    return [
        schema.coerce_row([v if kept else t.present(v) for v, t, kept in zip(row, types, own)], own)
        for row in found
    ]
