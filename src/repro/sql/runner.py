"""The statement pipeline: the one way a SQL statement runs.

lex → (a cached shape, or parse) → classify (control / read / write) →
govern → isolate → bind → compile → pin → run → present.
``Database.sql``, ``Database.execute``, ``Session.sql``,
``ConcurrentDatabase.sql``, the server and the shell are thin callers of
:func:`run_statement` / :func:`execute_plan` that differ only in the
:class:`Isolation` object they pass (DESIGN.md "Statement pipeline").

A SELECT, INSERT, UPDATE or DELETE is bound once per *shape* and catalog
version: its text with each literal replaced by its class. The next
statement of that shape skips parse, bind and optimize and binds its own
literals into a copy of the kept template (DESIGN.md "Statement shapes").
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, NamedTuple

from ..errors import BindingError, CatalogError, SqlSyntaxError
from ..exec import expressions as X
from ..exec.operators.scan import ColumnStoreScan
from ..exec.row_engine import RowColumnStoreScan
from ..governance import context as governance
from ..governance import get_query_registry, governed
from ..observability import registry as metrics
from ..planner.logical import LogicalJoin, LogicalNode
from ..planner.rewrite import map_expression, map_plan
from ..planner.schema_infer import infer_output_dtypes
from ..schema import ColumnDef, TableSchema
from ..types import BIGINT, BOOL, DATE, FLOAT, INT, VARCHAR, DataType, decimal, varchar
from . import ast as A
from .binder import Binder, _Namespace
from .lexer import Lexed, lex
from .parser import parse_statement

_TYPE_CONSTRUCTORS = {
    "int": lambda params: INT,
    "integer": lambda params: INT,
    "bigint": lambda params: BIGINT,
    "float": lambda params: FLOAT,
    "double": lambda params: FLOAT,
    "real": lambda params: FLOAT,
    "date": lambda params: DATE,
    "bool": lambda params: BOOL,
    "boolean": lambda params: BOOL,
    "varchar": lambda params: varchar(params[0]) if params else VARCHAR,
    "text": lambda params: VARCHAR,
    "string": lambda params: VARCHAR,
    "decimal": lambda params: decimal(params[1] if len(params) > 1 else 0),
    "numeric": lambda params: decimal(params[1] if len(params) > 1 else 0),
}


# Classify: control statements touch no table data and stay ungoverned
# (KILL must work when every governed statement is stuck); reads and
# writes are governed and isolated.
_CONTROL = (
    A.BeginStatement,
    A.CommitStatement,
    A.RollbackStatement,
    A.SetStatement,
    A.ShowStatement,
    A.KillStatement,
)
_READS = (A.SelectStatement, A.ExplainStatement)
_DML = (A.InsertStatement, A.UpdateStatement, A.DeleteStatement)


class Isolation:
    """Who owns a statement, and what keeps it apart from the others.

    The one thing the front doors differ in. ``Database`` owns a bare
    one (nothing set): a single caller, so reads and writes run on the
    live structures with no lock, latch or lease, and ``SET`` writes the
    database-wide settings. A :class:`~repro.concurrency.Session` *is*
    one with ``lock`` and ``latches`` set: reads run on a reader lease
    at an epoch, writes take a lock side, ``SET`` writes its own overlay.

    The object is also the **ownership token**: the write lock, a table
    latch and an open transaction are held by *it*, never by a thread,
    so any thread driving the session may continue or end its
    transaction and a dead thread's ident can hand nothing on.
    """

    def __init__(self, name=None, lock=None, latches=None, settings=None) -> None:
        self.name = name  # governance / lease tag, error messages
        self.lock = lock  # database ReadWriteLock; None = single caller
        self.latches = latches  # TableLatches for columnstore auto-commit DML
        # Where SET writes and what overlays the database settings; an
        # explicit 0 switches a database-wide default off.
        self.settings: dict[str, int] = {} if settings is None else settings
        self.lease = None  # reader lease held across statements
        self.in_txn = False  # owns the open transaction (+ the write lock)
        self.running_query_id: int | None = None


def run_statement(db, sql: str, isolation: Isolation | None = None, **options: Any):
    """The statement pipeline, end to end; every front door calls this.

    lex → a kept template (:func:`_run_template`), or parse → classify →
    govern → (:func:`run_parsed`:) isolate → bind → compile → pin → run →
    present. Queries return a Result; DML a Result with one
    ``rows_affected`` value; DDL and most control return None.
    """
    isolation = isolation or db.isolation
    lexed = lex(sql)  # pure text work: nothing held yet
    found = _cached(db, lexed)
    if found is not None:
        with governing(db, isolation, sql):
            return _run_template(db, sql, lexed, found, isolation, options)
    statement = parse_statement(sql, lexed.tokens)
    if isinstance(statement, _CONTROL):
        metrics.increment("sql.shapes.not_kept.statement")
        return run_parsed(db, statement, isolation, lexed, **options)
    with governing(db, isolation, sql):
        return run_parsed(db, statement, isolation, lexed, **options)


@contextmanager
def governing(db, isolation: Isolation, sql: str):
    """Govern: open a QueryContext unless an outer statement's is active.

    The context carries the database settings under the isolation's
    ``SET`` overlay, so a deadline or KILL interrupts the statement even
    while it waits for a lock side or a latch.
    """
    if governance.current() is not None:
        yield
        return
    ctx = db.new_query_context(
        sql=sql, session=isolation.name, settings=isolation.settings
    )
    isolation.running_query_id = ctx.query_id
    try:
        with governed(ctx):
            yield
    finally:
        isolation.running_query_id = None


def run_parsed(db, statement: Any, isolation: Isolation, lexed: Lexed, **options: Any):
    """Everything after *govern* for one parsed statement."""
    if isinstance(statement, _READS):
        return _run_read(db, statement, isolation, lexed, options)
    if isinstance(statement, _CONTROL):
        return _run_control(db, statement, isolation)
    with _write_side(db, statement.table if isinstance(statement, _DML) else None, isolation):
        return _apply(db, statement, lexed)


# ---------------------------------------------------------------------- #
# Reads: isolate → bind → compile → pin → run → present
# ---------------------------------------------------------------------- #
@contextmanager
def _read_epoch(db, isolation: Isolation):
    """Isolate a read: ``None`` = the live structures, else a lease epoch.

    A single caller, or a session inside its own transaction (which
    holds the exclusive side and must read its own writes), reads live.
    Everyone else reads the latest committed epoch through a reader
    lease — the one held across statements if there is one.
    """
    if isolation.lock is None or isolation.in_txn:
        yield None
        return
    held = isolation.lease
    lease = held if held is not None else db.mvcc.readers.pin(tag=isolation.name)
    try:
        ctx = governance.current()
        if ctx is not None:
            ctx.epoch = lease.epoch
        yield lease.epoch
    finally:
        if lease is not held:
            lease.release()


def make_binder(db, isolation: Isolation | None = None, epoch: int | None = None):
    """A binder whose uncorrelated subqueries read what the statement reads.

    The binder runs scalar/IN subqueries *at bind time*; they go through
    the same compile → pin → run as the outer plan, so a statement at
    ``epoch`` stays on one snapshot, subqueries included.
    """

    def executor(plan):
        physical, lock_free = prepare(db, plan, epoch)
        return run_physical(isolation, physical, lock_free)[0]

    return Binder(db.catalog, executor=executor)


def pin_plan(physical, epoch: int) -> bool:
    """Pin every columnstore scan leaf of a compiled plan to ``epoch``.

    Returns True when the plan is *fully pinned* — every leaf reads
    columnstore structures through a pinned capture — so it may run with
    no lock held. Leaves that read row-store structures in place (heap
    scans, index seeks) make it unpinned; their writers take the
    exclusive side, so the shared side is the right protection for them.
    """
    fully_pinned = True
    stack = [physical.root]
    while stack:
        op = stack.pop()
        children = op.child_operators()
        if children:
            stack.extend(children)
        elif isinstance(op, (ColumnStoreScan, RowColumnStoreScan)):
            op.pin(epoch)
        else:
            fully_pinned = False
    return fully_pinned


def prepare(db, plan: LogicalNode, epoch: int | None = None, **options: Any):
    """Compile → pin: ``(physical, lock_free)`` for a bound SELECT.

    ``epoch=None`` compiles against the live structures (the caller is
    alone or exclusive, so that is lock-free by construction).
    """
    physical = db.optimizer.compile(plan, **options)
    if epoch is None:
        return physical, True
    if pin_plan(physical, epoch):
        metrics.increment("mvcc.lockfree_reads")
        metrics.increment("concurrency.pinned_statements")
        return physical, True
    metrics.increment("concurrency.locked_statements")
    return physical, False


def run_physical(isolation, physical, lock_free: bool, stats: bool = False, dtypes=None):
    """Run: ``(rows, ExecutionStats | None)`` of a prepared plan — rows of
    physical values, or presented ones given the result columns' types.

    A plan with in-place row-store leaves runs under the shared side;
    its columnstore leaves stay pinned either way, which is what keeps a
    concurrent latch writer's uncommitted state invisible.
    """
    if not lock_free:
        isolation.lock.acquire_read(isolation)
    try:
        if stats:
            return physical.run_with_stats(dtypes)
        return list(physical.rows(dtypes)), None
    finally:
        if not lock_free:
            isolation.lock.release_read()


def execute_plan(
    db,
    plan: LogicalNode,
    isolation: Isolation,
    epoch: int | None = None,
    stats: bool = False,
    dtypes: list[DataType] | None = None,
    **options: Any,
):
    """Compile → pin → run → present for one bound SELECT; ``dtypes``
    are its output columns' types (inferred when not given)."""
    if dtypes is None:
        by_name = infer_output_dtypes(plan, db.catalog)
        dtypes = [by_name[name] for name in plan.output_names()]
    physical, lock_free = prepare(db, plan, epoch, **options)
    rows, execution_stats = run_physical(isolation, physical, lock_free, stats, dtypes)
    return _result(physical.columns, dtypes, rows, execution_stats)


def _run_read(db, statement, isolation: Isolation, lexed: Lexed, options: dict[str, Any]):
    """SELECT and EXPLAIN [ANALYZE]: the same stages, a different last one."""
    stats = bool(options.pop("stats", False))
    with _read_epoch(db, isolation) as epoch:
        if isinstance(statement, A.SelectStatement):
            return _select(db, statement, isolation, epoch, stats, lexed, options)
        metrics.increment("sql.shapes.not_kept.statement")
        binder = make_binder(db, isolation, epoch)
        physical, lock_free = prepare(
            db, binder.bind_select(statement.select), epoch, **options
        )
        if statement.analyze:  # ANALYZE decides stats collection itself
            text = run_physical(isolation, physical, lock_free, stats=True)[1].render()
        else:
            text = physical.explain()
    return _result(["plan"], [VARCHAR], [(line,) for line in text.split("\n")])


def plan_query(db, sql: str) -> LogicalNode:
    """Parse + bind a SELECT (or EXPLAIN-wrapped SELECT) for EXPLAIN."""
    statement = parse_statement(sql)
    if isinstance(statement, A.ExplainStatement):
        statement = statement.select
    if not isinstance(statement, A.SelectStatement):
        raise SqlSyntaxError("EXPLAIN expects a SELECT statement")
    return make_binder(db).bind_select(statement)


# ---------------------------------------------------------------------- #
# Writes: isolate → apply (bind + Database DML/DDL) → present
# ---------------------------------------------------------------------- #
@contextmanager
def _write_side(db, table: str | None, isolation: Isolation):
    """Isolate a write to ``table`` (None: DDL): nothing, the exclusive
    side, or shared + latch.

    Auto-commit DML on a columnstore-only table touches that table's
    structures plus internally locked shared services (WAL, epoch
    manager, metrics): it takes the shared side (it must not overlap
    DDL, explicit transactions, maintenance or save) and its table's
    write latch, so writers on disjoint tables commit concurrently.
    Row-store and BOTH-storage tables have row-id allocation and index
    structures the read path walks in place, so their writers — and all
    DDL — take the exclusive side. Lock order: shared side, then one
    latch. A single caller, or a session inside its own transaction
    (exclusive since BEGIN), takes nothing.
    """
    lock = isolation.lock
    if lock is None or isolation.in_txn:
        yield
        return
    latch = None
    if isolation.latches is not None and table is not None:
        try:
            target = db.catalog.table(table)
        except CatalogError:
            target = None  # unknown table: let the statement raise normally
        if target is not None and target.rowstore is None:
            latch = isolation.latches.latch(target.name)
    if latch is None:
        lock.acquire_write(isolation)
        try:
            yield
        finally:
            lock.release_write(isolation)
        return
    lock.acquire_read(isolation)
    try:
        latch.acquire(isolation)
        try:
            yield
        finally:
            latch.release(isolation)
    finally:
        lock.release_read()


def _apply(db, statement: Any, lexed: Lexed):
    """Bind a write and apply it; an INSERT, UPDATE or DELETE through the
    template it is kept as."""
    if isinstance(statement, _DML):
        return _apply_template(db, _dml_template(db, statement, lexed), lexed.literals)
    metrics.increment("sql.shapes.not_kept.statement")
    if isinstance(statement, A.CreateTableStatement):
        _run_create_table(db, statement)
        return None
    if isinstance(statement, A.DropTableStatement):
        db.drop_table(statement.table)
        return None
    raise SqlSyntaxError(f"unsupported statement {type(statement).__name__}")


def _affected(count: int):
    return _result(["rows_affected"], [BIGINT], [(count,)])


def _result(columns, dtypes, rows, stats=None):
    from ..db.database import Result

    return Result(columns=columns, dtypes=dtypes, rows=rows, stats=stats)


# ---------------------------------------------------------------------- #
# Statement shapes: bound once per catalog version
# ---------------------------------------------------------------------- #
# Keys (shape, catalog version) per database, least recently used out;
# templates per key, differing only in their fixed literals, oldest out.
_SHAPES_KEPT = 256
_TEMPLATES_PER_SHAPE = 8
_shapes_lock = threading.Lock()

# Every template's ``fixed`` holds (slot, text) of the literals that are
# not parameters — folded, read as text by the binder, or never a
# ``Literal`` at all (IN lists, LIKE patterns, LIMIT, ORDER BY ordinals):
# a statement uses the template only if it repeats those texts.


class _Select(NamedTuple):
    """A SELECT bound and optimized, and its output columns' types."""

    fixed: tuple[tuple[int, str], ...]
    plan: LogicalNode
    dtypes: tuple[DataType, ...]


class _Write(NamedTuple):
    """INSERT (``rows``: per table column a ``Literal``), UPDATE
    (``assignments`` and ``predicate``) or DELETE (``predicate``)."""

    fixed: tuple[tuple[int, str], ...]
    table: str
    rows: tuple[tuple[X.Literal, ...], ...] | None
    assignments: tuple[tuple[str, X.Expr], ...] | None
    predicate: X.Expr | None


def _cached(db, lexed: Lexed):
    """``(template, catalog version)`` kept for this statement, or None."""
    key = (lexed.shape, db.catalog.version)
    with _shapes_lock:
        templates = db.shapes.get(key)
        if templates is None:
            return None
        db.shapes.move_to_end(key)
    literals = lexed.literals
    for template in templates:
        if all(literals[slot].text == text for slot, text in template.fixed):
            return template, key[1]
    return None


def _keep(db, lexed: Lexed, version: int, template) -> None:
    key = (lexed.shape, version)
    with _shapes_lock:
        others = [t for t in db.shapes.pop(key, ()) if t.fixed != template.fixed]
        db.shapes[key] = (template, *others[: _TEMPLATES_PER_SHAPE - 1])
        evicted = len(others[_TEMPLATES_PER_SHAPE - 1 :])
        while len(db.shapes) > _SHAPES_KEPT:
            evicted += len(db.shapes.popitem(last=False)[1])
    metrics.increment("sql.shapes.misses")
    if evicted:
        metrics.increment("sql.shapes.evicted", evicted)


def _fixed(literals, params: set[int]) -> tuple[tuple[int, str], ...]:
    return tuple((slot, token.text) for slot, token in enumerate(literals) if slot not in params)


def _params(walk) -> set[int]:
    """Slots of the ``Literal`` s that ``walk(leaf_fn)`` visits."""
    slots: set[int] = set()

    def record(node: X.Expr) -> None:
        if type(node) is X.Literal and node.slot is not None:
            slots.add(node.slot)

    walk(record)
    return slots


def _filler(literals):
    """A leaf function putting this statement's literals in a template's
    place, coerced as the template's were; never mutates the template."""

    def fill(node: X.Expr) -> X.Expr | None:
        if type(node) is X.Literal and node.slot is not None:
            value = literals[node.slot].value
            if node.coerce is not None:
                value = node.coerce(value)
            return X.Literal(value, node.dtype, node.slot, node.coerce)
        return None

    return fill


def _run_template(db, sql: str, lexed: Lexed, found, isolation: Isolation, options):
    """Isolate, then run through the kept template. The lookup preceded
    isolation: if a DDL ran in between, bind afresh under the side held."""
    template, version = found
    if isinstance(template, _Select):
        stats = bool(options.pop("stats", False))
        with _read_epoch(db, isolation) as epoch:
            if db.catalog.version != version:
                statement = parse_statement(sql, lexed.tokens)
                return _select(db, statement, isolation, epoch, stats, lexed, options)
            metrics.increment("sql.shapes.hits")
            return _run_select(db, template, lexed.literals, isolation, epoch, stats, options)
    with _write_side(db, template.table, isolation):
        if db.catalog.version != version:
            return _apply(db, parse_statement(sql, lexed.tokens), lexed)
        metrics.increment("sql.shapes.hits")
        return _apply_template(db, template, lexed.literals)


def _select(db, statement, isolation, epoch, stats: bool, lexed: Lexed, options):
    """Bind a SELECT and run it, kept as a template unless its plan
    depends on literal values: a join's sides and bitmaps follow
    estimates, a subquery's result is in the plan."""
    version = db.catalog.version
    binder = make_binder(db, isolation, epoch)
    plan = binder.bind_select(statement)
    reason = "subquery" if binder.ran_subquery else "join" if _has_join(plan) else None
    if reason is not None:
        metrics.increment(f"sql.shapes.not_kept.{reason}")
        return execute_plan(db, plan, isolation, epoch, stats, **options)
    by_name = infer_output_dtypes(plan, db.catalog)
    plan = db.optimizer.optimize(plan)
    params = _params(lambda record: map_plan(plan, record)) - binder.pinned
    dtypes = tuple(by_name[name] for name in plan.output_names())
    template = _Select(_fixed(lexed.literals, params), plan, dtypes)
    _keep(db, lexed, version, template)
    return _run_select(db, template, lexed.literals, isolation, epoch, stats, options)


def _run_select(db, template: _Select, literals, isolation, epoch, stats: bool, options):
    plan = map_plan(template.plan, _filler(literals))
    return execute_plan(
        db, plan, isolation, epoch, stats, list(template.dtypes), optimize=False, **options
    )


def _has_join(node: LogicalNode) -> bool:
    return isinstance(node, LogicalJoin) or any(_has_join(c) for c in node.children())


def _dml_template(db, statement, lexed: Lexed):
    """Bind an INSERT, UPDATE or DELETE; kept unless a subquery ran."""
    version = db.catalog.version
    binder = make_binder(db)
    rows = assignments = predicate = None
    if isinstance(statement, A.InsertStatement):
        rows = _insert_rows(db, statement)
    else:
        namespace = _table_namespace(db, statement.table)
        if isinstance(statement, A.UpdateStatement):
            assignments = tuple(_assignments(db, binder, namespace, statement))
        if statement.where is not None:
            predicate = binder._bind_scalar(statement.where, namespace)
    exprs = [e for row in rows or () for e in row] + [e for _, e in assignments or ()]
    exprs += [predicate] if predicate is not None else []
    params = _params(lambda record: [map_expression(e, record) for e in exprs])
    template = _Write(
        _fixed(lexed.literals, params), statement.table, rows, assignments, predicate
    )
    if binder.ran_subquery:
        metrics.increment("sql.shapes.not_kept.subquery")
    else:
        _keep(db, lexed, version, template)
    return template


def _apply_template(db, template: _Write, literals):
    """The write a template stands for, with this statement's literals."""
    fill = _filler(literals)
    if template.rows is not None:
        rows = [tuple((fill(e) or e).value for e in row) for row in template.rows]
        return _affected(db.insert(template.table, rows))
    assignments = None
    if template.assignments is not None:  # coerced before the predicate, as bound
        assignments = {name: map_expression(e, fill) for name, e in template.assignments}
    predicate = None if template.predicate is None else map_expression(template.predicate, fill)
    if assignments is None:
        return _affected(db.delete_where(template.table, predicate))
    return _affected(db.update_where(template.table, assignments, predicate))


def _insert_rows(db, statement: A.InsertStatement):
    """Per row, a ``Literal`` per table column: the written one (its slot
    kept) or the constant the VALUES expression evaluates to."""
    schema = db.table(statement.table).schema
    if statement.columns is None:
        positions = list(range(len(schema)))
    else:
        positions = [schema.position(c) for c in statement.columns]
    rows = []
    for value_exprs in statement.rows:
        if len(value_exprs) != len(positions):
            raise BindingError(
                f"INSERT row has {len(value_exprs)} values for {len(positions)} columns"
            )
        row = [X.Literal(None)] * len(schema)
        for position, expr in zip(positions, value_exprs):
            slot = expr.slot if isinstance(expr, A.ELiteral) else None
            row[position] = X.Literal(_constant_value(expr), slot=slot)
        rows.append(tuple(row))
    return tuple(rows)


def _assignments(db, binder: Binder, namespace: _Namespace, statement: A.UpdateStatement):
    table = db.table(statement.table)
    for column, expr in statement.assignments:
        dtype: DataType = table.schema.dtype(column)
        if isinstance(expr, A.ELiteral):
            # Literals coerce to the target column's physical form.
            value = dtype.coerce(expr.value) if expr.value is not None else None
            yield column, X.Literal(value, dtype, expr.slot, dtype.coerce)
        else:
            yield column, binder._bind_scalar(expr, namespace)


# ---------------------------------------------------------------------- #
# Control: transactions, SET / SHOW / KILL
# ---------------------------------------------------------------------- #
def _run_control(db, statement: Any, isolation: Isolation):
    if isinstance(statement, A.BeginStatement):
        return _begin(db, isolation)
    if isinstance(statement, (A.CommitStatement, A.RollbackStatement)):
        return end_transaction(
            db, isolation, commit=isinstance(statement, A.CommitStatement)
        )
    if isinstance(statement, A.SetStatement):
        name = db.setting_name(statement.name)
        if statement.value is None:  # DEFAULT: fall back to what lies under
            isolation.settings.pop(name, None)
        else:
            isolation.settings[name] = max(0, int(statement.value))
        return None
    if isinstance(statement, A.ShowStatement):
        return _run_show(db, statement, isolation)
    killed = get_query_registry().kill(statement.query_id)
    return _result(["killed"], [BIGINT], [(int(killed),)])


def _begin(db, isolation: Isolation) -> None:
    """BEGIN: take the exclusive side until COMMIT/ROLLBACK.

    An explicit transaction serializes the world, and it is owned by the
    isolation object: the Database refuses to let any other end it. A
    nested BEGIN takes nothing and lets the Database raise.
    """
    take = isolation.lock is not None and not isolation.in_txn
    if take:
        isolation.lock.acquire_write(isolation)
    try:
        db.begin(isolation)
    except BaseException:
        if take:
            isolation.lock.release_write(isolation)
        raise
    isolation.in_txn = True


def end_transaction(db, isolation: Isolation, commit: bool) -> None:
    """COMMIT / ROLLBACK, and what closing a session mid-transaction runs.

    Without an open transaction of its own the Database raises (no
    transaction, or another owner's) and nothing is held to release.
    Even if COMMIT fails the transaction slot is in doubt; a held lock
    would wedge every other session, so it is released regardless.
    """
    try:
        if commit:
            db.commit(isolation)
        else:
            db.rollback(isolation)
    finally:
        if isolation.in_txn:
            isolation.in_txn = False
            if isolation.lock is not None:
                isolation.lock.release_write(isolation)


def _run_show(db, statement: A.ShowStatement, isolation: Isolation):
    """``SHOW QUERIES`` (registry listing) or ``SHOW <setting>``."""
    if statement.name == "queries":
        rows = []
        for ctx in get_query_registry().list_running():
            info = ctx.describe()
            rows.append(
                (
                    info["query_id"],
                    info["session"] or "",
                    info["state"],
                    float(info["elapsed_ms"]),
                    info["timeout_ms"] if info["timeout_ms"] is not None else 0,
                    info["reserved_bytes"],
                    info["sql"],
                    # MVCC snapshot epoch of a lock-free read (0 =
                    # not reading from a pinned snapshot). Appended
                    # last so positional consumers stay valid.
                    info["epoch"] if info["epoch"] is not None else 0,
                )
            )
        return _result(
            [
                "query_id",
                "session",
                "state",
                "elapsed_ms",
                "timeout_ms",
                "reserved_bytes",
                "sql",
                "epoch",
            ],
            [BIGINT, VARCHAR, VARCHAR, FLOAT, BIGINT, BIGINT, VARCHAR, BIGINT],
            rows,
        )
    name = db.setting_name(statement.name)
    value = isolation.settings.get(name, db.settings.get(name))
    return _result([statement.name], [BIGINT], [(value or 0,)])


def _run_create_table(db, statement: A.CreateTableStatement) -> None:
    columns = []
    for name, type_name, params, nullable in statement.columns:
        constructor = _TYPE_CONSTRUCTORS.get(type_name)
        if constructor is None:
            raise SqlSyntaxError(f"unknown type {type_name!r}")
        columns.append(ColumnDef(name, constructor(params), nullable))
    storage = statement.storage or "columnstore"
    db.create_table(statement.table, TableSchema(columns), storage=storage)


def _constant_value(expr: A.SqlExpr) -> Any:
    """Evaluate a constant VALUES expression (literals and arithmetic)."""
    if isinstance(expr, A.ELiteral):
        return expr.value
    if isinstance(expr, A.EBinary) and expr.op in ("+", "-", "*", "/", "%"):
        bound = X.Arithmetic(
            expr.op,
            X.Literal(_constant_value(expr.left)),
            X.Literal(_constant_value(expr.right)),
        )
        return bound.eval_row({})
    raise BindingError(f"INSERT values must be constants, got {expr}")


def _table_namespace(db, table_name: str) -> _Namespace:
    table = db.table(table_name)
    namespace = _Namespace()
    for col in table.schema:
        namespace.add(table.name, col.name, col.name, col.dtype)
    return namespace
