"""Binding: SQL ASTs → logical plans over the catalog.

Name resolution, implicit literal coercion (date strings and decimal
literals become their physical representations), aggregate extraction and
the single-namespace-per-stage discipline that keeps plan column names
unique (multi-table queries qualify columns as ``alias.column``).

Subqueries bind in two ways. Uncorrelated ones (scalar, ``IN``,
``EXISTS``) are planned and *executed once* at bind time through the
``executor`` callback, folding their result into the outer plan as a
literal / constant IN-list. Correlated ``EXISTS`` / ``IN`` predicates in
the WHERE clause are decorrelated into semi/anti-joins on their
correlation equalities. Non-recursive CTEs are inlined: every reference
re-binds the definition (the optimizer mutates plans in place, so shared
subtrees are not allowed).
"""

from __future__ import annotations

import math
from decimal import Decimal
from functools import partial
from typing import Any, Callable

from ..errors import BindingError
from ..exec import expressions as X
from ..exec.operators.hash_aggregate import COUNT_STAR, AggregateSpec
from ..exec.operators.window import RANKING_FUNCS, WindowSpec
from ..planner.logical import (
    LogicalAggregate,
    LogicalFilter,
    LogicalJoin,
    LogicalLimit,
    LogicalNode,
    LogicalProject,
    LogicalScan,
    LogicalSort,
    LogicalWindow,
)
from ..types import BIGINT, FLOAT, DataType, TypeKind
from . import ast as A

_AGG_FUNCS = {"count", "sum", "min", "max", "avg"}
_WINDOW_AGG_FUNCS = {"count", "sum", "min", "max", "avg"}

# Executes a bound logical plan, returning physical-value tuples. Wired by
# the runner; binding statements with subqueries fails without one.
SubqueryExecutor = Callable[[LogicalNode], list[tuple]]


class _Namespace:
    """A resolution scope: visible names, their plan columns and types."""

    def __init__(self) -> None:
        # (qualifier, column) -> plan name; qualifier None = unqualified.
        self.qualified: dict[tuple[str, str], str] = {}
        self.unqualified: dict[str, list[str]] = {}
        self.dtypes: dict[str, DataType] = {}

    def add(self, qualifier: str | None, column: str, plan_name: str, dtype: DataType) -> None:
        if qualifier is not None:
            self.qualified[(qualifier.lower(), column.lower())] = plan_name
        self.unqualified.setdefault(column.lower(), []).append(plan_name)
        self.dtypes[plan_name] = dtype

    def resolve(self, ident: A.EIdent) -> str:
        if ident.qualifier is not None:
            key = (ident.qualifier.lower(), ident.name.lower())
            plan_name = self.qualified.get(key)
            if plan_name is None:
                raise BindingError(f"unknown column {ident.qualifier}.{ident.name}")
            return plan_name
        candidates = self.unqualified.get(ident.name.lower(), [])
        if not candidates:
            raise BindingError(f"unknown column {ident.name!r}")
        if len(set(candidates)) > 1:
            raise BindingError(f"ambiguous column {ident.name!r}: {sorted(set(candidates))}")
        return candidates[0]

    def dtype_of(self, plan_name: str) -> DataType:
        return self.dtypes[plan_name]


class Binder:
    """Binds one SELECT statement against a catalog."""

    def __init__(self, catalog, executor: SubqueryExecutor | None = None) -> None:
        self.catalog = catalog
        self.executor = executor
        # name -> (definition, CTEs visible to that definition). Each
        # reference re-binds the definition against its own snapshot, so
        # a CTE may use earlier CTEs but never itself (no recursion).
        self._ctes: dict[str, tuple[A.SelectStatement, dict]] = {}
        # What a cached statement shape must know about the binding: the
        # literal slots whose values chose a binding (matched as text by
        # the GROUP BY / aggregate canonical forms), and whether a
        # subquery ran and left its result in the plan.
        self.pinned: set[int] = set()
        self.ran_subquery = False

    # ------------------------------------------------------------------ #
    # SELECT
    # ------------------------------------------------------------------ #
    def bind_select(self, stmt: A.SelectStatement) -> LogicalNode:
        outer_ctes = self._ctes
        if stmt.ctes:
            registry = dict(outer_ctes)
            local: set[str] = set()
            for name, definition in stmt.ctes:
                key = name.lower()
                if key in local:
                    raise BindingError(f"duplicate CTE name {name!r}")
                local.add(key)
                registry[key] = (definition, dict(registry))
            self._ctes = registry
        try:
            return self._bind_select_body(stmt)
        finally:
            self._ctes = outer_ctes

    def _bind_select_body(self, stmt: A.SelectStatement) -> LogicalNode:
        if stmt.from_table is None:
            raise BindingError("SELECT without FROM is not supported")
        plan, namespace = self._bind_from(stmt)

        self._reject_windows_in(stmt.where, "WHERE")
        self._reject_windows_in(stmt.having, "HAVING")
        for group_expr in stmt.group_by:
            self._reject_windows_in(group_expr, "GROUP BY")

        if stmt.where is not None:
            plan = self._bind_where(stmt.where, plan, namespace)

        window_lookup: dict[str, str] | None = None
        has_aggregates = self._contains_aggregate(stmt)
        has_windows = any(self._has_window(item.expr) for item in stmt.items)
        if has_windows and (has_aggregates or stmt.group_by):
            raise BindingError(
                "not supported: window functions mixed with GROUP BY / aggregates"
            )
        if has_aggregates or stmt.group_by:
            base = namespace
            plan, namespace, agg_lookup, group_lookup = self._bind_aggregate(
                stmt, plan, namespace
            )
            plan = self._bind_outputs(
                stmt, plan, namespace, agg_lookup, base=base, group_lookup=group_lookup
            )
        else:
            self._reject_aggregates_in(stmt.having, "HAVING without GROUP BY")
            if has_windows:
                plan, window_lookup = self._bind_windows(stmt, plan, namespace)
            plan = self._bind_outputs(
                stmt, plan, namespace, agg_lookup=None, group_lookup=window_lookup
            )

        if stmt.distinct:
            plan = LogicalAggregate(plan, list(plan.output_names()), [])
        if stmt.order_by:
            plan = self._bind_order_by(stmt, plan)
        if stmt.limit is not None:
            plan = LogicalLimit(plan, stmt.limit)
        return plan

    # ------------------------------------------------------------------ #
    # WHERE: plain conjuncts, uncorrelated subqueries, decorrelation
    # ------------------------------------------------------------------ #
    def _bind_where(
        self, where: A.SqlExpr, plan: LogicalNode, namespace: _Namespace
    ) -> LogicalNode:
        """Bind the WHERE clause conjunct by conjunct.

        EXISTS / IN-subquery conjuncts first try the uncorrelated path
        (bind + execute once); if that fails on name resolution they are
        decorrelated into a semi/anti-join on their correlation columns.
        """
        residual: list[X.Expr] = []
        for conjunct in _split_ast_conjuncts(where):
            node, flipped = _strip_not(conjunct)
            if isinstance(node, (A.EExists, A.EInSubquery)):
                negated = node.negated ^ flipped
                try:
                    residual.append(self._bind_scalar(conjunct, namespace))
                    continue
                except BindingError as error:
                    plan = self._decorrelate(node, negated, plan, namespace, error)
                    continue
            residual.append(self._bind_scalar(conjunct, namespace))
        if residual:
            predicate = residual[0]
            for extra in residual[1:]:
                predicate = X.And(predicate, extra)
            plan = LogicalFilter(plan, predicate)
        return plan

    def _decorrelate(
        self,
        node: A.EExists | A.EInSubquery,
        negated: bool,
        plan: LogicalNode,
        namespace: _Namespace,
        original_error: BindingError,
    ) -> LogicalNode:
        """Rewrite a correlated EXISTS / IN predicate as a semi/anti-join.

        Supported shape: a plain SELECT whose WHERE splits into conjuncts
        each either local to the subquery or an equality between an inner
        expression and one *outer* column. Anything else re-raises the
        uncorrelated path's error.
        """
        sub = node.select
        if (
            sub.from_table is None
            or sub.ctes
            or sub.group_by
            or sub.having is not None
            or sub.distinct
            or sub.order_by
            or sub.limit is not None
            or self._contains_aggregate(sub)
        ):
            raise original_error
        if isinstance(node, A.EInSubquery) and negated:
            raise BindingError(
                "not supported: correlated NOT IN subquery — rewrite as "
                "NOT EXISTS for well-defined NULL semantics"
            )

        inner_plan, inner_ns = self._bind_from(sub)
        inner_filters: list[X.Expr] = []
        computed: list[tuple[str, X.Expr]] = []
        pairs: list[tuple[str, str]] = []  # (outer column, inner column)

        def inner_column(bound: X.Expr) -> str:
            if isinstance(bound, X.Column):
                return bound.name
            name = f"__corr_{len(computed)}"
            computed.append((name, bound))
            return name

        conjuncts = _split_ast_conjuncts(sub.where) if sub.where is not None else []
        for conjunct in conjuncts:
            try:
                inner_filters.append(self._bind_scalar(conjunct, inner_ns))
                continue
            except BindingError:
                pass
            pair = self._correlation_pair(conjunct, namespace, inner_ns)
            if pair is None:
                raise BindingError(
                    f"unsupported correlated subquery predicate: {conjunct}"
                ) from original_error
            outer_col, inner_bound = pair
            pairs.append((outer_col, inner_column(inner_bound)))

        if isinstance(node, A.EInSubquery):
            if not isinstance(node.operand, A.EIdent):
                raise BindingError(
                    "correlated IN requires a plain column on the left-hand side"
                )
            outer_col = namespace.resolve(node.operand)
            if sub.star or len(sub.items) != 1:
                raise BindingError("IN subquery must select exactly one column")
            value_bound = self._bind_scalar(sub.items[0].expr, inner_ns)
            pairs.insert(0, (outer_col, inner_column(value_bound)))
        if not pairs:
            raise original_error

        if computed:
            passthrough = [(n, X.Column(n)) for n in inner_plan.output_names()]
            inner_plan = LogicalProject(inner_plan, passthrough + computed)
        if inner_filters:
            predicate = inner_filters[0]
            for extra in inner_filters[1:]:
                predicate = X.And(predicate, extra)
            inner_plan = LogicalFilter(inner_plan, predicate)
        return LogicalJoin(
            left=plan,
            right=inner_plan,
            left_keys=[outer for outer, _ in pairs],
            right_keys=[inner for _, inner in pairs],
            join_type="anti" if negated else "semi",
        )

    def _correlation_pair(
        self, conjunct: A.SqlExpr, outer_ns: _Namespace, inner_ns: _Namespace
    ) -> tuple[str, X.Expr] | None:
        """Match ``inner_expr = outer_column`` (either side order)."""
        if not isinstance(conjunct, A.EBinary) or conjunct.op != "=":
            return None
        for outer_side, inner_side in (
            (conjunct.left, conjunct.right),
            (conjunct.right, conjunct.left),
        ):
            if not isinstance(outer_side, A.EIdent):
                continue
            try:
                outer_col = outer_ns.resolve(outer_side)
            except BindingError:
                continue
            try:
                inner_bound = self._bind_scalar(inner_side, inner_ns)
            except BindingError:
                continue
            return outer_col, inner_bound
        return None

    # ------------------------------------------------------------------ #
    # FROM / JOIN
    # ------------------------------------------------------------------ #
    def _bind_from(self, stmt: A.SelectStatement) -> tuple[LogicalNode, _Namespace]:
        refs = [stmt.from_table] + [j.table for j in stmt.joins]
        aliases = [r.alias.lower() for r in refs]
        if len(set(aliases)) != len(aliases):
            raise BindingError(f"duplicate table aliases in FROM: {aliases}")
        multi = len(refs) > 1

        namespace = _Namespace()
        alias_tables: dict[str, Any] = {}

        def make_cte_scan(ref: A.TableRef) -> LogicalNode:
            # Inline the CTE: re-bind its definition (fresh plan per
            # reference — the optimizer mutates plans in place) against
            # the CTEs that were visible at its declaration.
            definition, snapshot = self._ctes[ref.table.lower()]
            saved = self._ctes
            self._ctes = snapshot
            try:
                subplan = self.bind_select(definition)
            finally:
                self._ctes = saved
            from ..planner.schema_infer import infer_output_dtypes

            dtypes = infer_output_dtypes(subplan, self.catalog)
            projections: list[tuple[str, X.Expr]] = []
            rename = False
            for label in subplan.output_names():
                plan_name = f"{ref.alias}.{label}" if multi else label
                rename = rename or plan_name != label
                projections.append((plan_name, X.Column(label)))
                namespace.add(ref.alias, label, plan_name, dtypes[label])
            if rename:
                return LogicalProject(subplan, projections)
            return subplan

        def make_scan(ref: A.TableRef) -> LogicalNode:
            if ref.table.lower() in self._ctes:
                return make_cte_scan(ref)
            table = self.catalog.table(ref.table)
            alias_tables[ref.alias.lower()] = table
            projections: dict[str, str] = {}
            for col in table.schema:
                plan_name = f"{ref.alias}.{col.name}" if multi else col.name
                projections[plan_name] = col.name
                namespace.add(ref.alias, col.name, plan_name, col.dtype)
            return LogicalScan(table=table.name, projections=projections)

        plan: LogicalNode = make_scan(stmt.from_table)
        bound_aliases = {stmt.from_table.alias.lower()}
        for join in stmt.joins:
            right_scan = make_scan(join.table)
            new_alias = join.table.alias.lower()
            left_keys: list[str] = []
            right_keys: list[str] = []
            for a, b in join.conditions:
                if a.qualifier is None or b.qualifier is None:
                    raise BindingError(
                        "join conditions must use qualified columns (alias.column)"
                    )
                sides = {a.qualifier.lower(): a, b.qualifier.lower(): b}
                if new_alias not in sides:
                    raise BindingError(
                        f"join condition {a}={b} does not reference {join.table.alias}"
                    )
                new_side = sides.pop(new_alias)
                other_alias, other_side = next(iter(sides.items()))
                if other_alias not in bound_aliases:
                    raise BindingError(
                        f"join condition {a}={b} references unbound table {other_alias!r}"
                    )
                left_keys.append(namespace.resolve(other_side))
                right_keys.append(namespace.resolve(new_side))
                # The join compares the physical columns, and decimals are
                # integers scaled by their own 10**scale.
                left_type = namespace.dtype_of(left_keys[-1])
                right_type = namespace.dtype_of(right_keys[-1])
                scales = {_exact_scale(left_type), _exact_scale(right_type)}
                if len(scales) == 2 and None not in scales:
                    raise BindingError(
                        f"join condition {a}={b} compares {left_type} with {right_type}: "
                        "join keys of different scales are not supported"
                    )
            plan = LogicalJoin(
                left=plan,
                right=right_scan,
                left_keys=left_keys,
                right_keys=right_keys,
                join_type=join.join_type,
            )
            bound_aliases.add(new_alias)
        return plan, namespace

    # ------------------------------------------------------------------ #
    # Aggregation
    # ------------------------------------------------------------------ #
    def _contains_aggregate(self, stmt: A.SelectStatement) -> bool:
        exprs = [item.expr for item in stmt.items]
        if stmt.having is not None:
            exprs.append(stmt.having)
        return any(self._has_agg(e) for e in exprs)

    def _has_agg(self, expr: A.SqlExpr) -> bool:
        if isinstance(expr, A.EFunc) and expr.name in _AGG_FUNCS:
            return True
        for child in _ast_children(expr):
            if self._has_agg(child):
                return True
        return False

    def _reject_aggregates_in(self, expr: A.SqlExpr | None, context: str) -> None:
        if expr is not None and self._has_agg(expr):
            raise BindingError(f"aggregate not allowed here: {context}")

    def _bind_aggregate(
        self, stmt: A.SelectStatement, plan: LogicalNode, namespace: _Namespace
    ) -> tuple[LogicalNode, _Namespace, dict[str, str], dict[str, str]]:
        # Group keys: plain columns use their plan name; computed
        # expressions (and select-alias references) are pre-projected.
        alias_map = {
            item.alias.lower(): item.expr
            for item in stmt.items
            if item.alias is not None
        }
        group_keys: list[str] = []
        computed: list[tuple[str, X.Expr]] = []
        group_ast_keys: dict[str, str] = {}  # canonical AST -> key name
        for index, group_expr in enumerate(stmt.group_by):
            if isinstance(group_expr, A.EIdent) and group_expr.qualifier is None:
                alias_target = alias_map.get(group_expr.name.lower())
                try:
                    plan_name = namespace.resolve(group_expr)
                except BindingError:
                    if alias_target is None:
                        raise
                    # GROUP BY <select alias>: group by the aliased expression.
                    group_expr = alias_target
                else:
                    group_keys.append(plan_name)
                    group_ast_keys[self._canonical(group_expr, namespace)] = plan_name
                    continue
            if isinstance(group_expr, A.EIdent):
                plan_name = namespace.resolve(group_expr)
                group_keys.append(plan_name)
                group_ast_keys[self._canonical(group_expr, namespace)] = plan_name
            else:
                bound = self._bind_scalar(group_expr, namespace)
                name = f"__group_{index}"
                computed.append((name, bound))
                group_keys.append(name)
                group_ast_keys[self._canonical(group_expr, namespace)] = name
        # Gather every aggregate call in SELECT/HAVING before deciding the
        # aggregation layout (plain one-level vs two-level for DISTINCT).
        calls: list[dict] = []
        sources = [item.expr for item in stmt.items]
        if stmt.having is not None:
            sources.append(stmt.having)
        for expr in sources:
            self._collect_agg_calls(expr, namespace, calls)

        distinct_calls = [c for c in calls if c["distinct"]]
        specs: list[AggregateSpec] = []
        agg_lookup: dict[str, str] = {}  # canonical call -> output name
        distinct_projection: list[tuple[str, X.Expr]] = []

        if distinct_calls:
            plain = [c for c in calls if not c["distinct"]]
            arg_keys = {c["arg_key"] for c in distinct_calls}
            if plain or len(arg_keys) != 1:
                raise BindingError(
                    "DISTINCT aggregates must all share one argument and "
                    "cannot mix with non-DISTINCT aggregates"
                )
            # Two-level plan: dedup on (group keys, arg), then aggregate
            # the deduplicated values.
            dname = "__distinct_0"
            bound_arg = self._bind_scalar(distinct_calls[0]["arg_ast"], namespace)
            distinct_projection.append((dname, bound_arg))
            namespace.dtypes[dname] = bound_arg.infer_dtype(namespace.dtype_of)
            taken: set[str] = set()
            for call in distinct_calls:
                name = _unique_name(f"{call['func']}", taken)
                taken.add(name)
                specs.append(AggregateSpec(call["func"], X.Column(dname), name))
                agg_lookup[call["canonical"]] = name
                for alias in call["aliases"]:
                    agg_lookup[alias] = name
        else:
            taken = set()
            for call in calls:
                if call["canonical"] in agg_lookup:
                    continue
                if call["func"] == COUNT_STAR:
                    name = _unique_name("count", taken)
                    specs.append(AggregateSpec(COUNT_STAR, None, name))
                else:
                    bound = self._bind_scalar(call["arg_ast"], namespace)
                    name = _unique_name(call["func"], taken)
                    specs.append(AggregateSpec(call["func"], bound, name))
                taken.add(name)
                agg_lookup[call["canonical"]] = name
                for alias in call["aliases"]:
                    agg_lookup[alias] = name

        if computed or distinct_projection:
            passthrough = [
                (name, X.Column(name)) for name in plan.output_names()
            ]
            plan = LogicalProject(plan, passthrough + computed + distinct_projection)
            for name, bound in computed:
                namespace.dtypes[name] = bound.infer_dtype(namespace.dtype_of)

        if distinct_calls:
            dname = distinct_projection[0][0]
            dedup = LogicalAggregate(plan, [*group_keys, dname], [])
            plan = LogicalAggregate(dedup, group_keys, specs)
        else:
            plan = LogicalAggregate(plan, group_keys, specs)

        post = _Namespace()
        for key in group_keys:
            post.add(None, key, key, namespace.dtype_of(key))
            # Keep qualified resolution working for group keys like "c.region".
            if "." in key:
                qualifier, column = key.split(".", 1)
                post.qualified[(qualifier.lower(), column.lower())] = key
                post.unqualified.setdefault(column.lower(), []).append(key)
        for spec in specs:
            post.add(None, spec.name, spec.name, _agg_dtype(spec, namespace))

        if stmt.having is not None:
            having = self._bind_scalar(
                stmt.having,
                post,
                agg_lookup=agg_lookup,
                base=namespace,
                group_lookup=group_ast_keys,
            )
            plan = LogicalFilter(plan, having)
        return plan, post, agg_lookup, group_ast_keys

    def _collect_agg_calls(
        self,
        expr: A.SqlExpr,
        namespace: _Namespace,
        calls: list[dict],
    ) -> None:
        """Record every aggregate call (func, arg AST, DISTINCT flag)."""
        if isinstance(expr, A.EFunc) and expr.name in _AGG_FUNCS:
            canonical = self._canonical(expr, namespace)
            if any(c["canonical"] == canonical for c in calls):
                return
            if expr.star:
                calls.append(
                    {
                        "canonical": canonical,
                        "func": COUNT_STAR,
                        "arg_ast": None,
                        "arg_key": "*",
                        "distinct": False,
                        "aliases": [],
                    }
                )
                return
            if len(expr.args) != 1:
                raise BindingError(f"{expr.name} takes exactly one argument")
            self._reject_aggregates_in(expr.args[0], "nested aggregate")
            aliases: list[str] = []
            if expr.distinct and expr.name in ("min", "max"):
                # DISTINCT is a no-op for MIN/MAX; normalize but keep the
                # original canonical as an alias so select items using
                # the DISTINCT spelling still resolve.
                aliases.append(canonical)
                expr = A.EFunc(expr.name, expr.args, distinct=False)
                canonical = self._canonical(expr, namespace)
                if any(c["canonical"] == canonical for c in calls):
                    for call in calls:
                        if call["canonical"] == canonical:
                            call["aliases"].extend(aliases)
                    return
            calls.append(
                {
                    "canonical": canonical,
                    "func": expr.name,
                    "arg_ast": expr.args[0],
                    "arg_key": self._canonical(expr.args[0], namespace),
                    "distinct": expr.distinct,
                    "aliases": aliases,
                }
            )
            return
        for child in _ast_children(expr):
            self._collect_agg_calls(child, namespace, calls)

    # ------------------------------------------------------------------ #
    # Output projection, ORDER BY
    # ------------------------------------------------------------------ #
    def _bind_outputs(
        self,
        stmt: A.SelectStatement,
        plan: LogicalNode,
        namespace: _Namespace,
        agg_lookup: dict[str, str] | None,
        base: _Namespace | None = None,
        group_lookup: dict[str, str] | None = None,
    ) -> LogicalNode:
        if stmt.star:
            if agg_lookup is not None:
                raise BindingError("SELECT * cannot be combined with GROUP BY")
            projections = [(name, X.Column(name)) for name in plan.output_names()]
            labels = [name.split(".")[-1] for name, _ in projections]
            labels = _dedupe(labels)
            return LogicalProject(plan, [(label, expr) for label, (_, expr) in zip(labels, projections)])

        projections: list[tuple[str, X.Expr]] = []
        labels: list[str] = []
        for index, item in enumerate(stmt.items):
            bound = self._bind_scalar(
                item.expr,
                namespace,
                agg_lookup=agg_lookup,
                base=base,
                group_lookup=group_lookup,
            )
            if item.alias:
                label = item.alias
            elif isinstance(item.expr, A.EIdent):
                label = item.expr.name
            elif isinstance(item.expr, (A.EFunc, A.EWindow)):
                label = item.expr.name if isinstance(item.expr, A.EFunc) else item.expr.func
            else:
                label = f"col{index}"
            labels.append(label)
            projections.append((label, bound))
            # In aggregate queries, bare columns must be group keys; the
            # namespace only holds keys and agg outputs so resolution
            # itself enforces this.
        labels = _dedupe(labels)
        return LogicalProject(plan, [(label, expr) for label, (_, expr) in zip(labels, projections)])

    def _bind_order_by(self, stmt: A.SelectStatement, plan: LogicalNode) -> LogicalNode:
        outputs = plan.output_names()
        keys: list[tuple[str, bool]] = []
        for expr, descending in stmt.order_by:
            if isinstance(expr, A.ELiteral) and isinstance(expr.value, int):
                position = expr.value
                if not 1 <= position <= len(outputs):
                    raise BindingError(f"ORDER BY position {position} out of range")
                keys.append((outputs[position - 1], descending))
            elif isinstance(expr, A.EIdent):
                # Output labels are unqualified, so "ORDER BY c.region"
                # matches the output labelled "region".
                matches = [name for name in outputs if name.lower() == expr.name.lower()]
                if not matches:
                    raise BindingError(
                        f"ORDER BY column {expr.name!r} is not in the select list"
                    )
                keys.append((matches[0], descending))
            elif isinstance(expr, A.EFunc):
                raise BindingError(
                    "ORDER BY expressions must appear in the select list; "
                    "alias the aggregate and order by the alias"
                )
            else:
                raise BindingError("unsupported ORDER BY expression")
        return LogicalSort(plan, keys)

    # ------------------------------------------------------------------ #
    # Window functions
    # ------------------------------------------------------------------ #
    def _has_window(self, expr: A.SqlExpr) -> bool:
        if isinstance(expr, A.EWindow):
            return True
        return any(self._has_window(child) for child in _ast_children(expr))

    def _reject_windows_in(self, expr: A.SqlExpr | None, context: str) -> None:
        if expr is not None and self._has_window(expr):
            raise BindingError(
                f"window functions are only allowed in the select list, not {context}"
            )

    def _bind_windows(
        self, stmt: A.SelectStatement, plan: LogicalNode, namespace: _Namespace
    ) -> tuple[LogicalNode, dict[str, str]]:
        """Plan every window call in the select list.

        Computed partition/order/argument expressions are pre-projected
        (like aggregate arguments); each distinct call becomes one
        :class:`WindowSpec` whose output the select items reference
        through the canonical-expression lookup.
        """
        calls: list[A.EWindow] = []
        for item in stmt.items:
            self._collect_windows(item.expr, calls)
        for expr, _ in stmt.order_by:
            self._reject_windows_in(expr, "ORDER BY")

        computed: list[tuple[str, X.Expr]] = []
        taken = set(plan.output_names())
        specs: list[WindowSpec] = []
        lookup: dict[str, str] = {}

        def column_for(expr: A.SqlExpr, prefix: str) -> str:
            if isinstance(expr, A.EIdent):
                return namespace.resolve(expr)
            bound = self._bind_scalar(expr, namespace)
            name = _unique_name(prefix, taken)
            taken.add(name)
            computed.append((name, bound))
            namespace.dtypes[name] = self._dtype_of(bound, namespace) or BIGINT
            return name

        for index, call in enumerate(calls):
            canonical = self._canonical(call, namespace)
            if canonical in lookup:
                continue
            func = COUNT_STAR if call.star else call.func
            arg: str | None = None
            if func in _WINDOW_AGG_FUNCS:
                if len(call.args) != 1:
                    raise BindingError(f"window {call.func} takes exactly one argument")
                self._reject_aggregates_in(call.args[0], "window argument")
                arg = column_for(call.args[0], f"__win_arg_{index}")
            elif call.args:
                raise BindingError(f"window {call.func} takes no arguments")
            partition = tuple(
                column_for(expr, f"__win_part_{index}_{i}")
                for i, expr in enumerate(call.partition_by)
            )
            order = tuple(
                (column_for(expr, f"__win_ord_{index}_{i}"), descending)
                for i, (expr, descending) in enumerate(call.order_by)
            )
            out_name = _unique_name(f"__win_{index}", taken)
            taken.add(out_name)
            spec = WindowSpec(func, arg, partition, order, out_name)
            specs.append(spec)
            lookup[canonical] = out_name
            namespace.dtypes[out_name] = _window_dtype(spec, namespace)

        if computed:
            passthrough = [(n, X.Column(n)) for n in plan.output_names()]
            plan = LogicalProject(plan, passthrough + computed)
        return LogicalWindow(plan, specs), lookup

    def _collect_windows(self, expr: A.SqlExpr, calls: list[A.EWindow]) -> None:
        if isinstance(expr, A.EWindow):
            calls.append(expr)
            for child in expr.args:
                self._reject_windows_in(child, "a window argument")
            return
        for child in _ast_children(expr):
            self._collect_windows(child, calls)

    # ------------------------------------------------------------------ #
    # Uncorrelated subquery execution
    # ------------------------------------------------------------------ #
    def _execute_subquery(self, plan: LogicalNode) -> list[tuple]:
        if self.executor is None:
            raise BindingError(
                "subqueries require an execution context (no executor wired)"
            )
        self.ran_subquery = True
        return self.executor(plan)

    def _scalar_subquery(self, select: A.SelectStatement) -> X.Expr:
        from ..planner.schema_infer import infer_output_dtypes

        plan = self.bind_select(select)
        names = plan.output_names()
        if len(names) != 1:
            raise BindingError("scalar subquery must return exactly one column")
        dtype = infer_output_dtypes(plan, self.catalog)[names[0]]
        rows = self._execute_subquery(plan)
        if len(rows) > 1:
            raise BindingError("scalar subquery returned more than one row")
        value = rows[0][0] if rows else None
        return X.Literal(value, dtype)

    def _exists_subquery(self, select: A.SelectStatement, negated: bool) -> X.Expr:
        plan = LogicalLimit(self.bind_select(select), 1)
        rows = self._execute_subquery(plan)
        return X.Literal(bool(rows) != negated)

    def _in_subquery(
        self, node: A.EInSubquery, operand: X.Expr
    ) -> X.Expr:
        plan = self.bind_select(node.select)
        names = plan.output_names()
        if len(names) != 1:
            raise BindingError("IN subquery must select exactly one column")
        raw = [row[0] for row in self._execute_subquery(plan)]
        values = [v for v in raw if v is not None]
        bound = X.InList(operand, values, has_null=len(values) != len(raw))
        return X.Not(bound) if node.negated else bound

    # ------------------------------------------------------------------ #
    # Scalar expression binding
    # ------------------------------------------------------------------ #
    def _bind_scalar(
        self,
        expr: A.SqlExpr,
        namespace: _Namespace,
        agg_lookup: dict[str, str] | None = None,
        base: _Namespace | None = None,
        group_lookup: dict[str, str] | None = None,
    ) -> X.Expr:
        """Bind a scalar expression in ``namespace``.

        With ``agg_lookup`` set (post-aggregate contexts), aggregate calls
        resolve to their output columns; ``base`` is the pre-aggregate
        namespace used to canonicalize those calls; ``group_lookup`` maps
        canonical grouping expressions to their key columns so select
        items can repeat a computed GROUP BY expression.
        """
        canon_ns = base if base is not None else namespace

        def bind(node: A.SqlExpr) -> X.Expr:
            if group_lookup is not None:
                key_name = group_lookup.get(self._canonical(node, canon_ns))
                if key_name is not None:
                    return X.Column(key_name)
            if agg_lookup is not None and isinstance(node, A.EFunc) and node.name in _AGG_FUNCS:
                key = self._canonical(node, canon_ns)
                name = agg_lookup.get(key)
                if name is None:
                    raise BindingError(f"aggregate {node} was not collected")
                return X.Column(name)
            if isinstance(node, A.EIdent):
                return X.Column(namespace.resolve(node))
            if isinstance(node, A.ELiteral):
                return X.Literal(node.value, slot=node.slot, negated=node.negated)
            if isinstance(node, A.EBinary):
                return self._bind_binary(node, bind, namespace)
            if isinstance(node, A.EUnary):
                if node.op == "not":
                    return X.Not(bind(node.operand))
                raise BindingError(f"unsupported unary operator {node.op!r}")
            if isinstance(node, A.EFunc):
                if node.name in _AGG_FUNCS:
                    raise BindingError(f"aggregate {node.name} is not allowed here")
                try:
                    return X.FunctionCall(node.name, *[bind(a) for a in node.args])
                except X.ExecutionError as exc:
                    raise BindingError(str(exc)) from exc
            if isinstance(node, A.ECase):
                branches = [(bind(c), bind(v)) for c, v in node.branches]
                default = bind(node.default) if node.default is not None else None
                return X.Case(branches, default)
            if isinstance(node, A.EBetween):
                operand = bind(node.operand)
                bounds = [self._coerced(operand, bind(b), namespace) for b in (node.low, node.high)]
                bound = X.Between(*self._on_one_scale([operand, *bounds], namespace))
                return X.Not(bound) if node.negated else bound
            if isinstance(node, A.EIn):
                operand = bind(node.operand)
                values = [self._coerce_value(operand, v, namespace) for v in node.values]
                bound = X.InList(operand, values)
                return X.Not(bound) if node.negated else bound
            if isinstance(node, A.ELike):
                return X.Like(bind(node.operand), node.pattern, node.negated)
            if isinstance(node, A.EIsNull):
                return X.IsNull(bind(node.operand), node.negated)
            if isinstance(node, A.ESubquery):
                return self._scalar_subquery(node.select)
            if isinstance(node, A.EExists):
                return self._exists_subquery(node.select, node.negated)
            if isinstance(node, A.EInSubquery):
                return self._in_subquery(node, bind(node.operand))
            if isinstance(node, A.EWindow):
                raise BindingError(
                    "window functions are only allowed in the select list"
                )
            raise BindingError(f"unsupported expression {type(node).__name__}")

        return bind(expr)

    def _bind_binary(self, node: A.EBinary, bind, namespace: _Namespace) -> X.Expr:
        if node.op == "and":
            return X.And(bind(node.left), bind(node.right))
        if node.op == "or":
            return X.Or(bind(node.left), bind(node.right))
        left = bind(node.left)
        right = bind(node.right)
        if node.op in ("=", "!=", "<", "<=", ">", ">="):
            left2, right2 = self._on_one_scale(
                self._coerce_pair(left, right, namespace), namespace
            )
            return X.Comparison(node.op, left2, right2)
        if node.op in ("+", "-"):
            left2, right2 = self._coerce_pair(left, right, namespace)
            # Mixed-scale decimal addition descales to float; same-scale
            # stays exact in the scaled-integer representation.
            ld = self._dtype_of(left2, namespace)
            rd = self._dtype_of(right2, namespace)
            if _is_scaled(ld) or _is_scaled(rd):
                if not (ld == rd):
                    left2 = self._descale(left2, ld)
                    right2 = self._descale(right2, rd)
            return X.Arithmetic(node.op, left2, right2)
        if node.op in ("*", "/", "%"):
            # Scaled decimals entering multiplicative arithmetic are
            # descaled to floats so values (not scaled ints) combine.
            left = self._descale(left, self._dtype_of(left, namespace))
            right = self._descale(right, self._dtype_of(right, namespace))
            return X.Arithmetic(node.op, left, right)
        raise BindingError(f"unsupported operator {node.op!r}")

    def _on_one_scale(self, exprs, namespace: _Namespace) -> list[X.Expr]:
        """Operands of a comparison brought to one decimal scale: decimals
        are integers scaled by 10**scale, so DECIMAL(_, 2) against
        DECIMAL(_, 1) or INT would compare 150 with 15. The lower scales
        are multiplied up, exactly, in integers. Operands that are not
        all exact numerics are left as they are."""
        scales = [_exact_scale(self._dtype_of(expr, namespace)) for expr in exprs]
        if None in scales or len(set(scales)) == 1:
            return list(exprs)
        return [
            expr
            if scale == max(scales)
            else X.Arithmetic("*", expr, X.Literal(10 ** (max(scales) - scale), BIGINT))
            for expr, scale in zip(exprs, scales)
        ]

    def _descale(self, expr: X.Expr, dtype: DataType | None) -> X.Expr:
        """Convert a scaled-decimal expression to its float value."""
        if not _is_scaled(dtype):
            return expr
        return X.Arithmetic("/", expr, X.Literal(float(10**dtype.scale)))

    # Implicit coercion: date strings and decimal literals become physical.
    def _coerce_pair(
        self, left: X.Expr, right: X.Expr, namespace: _Namespace
    ) -> tuple[X.Expr, X.Expr]:
        if isinstance(right, X.Literal) and not isinstance(left, X.Literal):
            return left, self._coerced(left, right, namespace)
        if isinstance(left, X.Literal) and not isinstance(right, X.Literal):
            return self._coerced(right, left, namespace), right
        return left, right

    def _coerced(self, target: X.Expr, literal: X.Expr, namespace: _Namespace) -> X.Expr:
        if not isinstance(literal, X.Literal):
            return literal
        dtype = self._dtype_of(target, namespace)
        if dtype is None:
            return literal
        if literal.value is None:
            # A NULL compared with a column takes its type (for a string
            # column, string placeholders the comparison can evaluate).
            return X.Literal(None, dtype)
        if literal.dtype is not None and literal.dtype.kind is dtype.kind:
            # Already physical (e.g. a scalar-subquery result): coercing
            # again would double-scale decimals / re-parse dates.
            return literal
        if dtype.kind in (TypeKind.DATE, TypeKind.DECIMAL):
            coerce = partial(_coerce_literal, dtype)
            return X.Literal(coerce(literal.value), dtype, literal.slot, coerce, literal.negated)
        return literal

    def _coerce_value(self, target: X.Expr, value: Any, namespace: _Namespace) -> Any:
        if value is None:
            return None
        dtype = self._dtype_of(target, namespace)
        if dtype is not None and dtype.kind in (TypeKind.DATE, TypeKind.DECIMAL):
            return _coerce_literal(dtype, value)
        return value

    def _dtype_of(self, expr: X.Expr, namespace: _Namespace) -> DataType | None:
        try:
            return expr.infer_dtype(namespace.dtype_of)
        except Exception:
            return None

    def _canonical(self, expr: A.SqlExpr, namespace: _Namespace) -> str:
        return _canonical(expr, namespace, self.pinned)


def _coerce_literal(dtype: DataType, value: Any) -> Any:
    """A DATE / DECIMAL literal's physical value, in the binder's error
    domain. A DECIMAL literal with more fraction digits than the scale
    keeps its exact value, as a float of scaled units (1.255 at scale 2 is
    125.5): compared with or added to the column's integers it answers at
    its own value, where rounding it into the scale would not."""
    if dtype.kind is TypeKind.DECIMAL and isinstance(value, float) and math.isfinite(value):
        scaled = Decimal(repr(value)).scaleb(dtype.scale)
        if scaled != scaled.to_integral_value():
            return float(scaled)
    try:
        return dtype.coerce(value)
    except Exception as exc:
        raise BindingError(f"cannot coerce literal {value!r} to {dtype}: {exc}") from exc


# ---------------------------------------------------------------------- #
# Helpers
# ---------------------------------------------------------------------- #
def _ast_children(expr: A.SqlExpr) -> list[A.SqlExpr]:
    if isinstance(expr, A.EBinary):
        return [expr.left, expr.right]
    if isinstance(expr, A.EUnary):
        return [expr.operand]
    if isinstance(expr, A.EFunc):
        return list(expr.args)
    if isinstance(expr, A.ECase):
        out: list[A.SqlExpr] = []
        for c, v in expr.branches:
            out.extend((c, v))
        if expr.default is not None:
            out.append(expr.default)
        return out
    if isinstance(expr, (A.EBetween,)):
        return [expr.operand, expr.low, expr.high]
    if isinstance(expr, (A.EIn, A.ELike, A.EIsNull)):
        return [expr.operand]
    if isinstance(expr, A.EWindow):
        out = list(expr.args)
        out.extend(expr.partition_by)
        out.extend(e for e, _ in expr.order_by)
        return out
    # Subquery selects are separate scopes — walks (aggregate/window
    # detection) must not descend into them; only the IN operand is ours.
    if isinstance(expr, A.EInSubquery):
        return [expr.operand]
    if isinstance(expr, (A.ESubquery, A.EExists)):
        return []
    return []


def _split_ast_conjuncts(expr: A.SqlExpr) -> list[A.SqlExpr]:
    """Flatten a WHERE tree over top-level ANDs."""
    if isinstance(expr, A.EBinary) and expr.op == "and":
        return _split_ast_conjuncts(expr.left) + _split_ast_conjuncts(expr.right)
    return [expr]


def _strip_not(expr: A.SqlExpr) -> tuple[A.SqlExpr, bool]:
    """Peel NOT wrappers; returns (inner expression, negation flipped)."""
    flipped = False
    while isinstance(expr, A.EUnary) and expr.op == "not":
        expr = expr.operand
        flipped = not flipped
    return expr, flipped


def _canonical(expr: A.SqlExpr, namespace: _Namespace, pinned: set[int]) -> str:
    """A resolution-aware canonical string for matching repeated ASTs.

    Matching compares literal values, so the slot of every literal read
    here is added to ``pinned``: its value is part of the binding.
    """
    if isinstance(expr, A.EIdent):
        try:
            return f"col:{namespace.resolve(expr)}"
        except BindingError:
            return f"ident:{expr.qualifier}.{expr.name}"
    if isinstance(expr, A.ELiteral):
        if expr.slot is not None:
            pinned.add(expr.slot)
        return f"lit:{expr.value!r}"
    if isinstance(expr, A.EFunc):
        inner = ",".join(_canonical(a, namespace, pinned) for a in expr.args)
        star = "*" if expr.star else inner
        distinct = "D:" if expr.distinct else ""
        return f"fn:{expr.name}({distinct}{star})"
    if isinstance(expr, A.EBinary):
        left = _canonical(expr.left, namespace, pinned)
        return f"({left}{expr.op}{_canonical(expr.right, namespace, pinned)})"
    if isinstance(expr, A.EUnary):
        return f"{expr.op}({_canonical(expr.operand, namespace, pinned)})"
    if isinstance(expr, A.EBetween):
        return (
            f"between({_canonical(expr.operand, namespace, pinned)},"
            f"{_canonical(expr.low, namespace, pinned)},"
            f"{_canonical(expr.high, namespace, pinned)},{expr.negated})"
        )
    if isinstance(expr, A.EIn):
        return f"in({_canonical(expr.operand, namespace, pinned)},{expr.values!r},{expr.negated})"
    if isinstance(expr, A.ELike):
        operand = _canonical(expr.operand, namespace, pinned)
        return f"like({operand},{expr.pattern!r},{expr.negated})"
    if isinstance(expr, A.EIsNull):
        return f"isnull({_canonical(expr.operand, namespace, pinned)},{expr.negated})"
    if isinstance(expr, A.ECase):
        parts = [
            f"{_canonical(c, namespace, pinned)}:{_canonical(v, namespace, pinned)}"
            for c, v in expr.branches
        ]
        if expr.default is not None:
            parts.append(_canonical(expr.default, namespace, pinned))
        return "case(" + ";".join(parts) + ")"
    if isinstance(expr, A.EWindow):
        inner = "*" if expr.star else ",".join(
            _canonical(a, namespace, pinned) for a in expr.args
        )
        partition = ",".join(_canonical(p, namespace, pinned) for p in expr.partition_by)
        order = ",".join(
            f"{_canonical(e, namespace, pinned)}:{d}" for e, d in expr.order_by
        )
        return f"win:{expr.func}({inner})p[{partition}]o[{order}]"
    return repr(expr)


def _unique_name(base: str, taken: set[str]) -> str:
    if base not in taken:
        return base
    index = 2
    while f"{base}_{index}" in taken:
        index += 1
    return f"{base}_{index}"


def _dedupe(labels: list[str]) -> list[str]:
    seen: dict[str, int] = {}
    out = []
    for label in labels:
        if label in seen:
            seen[label] += 1
            out.append(f"{label}_{seen[label]}")
        else:
            seen[label] = 1
            out.append(label)
    return out


def _agg_dtype(spec: AggregateSpec, namespace: _Namespace) -> DataType:
    if spec.func in (COUNT_STAR, "count"):
        return BIGINT
    arg = spec.expr.infer_dtype(namespace.dtype_of)
    if spec.func in ("min", "max"):
        return arg
    if spec.func == "sum":
        return BIGINT if arg.kind is TypeKind.INT else arg
    if arg.kind is TypeKind.DECIMAL:
        return arg
    return FLOAT


def _window_dtype(spec: WindowSpec, namespace: _Namespace) -> DataType:
    if spec.func in RANKING_FUNCS or spec.func in (COUNT_STAR, "count"):
        return BIGINT
    arg = namespace.dtype_of(spec.arg)
    if spec.func in ("min", "max"):
        return arg
    if spec.func == "sum":
        return BIGINT if arg.kind is TypeKind.INT else arg
    if arg.kind is TypeKind.DECIMAL:
        return arg
    return FLOAT


def _exact_scale(dtype: DataType | None) -> int | None:
    """The decimal scale an exact numeric is stored at (an integer's is
    0); None for every other type."""
    if dtype is None or dtype.kind not in (TypeKind.INT, TypeKind.BIGINT, TypeKind.DECIMAL):
        return None
    return dtype.scale


def _is_scaled(dtype: DataType | None) -> bool:
    return dtype is not None and dtype.kind is TypeKind.DECIMAL and dtype.scale > 0
