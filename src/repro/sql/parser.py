"""Recursive-descent SQL parser."""

from __future__ import annotations

from typing import Any

from ..errors import SqlSyntaxError
from .ast import (
    BeginStatement,
    CommitStatement,
    CreateTableStatement,
    DeleteStatement,
    DropTableStatement,
    EBetween,
    EBinary,
    ECase,
    EExists,
    EFunc,
    EIdent,
    EIn,
    EInSubquery,
    EIsNull,
    ELike,
    ELiteral,
    ESubquery,
    EUnary,
    EWindow,
    ExplainStatement,
    InsertStatement,
    JoinClause,
    KillStatement,
    RollbackStatement,
    SelectItem,
    SelectStatement,
    SetStatement,
    ShowStatement,
    SqlExpr,
    TableRef,
    UpdateStatement,
)
from .lexer import Token, line_column, tokenize

_AGGREGATE_FUNCS = {"count", "sum", "min", "max", "avg"}
_WINDOW_FUNCS = {"row_number", "rank", "dense_rank", "count", "sum", "min", "max", "avg"}
_SET_OPERATIONS = {"union", "intersect", "except"}


class Parser:
    """One-pass recursive-descent parser over the token stream."""

    def __init__(self, sql: str, tokens: list[Token] | None = None) -> None:
        self.sql = sql
        self.tokens = tokenize(sql) if tokens is None else tokens
        self.pos = 0

    # ------------------------------------------------------------------ #
    # Token helpers
    # ------------------------------------------------------------------ #
    def _error(self, message: str, token: Token) -> SqlSyntaxError:
        """A syntax error pointing at ``token`` with line/column context."""
        line, column = line_column(self.sql, token.position)
        return SqlSyntaxError(message, position=token.position, line=line, column=column)

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind != "eof":
            self.pos += 1
        return token

    def accept_keyword(self, word: str) -> bool:
        if self.peek().is_keyword(word):
            self.advance()
            return True
        return False

    def expect_keyword(self, word: str) -> None:
        token = self.advance()
        if not token.is_keyword(word):
            raise self._error(f"expected {word.upper()}, got {token.text!r}", token)

    def accept_op(self, op: str) -> bool:
        if self.peek().is_op(op):
            self.advance()
            return True
        return False

    def expect_op(self, op: str) -> None:
        token = self.advance()
        if not token.is_op(op):
            raise self._error(f"expected {op!r}, got {token.text!r}", token)

    def expect_ident(self) -> str:
        token = self.advance()
        if token.kind != "ident":
            raise self._error(f"expected identifier, got {token.text!r}", token)
        return token.text

    # ------------------------------------------------------------------ #
    # Statements
    # ------------------------------------------------------------------ #
    def parse_statement(self):
        token = self.peek()
        if token.is_keyword("explain"):
            statement = self.parse_explain()
        elif token.is_keyword("select"):
            statement = self.parse_select()
        elif token.is_keyword("with"):
            statement = self.parse_with()
        elif token.is_keyword("insert"):
            statement = self.parse_insert()
        elif token.is_keyword("create"):
            statement = self.parse_create_table()
        elif token.is_keyword("drop"):
            statement = self.parse_drop_table()
        elif token.is_keyword("delete"):
            statement = self.parse_delete()
        elif token.is_keyword("update"):
            statement = self.parse_update()
        elif token.is_keyword("begin") or token.is_keyword("start"):
            statement = self.parse_begin()
        elif token.is_keyword("commit"):
            statement = self.parse_txn_end("commit", CommitStatement)
        elif token.is_keyword("rollback"):
            statement = self.parse_txn_end("rollback", RollbackStatement)
        elif token.is_keyword("set"):
            statement = self.parse_set()
        elif token.is_keyword("show"):
            statement = self.parse_show()
        elif token.is_keyword("kill"):
            statement = self.parse_kill()
        else:
            raise self._error(f"unexpected token {token.text!r}", token)
        self.accept_op(";")
        tail = self.peek()
        if tail.kind != "eof":
            raise self._error(f"trailing input {tail.text!r}", tail)
        return statement

    def parse_set(self) -> SetStatement:
        """``SET <name> = <int>`` / ``SET <name> TO <int>``.

        The value may be an integer literal, or DEFAULT / OFF / NULL to
        clear the setting (parsed as None).
        """
        self.expect_keyword("set")
        name = self.expect_ident().lower()
        # "TO" is not a reserved word; accept it as an ident alternative
        # to "=" the way PostgreSQL does.
        token = self.peek()
        if token.kind == "ident" and token.text.lower() == "to":
            self.advance()
        else:
            self.expect_op("=")
        token = self.advance()
        if token.kind == "number" and "." not in token.text:
            return SetStatement(name=name, value=int(token.text))
        if token.is_keyword("null") or (
            token.kind == "ident" and token.text.lower() in ("default", "off")
        ):
            return SetStatement(name=name, value=None)
        raise self._error(
            "SET expects an integer value, DEFAULT, or OFF", token
        )

    def parse_show(self) -> ShowStatement:
        """``SHOW QUERIES`` or ``SHOW <setting>``."""
        self.expect_keyword("show")
        return ShowStatement(name=self.expect_ident().lower())

    def parse_kill(self) -> KillStatement:
        """``KILL <query_id>``."""
        self.expect_keyword("kill")
        token = self.advance()
        if token.kind != "number" or "." in token.text:
            raise self._error("KILL expects an integer query id", token)
        return KillStatement(query_id=int(token.text))

    def parse_begin(self) -> BeginStatement:
        """``BEGIN [TRANSACTION | WORK]`` or ``START TRANSACTION``."""
        if self.accept_keyword("start"):
            self.expect_keyword("transaction")
        else:
            self.expect_keyword("begin")
            if not self.accept_keyword("transaction"):
                self.accept_keyword("work")
        return BeginStatement()

    def parse_txn_end(self, word: str, node_cls):
        """``COMMIT`` / ``ROLLBACK``, optionally ``TRANSACTION | WORK``."""
        self.expect_keyword(word)
        if not self.accept_keyword("transaction"):
            self.accept_keyword("work")
        return node_cls()

    def parse_explain(self) -> ExplainStatement:
        """``EXPLAIN [ANALYZE] <select>``."""
        self.expect_keyword("explain")
        analyze = self.accept_keyword("analyze")
        token = self.peek()
        if token.is_keyword("with"):
            return ExplainStatement(self.parse_with(), analyze=analyze)
        if not token.is_keyword("select"):
            raise self._error(
                f"EXPLAIN expects a SELECT statement, got {token.text!r}", token
            )
        return ExplainStatement(self.parse_select(), analyze=analyze)

    def parse_with(self) -> SelectStatement:
        """``WITH name AS (select) [, ...] SELECT ...`` — non-recursive."""
        self.expect_keyword("with")
        token = self.peek()
        if token.is_keyword("recursive"):
            raise self._error(
                "not supported: RECURSIVE common table expressions", token
            )
        ctes = [self._cte()]
        while self.accept_op(","):
            ctes.append(self._cte())
        token = self.peek()
        if not token.is_keyword("select"):
            raise self._error(
                f"expected SELECT after WITH clause, got {token.text!r}", token
            )
        statement = self.parse_select()
        statement.ctes = ctes
        return statement

    def _cte(self) -> tuple[str, SelectStatement]:
        name = self.expect_ident()
        self.expect_keyword("as")
        self.expect_op("(")
        token = self.peek()
        if token.is_keyword("with"):
            raise self._error("not supported: WITH nested inside a CTE body", token)
        if not token.is_keyword("select"):
            raise self._error(
                f"expected SELECT in CTE body, got {token.text!r}", token
            )
        select = self.parse_select()
        self.expect_op(")")
        return name, select

    def parse_select(self) -> SelectStatement:
        self.expect_keyword("select")
        distinct = self.accept_keyword("distinct")
        star = False
        items: list[SelectItem] = []
        if self.accept_op("*"):
            star = True
        else:
            items.append(self._select_item())
            while self.accept_op(","):
                items.append(self._select_item())
        from_table = None
        joins: list[JoinClause] = []
        if self.accept_keyword("from"):
            from_table = self._table_ref()
            while True:
                join_type = None
                if self.accept_keyword("inner"):
                    join_type = "inner"
                    self.expect_keyword("join")
                elif self.accept_keyword("left"):
                    self.accept_keyword("outer")
                    join_type = "left"
                    self.expect_keyword("join")
                elif self.accept_keyword("right"):
                    self.accept_keyword("outer")
                    join_type = "right"
                    self.expect_keyword("join")
                elif self.accept_keyword("full"):
                    self.accept_keyword("outer")
                    join_type = "full"
                    self.expect_keyword("join")
                elif self.accept_keyword("join"):
                    join_type = "inner"
                else:
                    break
                table = self._table_ref()
                self.expect_keyword("on")
                conditions = self._join_conditions()
                joins.append(JoinClause(table, join_type, conditions))
        where = self.parse_expr() if self.accept_keyword("where") else None
        group_by: list[SqlExpr] = []
        if self.accept_keyword("group"):
            self.expect_keyword("by")
            group_by.append(self.parse_expr())
            while self.accept_op(","):
                group_by.append(self.parse_expr())
        having = self.parse_expr() if self.accept_keyword("having") else None
        order_by: list[tuple[SqlExpr, bool]] = []
        if self.accept_keyword("order"):
            self.expect_keyword("by")
            order_by.append(self._order_item())
            while self.accept_op(","):
                order_by.append(self._order_item())
        limit = None
        if self.accept_keyword("limit"):
            token = self.advance()
            if token.kind != "number" or "." in token.text:
                raise self._error("LIMIT expects an integer", token)
            limit = int(token.text)
        tail = self.peek()
        if tail.kind == "keyword" and tail.text in _SET_OPERATIONS:
            raise self._error(
                f"not supported: {tail.text.upper()} (set operations)", tail
            )
        return SelectStatement(
            items=items,
            star=star,
            from_table=from_table,
            joins=joins,
            where=where,
            group_by=group_by,
            having=having,
            order_by=order_by,
            limit=limit,
            distinct=distinct,
        )

    def _select_item(self) -> SelectItem:
        expr = self.parse_expr()
        alias = None
        if self.accept_keyword("as"):
            alias = self.expect_ident()
        elif self.peek().kind == "ident":
            alias = self.advance().text
        return SelectItem(expr, alias)

    def _table_ref(self) -> TableRef:
        name = self.expect_ident()
        alias = name
        if self.accept_keyword("as"):
            alias = self.expect_ident()
        elif self.peek().kind == "ident":
            alias = self.advance().text
        return TableRef(name, alias)

    def _join_conditions(self) -> list[tuple[EIdent, EIdent]]:
        conditions = [self._join_equality()]
        while self.accept_keyword("and"):
            conditions.append(self._join_equality())
        return conditions

    def _join_equality(self) -> tuple[EIdent, EIdent]:
        left = self._qualified_ident()
        self.expect_op("=")
        right = self._qualified_ident()
        return left, right

    def _qualified_ident(self) -> EIdent:
        token = self.advance()
        if token.kind != "ident":
            raise self._error(
                f"expected identifier in join condition, got {token.text!r}", token
            )
        if self.accept_op("."):
            column = self.expect_ident()
            return EIdent(column, qualifier=token.text)
        return EIdent(token.text)

    def _order_item(self) -> tuple[SqlExpr, bool]:
        expr = self.parse_expr()
        descending = False
        if self.accept_keyword("desc"):
            descending = True
        else:
            self.accept_keyword("asc")
        return expr, descending

    # ------------------------------------------------------------------ #
    # Other statements
    # ------------------------------------------------------------------ #
    def parse_insert(self) -> InsertStatement:
        self.expect_keyword("insert")
        self.expect_keyword("into")
        table = self.expect_ident()
        columns = None
        if self.accept_op("("):
            columns = [self.expect_ident()]
            while self.accept_op(","):
                columns.append(self.expect_ident())
            self.expect_op(")")
        self.expect_keyword("values")
        rows = [self._value_tuple()]
        while self.accept_op(","):
            rows.append(self._value_tuple())
        return InsertStatement(table, columns, rows)

    def _value_tuple(self) -> list[SqlExpr]:
        self.expect_op("(")
        values = [self.parse_expr()]
        while self.accept_op(","):
            values.append(self.parse_expr())
        self.expect_op(")")
        return values

    def parse_create_table(self) -> CreateTableStatement:
        self.expect_keyword("create")
        self.expect_keyword("table")
        table = self.expect_ident()
        self.expect_op("(")
        columns = [self._column_def()]
        while self.accept_op(","):
            columns.append(self._column_def())
        self.expect_op(")")
        storage = None
        if self.accept_keyword("using"):
            storage = self.expect_ident().lower()
        return CreateTableStatement(table, columns, storage)

    def _column_def(self) -> tuple[str, str, list[int], bool]:
        name = self.expect_ident()
        type_token = self.advance()
        if type_token.kind != "ident":
            raise self._error(
                f"expected a type name, got {type_token.text!r}", type_token
            )
        type_name = type_token.text.lower()
        params: list[int] = []
        if self.accept_op("("):
            while True:
                number = self.advance()
                if number.kind != "number" or not isinstance(number.value, int):
                    raise self._error("expected numeric type parameter", number)
                params.append(number.value)
                if not self.accept_op(","):
                    break
            self.expect_op(")")
        nullable = True
        if self.accept_keyword("not"):
            self.expect_keyword("null")
            nullable = False
        elif self.accept_keyword("null"):
            nullable = True
        return name, type_name, params, nullable

    def parse_drop_table(self) -> DropTableStatement:
        self.expect_keyword("drop")
        self.expect_keyword("table")
        return DropTableStatement(self.expect_ident())

    def parse_delete(self) -> DeleteStatement:
        self.expect_keyword("delete")
        self.expect_keyword("from")
        table = self.expect_ident()
        where = self.parse_expr() if self.accept_keyword("where") else None
        return DeleteStatement(table, where)

    def parse_update(self) -> UpdateStatement:
        self.expect_keyword("update")
        table = self.expect_ident()
        self.expect_keyword("set")
        assignments = [self._assignment()]
        while self.accept_op(","):
            assignments.append(self._assignment())
        where = self.parse_expr() if self.accept_keyword("where") else None
        return UpdateStatement(table, assignments, where)

    def _assignment(self) -> tuple[str, SqlExpr]:
        column = self.expect_ident()
        self.expect_op("=")
        return column, self.parse_expr()

    # ------------------------------------------------------------------ #
    # Expressions (precedence climbing)
    # ------------------------------------------------------------------ #
    def parse_expr(self) -> SqlExpr:
        return self._or_expr()

    def _or_expr(self) -> SqlExpr:
        left = self._and_expr()
        while self.accept_keyword("or"):
            left = EBinary("or", left, self._and_expr())
        return left

    def _and_expr(self) -> SqlExpr:
        left = self._not_expr()
        while self.accept_keyword("and"):
            left = EBinary("and", left, self._not_expr())
        return left

    def _not_expr(self) -> SqlExpr:
        if self.peek().is_keyword("not") and self.peek(1).is_keyword("exists"):
            self.advance()
            self.advance()
            return self._exists_tail(negated=True)
        if self.accept_keyword("not"):
            return EUnary("not", self._not_expr())
        return self._comparison()

    def _exists_tail(self, negated: bool) -> EExists:
        """Parse ``(SELECT ...)`` after an EXISTS keyword."""
        self.expect_op("(")
        token = self.peek()
        if not token.is_keyword("select"):
            raise self._error(
                f"EXISTS expects a subquery, got {token.text!r}", token
            )
        select = self.parse_select()
        self.expect_op(")")
        return EExists(select, negated=negated)

    def _comparison(self) -> SqlExpr:
        left = self._additive()
        token = self.peek()
        if token.kind == "op" and token.text in ("=", "!=", "<", "<=", ">", ">="):
            self.advance()
            return EBinary(token.text, left, self._additive())
        negated = False
        if token.is_keyword("not"):
            nxt = self.peek(1)
            if nxt.is_keyword("between") or nxt.is_keyword("in") or nxt.is_keyword("like"):
                self.advance()
                negated = True
                token = self.peek()
        if token.is_keyword("between"):
            self.advance()
            low = self._additive()
            self.expect_keyword("and")
            high = self._additive()
            return EBetween(left, low, high, negated)
        if token.is_keyword("in"):
            self.advance()
            self.expect_op("(")
            if self.peek().is_keyword("select"):
                select = self.parse_select()
                self.expect_op(")")
                return EInSubquery(left, select, negated)
            values = [self._literal_value()]
            while self.accept_op(","):
                values.append(self._literal_value())
            self.expect_op(")")
            return EIn(left, values, negated)
        if token.is_keyword("like"):
            self.advance()
            pattern = self.advance()
            if pattern.kind != "string":
                raise self._error("LIKE expects a string pattern", pattern)
            return ELike(left, pattern.text, negated)
        if token.is_keyword("is"):
            self.advance()
            is_not = self.accept_keyword("not")
            self.expect_keyword("null")
            return EIsNull(left, is_not)
        return left

    def _literal_value(self) -> Any:
        token = self.advance()
        if token.kind in ("string", "number"):
            return token.value
        if token.is_keyword("null"):
            return None
        if token.is_keyword("true"):
            return True
        if token.is_keyword("false"):
            return False
        if token.is_op("-") and self.peek().kind == "number":
            return -self.advance().value
        raise self._error(f"expected a literal, got {token.text!r}", token)

    def _additive(self) -> SqlExpr:
        left = self._multiplicative()
        while True:
            token = self.peek()
            if token.kind == "op" and token.text in ("+", "-"):
                self.advance()
                left = EBinary(token.text, left, self._multiplicative())
            else:
                return left

    def _multiplicative(self) -> SqlExpr:
        left = self._unary()
        while True:
            token = self.peek()
            if token.kind == "op" and token.text in ("*", "/", "%"):
                self.advance()
                left = EBinary(token.text, left, self._unary())
            else:
                return left

    def _unary(self) -> SqlExpr:
        if self.accept_op("-"):
            operand = self._unary()
            if isinstance(operand, ELiteral) and isinstance(operand.value, (int, float)):
                # Folded: no slot, so the literal's text is part of the
                # statement's cache key (runner "Statement shapes").
                return ELiteral(-operand.value)
            return EBinary("-", ELiteral(0), operand)
        return self._primary()

    def _primary(self) -> SqlExpr:
        token = self.advance()
        if token.kind in ("number", "string"):
            return ELiteral(token.value, token.slot)
        if token.is_keyword("null"):
            return ELiteral(None)
        if token.is_keyword("true"):
            return ELiteral(True)
        if token.is_keyword("false"):
            return ELiteral(False)
        if token.is_op("("):
            if self.peek().is_keyword("select"):
                select = self.parse_select()
                self.expect_op(")")
                return ESubquery(select)
            if self.peek().is_keyword("with"):
                raise self._error(
                    "not supported: WITH inside a subquery — declare CTEs at the "
                    "top level",
                    self.peek(),
                )
            expr = self.parse_expr()
            self.expect_op(")")
            return expr
        if token.is_keyword("exists"):
            return self._exists_tail(negated=False)
        if token.is_keyword("case"):
            return self._case_tail()
        if token.kind == "ident":
            if self.peek().is_op("("):
                call = self._function_call(token.text)
                if self.peek().is_keyword("over"):
                    self.advance()
                    return self._window_tail(call)
                return call
            if self.accept_op("."):
                column = self.expect_ident()
                return EIdent(column, qualifier=token.text)
            return EIdent(token.text)
        raise self._error(f"unexpected token {token.text!r}", token)

    def _function_call(self, name: str) -> EFunc:
        token = self.peek()
        self.expect_op("(")
        lowered = name.lower()
        if self.accept_op("*"):
            self.expect_op(")")
            if lowered != "count":
                raise self._error(f"{name}(*) is only valid for COUNT", token)
            return EFunc(lowered, [], star=True)
        if self.accept_op(")"):
            return EFunc(lowered, [])
        distinct = self.accept_keyword("distinct")
        args = [self.parse_expr()]
        while self.accept_op(","):
            args.append(self.parse_expr())
        self.expect_op(")")
        return EFunc(lowered, args, distinct=distinct)

    def _window_tail(self, call: EFunc) -> EWindow:
        """Parse ``( [PARTITION BY ...] [ORDER BY ...] )`` after OVER."""
        opener = self.peek()
        self.expect_op("(")
        if call.name not in _WINDOW_FUNCS:
            raise self._error(
                f"not supported: window function {call.name.upper()}", opener
            )
        if call.distinct:
            raise self._error(
                "not supported: DISTINCT inside a window function", opener
            )
        partition_by: list[SqlExpr] = []
        if self.accept_keyword("partition"):
            self.expect_keyword("by")
            partition_by.append(self.parse_expr())
            while self.accept_op(","):
                partition_by.append(self.parse_expr())
        order_by: list[tuple[SqlExpr, bool]] = []
        if self.accept_keyword("order"):
            self.expect_keyword("by")
            order_by.append(self._order_item())
            while self.accept_op(","):
                order_by.append(self._order_item())
        token = self.peek()
        if not token.is_op(")"):
            raise self._error(
                "not supported: window frames (ROWS/RANGE/GROUPS) — only the "
                "default frame is available",
                token,
            )
        self.advance()
        return EWindow(
            call.name,
            call.args,
            star=call.star,
            partition_by=partition_by,
            order_by=order_by,
        )

    def _case_tail(self) -> ECase:
        branches = []
        while self.accept_keyword("when"):
            condition = self.parse_expr()
            self.expect_keyword("then")
            branches.append((condition, self.parse_expr()))
        default = self.parse_expr() if self.accept_keyword("else") else None
        self.expect_keyword("end")
        if not branches:
            raise SqlSyntaxError("CASE requires at least one WHEN branch")
        return ECase(branches, default)


def parse_statement(sql: str, tokens: list[Token] | None = None):
    """Parse one SQL statement (already lexed into ``tokens``) into its AST."""
    return Parser(sql, tokens).parse_statement()
