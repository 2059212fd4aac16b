"""SQL tokenizer: one compiled pattern, and the statement's shape.

:func:`lex` runs one master regular expression over the text with
``re.finditer``. Besides the tokens it returns the statement's *shape* —
the token texts with every number and string literal replaced by its
class — and the literals themselves, numbered by *slot* (their order in
the text). The statement pipeline keys its cache of bound statements on
the shape (DESIGN.md "Statement shapes").
"""

from __future__ import annotations

import re
from typing import Any, NamedTuple

from ..errors import SqlSyntaxError

KEYWORDS = {
    "select", "from", "where", "group", "by", "having", "order", "limit",
    "as", "and", "or", "not", "in", "like", "between", "is", "null",
    "join", "inner", "left", "right", "full", "outer", "on", "case",
    "when", "then",
    "else", "end", "distinct", "insert", "into", "values", "create",
    "table", "drop", "delete", "update", "set", "using", "asc", "desc",
    "true", "false", "exists", "explain", "analyze",
    "begin", "commit", "rollback", "start", "transaction", "work",
    "with", "recursive", "over", "partition",
    "union", "intersect", "except",
    "show", "kill",
}

# A literal's class stands for it in the shape: the classes of
# ``expressions._literal_dtype`` (an integer literal is INT inside 32
# bits, BIGINT beyond), plus strings. Unquoted tokens never start with
# "#", quoted identifiers keep their quotes in the shape.
INT, BIGINT, FLOAT, STRING = "#int", "#bigint", "#float", "#string"

_INT64_MAX = 2**63 - 1

# One group per alternative, tried in order (``lastindex`` tells which
# matched); multi-character operators come before their one-character
# prefixes, a number before the "." operator.
_SPACE, _WORD, _NUMBER, _OP, _STRING, _QUOTED = range(1, 7)
_PATTERN = re.compile(
    r"(\s+|--[^\n]*)"
    r"|([^\W\d]\w*)"
    r"|((?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(<=|>=|!=|<>|[=<>+\-*/%(),.;])"
    r"|('[^']*(?:''[^']*)*')"
    r"|(\"[^\"]*\")"
    r"|(.)",
    re.DOTALL,
)


class Token(NamedTuple):
    kind: str  # keyword | ident | number | string | op | eof
    text: str
    position: int
    value: Any = None  # a number's or a string's value
    slot: int | None = None  # a number's or a string's place among the literals

    def is_keyword(self, word: str) -> bool:
        return self.kind == "keyword" and self.text == word

    def is_op(self, op: str) -> bool:
        return self.kind == "op" and self.text == op


class Lexed(NamedTuple):
    tokens: list[Token]
    shape: tuple[str, ...]
    literals: list[Token]  # the number and string tokens, in slot order


def lex(sql: str) -> Lexed:
    """Tokens, shape and literals of ``sql``; raises :class:`SqlSyntaxError`
    (with line and column) on bad input."""
    tokens: list[Token] = []
    shape: list[str] = []
    literals: list[Token] = []
    new = tuple.__new__  # Token's fields without its Python-level __new__
    for match in _PATTERN.finditer(sql):
        kind = match.lastindex
        if kind == _SPACE:
            continue
        text = match.group()
        start = match.start()
        if kind == _WORD:
            lower = text.lower()
            if lower in KEYWORDS:
                tokens.append(new(Token, ("keyword", lower, start, None, None)))
                shape.append(lower)
            else:
                tokens.append(new(Token, ("ident", text, start, None, None)))
                shape.append(text)
        elif kind == _OP:
            if text == "<>":
                text = "!="
            tokens.append(new(Token, ("op", text, start, None, None)))
            shape.append(text)
        elif kind == _NUMBER:
            # Not after a number: a second point, or an exponent the
            # pattern could not complete ("1.2.3", "1e", "1e+").
            tail = sql[match.end() : match.end() + 1]
            if tail and tail in ".eE":
                raise _error(sql, f"malformed number {text + tail!r}", start)
            value = float(text) if "." in text or "e" in text or "E" in text else int(text)
            if type(value) is int and value > _INT64_MAX:  # no engine type holds it
                raise _error(sql, "integer literal out of range", start)
            token = new(Token, ("number", text, start, value, len(literals)))
            tokens.append(token)
            literals.append(token)
            shape.append(FLOAT if type(value) is float else INT if value < 2**31 else BIGINT)
        elif kind == _STRING:
            value = text[1:-1].replace("''", "'")
            token = new(Token, ("string", value, start, value, len(literals)))
            tokens.append(token)
            literals.append(token)
            shape.append(STRING)
        elif kind == _QUOTED:
            tokens.append(new(Token, ("ident", text[1:-1], start, None, None)))
            shape.append(text)
        elif text == "'":
            raise _error(sql, "unterminated string literal", start)
        elif text == '"':
            raise _error(sql, "unterminated quoted identifier", start)
        else:
            raise _error(sql, f"unexpected character {text!r}", start)
    tokens.append(Token("eof", "", len(sql)))
    return Lexed(tokens, tuple(shape), literals)


def tokenize(sql: str) -> list[Token]:
    """Tokenize a SQL string; raises :class:`SqlSyntaxError` on bad input."""
    return lex(sql).tokens


def _error(sql: str, message: str, position: int) -> SqlSyntaxError:
    line, column = line_column(sql, position)
    return SqlSyntaxError(message, position=position, line=line, column=column)


def line_column(sql: str, position: int) -> tuple[int, int]:
    """1-based (line, column) of a character offset in ``sql``."""
    position = max(0, min(position, len(sql)))
    line = sql.count("\n", 0, position) + 1
    last_newline = sql.rfind("\n", 0, position)
    column = position - last_newline if last_newline != -1 else position + 1
    return line, column
