"""Runtime settings, declared once.

Every switch a statement runs under is one row of :data:`SETTINGS`: its
name, its kind (how ``SET`` reads a value) and its default (README.md
"Settings" says what each switches). Three overlays of the same names
sit on the defaults, each winning over the one before:

* database — ``Database.settings``;
* session — ``Isolation.settings``, which ``SET`` writes (the
  ``Database`` facade's own isolation writes the database's settings);
* statement — keyword arguments of ``db.sql`` / ``execute`` /
  ``explain`` / ``explain_analyze`` / ``compile``.

:func:`resolve` merges them once per statement into the one mapping the
statement's :class:`~repro.governance.QueryContext` (the limits) and the
physical builder (everything else) read.
"""

from __future__ import annotations

from typing import Any, Mapping, NamedTuple

from .errors import BindingError, SqlSyntaxError
from .exec.batch import DEFAULT_BATCH_SIZE

MODES = ("auto", "batch", "row")


class Setting(NamedTuple):
    name: str
    kind: str  # boolean | count | limit | mode: how SET reads a value
    default: Any


SETTINGS: dict[str, Setting] = {
    setting.name: setting
    for setting in (
        Setting("mode", "mode", "auto"),
        Setting("batch_size", "count", DEFAULT_BATCH_SIZE),
        Setting("enable_bitmaps", "boolean", True),
        Setting("enable_segment_elimination", "boolean", True),
        Setting("enable_encoded_eval", "boolean", True),
        Setting("enable_encoded_agg", "boolean", True),
        Setting("statement_timeout", "limit", None),  # milliseconds
        Setting("query_memory_budget", "limit", None),  # bytes, then operators spill
        Setting("query_memory_limit", "limit", None),  # bytes, then the statement fails
    )
}

DEFAULTS: dict[str, Any] = {name: setting.default for name, setting in SETTINGS.items()}


def lookup(name: str) -> Setting:
    """The setting called ``name`` (any case); an unknown name is a
    :class:`BindingError` listing the table."""
    setting = SETTINGS.get(name.lower())
    if setting is None:
        raise BindingError(f"unknown setting {name!r} (settings: {', '.join(SETTINGS)})")
    return setting


def parse(setting: Setting, value: Any) -> Any:
    """A ``SET`` value — an integer, a string, or a bare word such as
    ON — read by the setting's kind; the wrong kind is a
    :class:`SqlSyntaxError`."""
    word = str(value).lower()
    if setting.kind == "boolean":
        if word in ("on", "true", "1"):
            return True
        if word in ("off", "false", "0"):
            return False
        expected = "ON, OFF, TRUE, FALSE, 1 or 0"
    elif setting.kind == "limit":
        if word == "off":
            return None
        if type(value) is int:
            return value if value > 0 else None  # 0 (or less) is no limit
        expected = "an integer, OFF or DEFAULT"
    elif setting.kind == "count":
        if type(value) is int and value > 0:
            return value
        expected = "a positive integer"
    else:
        if word in MODES:
            return word
        expected = " or ".join(MODES)
    raise SqlSyntaxError(f"SET {setting.name} expects {expected}, got {value!r}")


def render(setting: Setting, value: Any) -> str:
    """A value as ``SHOW ALL`` prints it (a limit that is off as 0)."""
    if setting.kind == "boolean":
        return "on" if value else "off"
    return str(value or 0) if setting.kind == "limit" else str(value)


def resolve(
    database: Mapping[str, Any],
    session: Mapping[str, Any] | None = None,
    statement: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """Every setting's value for one statement: the defaults under the
    database, session and statement overlays, in one merge."""
    if statement and not statement.keys() <= DEFAULTS.keys():
        unknown = ", ".join(sorted(statement.keys() - DEFAULTS.keys()))
        raise TypeError(f"unknown setting {unknown} (settings: {', '.join(SETTINGS)})")
    return {**DEFAULTS, **database, **(session or {}), **(statement or {})}
