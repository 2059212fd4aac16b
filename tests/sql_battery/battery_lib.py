"""Loader for the differential SQL battery.

Statements live in ``statements/*.sql``, one file per feature area. A
statement runs until a line ending in ``;``. Directive comments attach
to the *next* statement:

* ``-- plan: <substring>`` — the EXPLAIN text must contain the substring
  (repeatable).
* ``-- no-oracle: <reason>`` — skip the sqlite comparison (dialect or
  semantics difference; the reason is kept for reporting).
* ``-- tpch: <Qn>`` — marks an adapted TPC-H query for the coverage
  floor.

``test_battery.py`` checks that EXPLAIN produces a plan (with the
expected markers), that every arm of ``repro.bench.harness`` answers as
batch mode does and — unless opted out — that the rows match sqlite on
the same data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

STATEMENTS_DIR = Path(__file__).parent / "statements"


@dataclass
class Statement:
    sql: str
    source: str  # "<file>:<index>"
    plan_markers: list[str] = field(default_factory=list)
    no_oracle: str | None = None  # reason, when oracle comparison is off
    tpch: str | None = None  # "Q13" etc for adapted TPC-H queries


def load_statements() -> list[Statement]:
    statements: list[Statement] = []
    for path in sorted(STATEMENTS_DIR.glob("*.sql")):
        statements.extend(_load_file(path))
    return statements


def _load_file(path: Path) -> list[Statement]:
    statements: list[Statement] = []
    markers: list[str] = []
    no_oracle: str | None = None
    tpch: str | None = None
    lines: list[str] = []
    for raw in path.read_text().splitlines():
        line = raw.rstrip()
        stripped = line.strip()
        if stripped.startswith("--"):
            directive = stripped[2:].strip()
            if directive.startswith("plan:"):
                markers.append(directive[len("plan:"):].strip())
            elif directive.startswith("no-oracle:"):
                no_oracle = directive[len("no-oracle:"):].strip()
            elif directive.startswith("tpch:"):
                tpch = directive[len("tpch:"):].strip()
            continue
        if not stripped:
            continue
        lines.append(line)
        if stripped.endswith(";"):
            sql = "\n".join(lines).rstrip().rstrip(";")
            statements.append(
                Statement(
                    sql=sql,
                    source=f"{path.stem}:{len(statements):03d}",
                    plan_markers=markers,
                    no_oracle=no_oracle,
                    tpch=tpch,
                )
            )
            markers, no_oracle, tpch, lines = [], None, None, []
    if lines:
        raise ValueError(f"{path}: trailing statement without terminating ';'")
    return statements
