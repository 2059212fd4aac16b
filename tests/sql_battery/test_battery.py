"""The differential SQL battery: every statement checked three ways.

1. **Plan**: ``EXPLAIN`` succeeds, renders a physical plan, and contains
   each ``-- plan:`` marker from the statement file.
2. **Oracle**: batch mode answers as sqlite3 on the same rows (floats to
   4 places), unless the statement opted out with ``-- no-oracle:`` or
   sqlite itself cannot run it.
3. **Arms**: every arm of the differential harness
   (``repro.bench.harness.ARMS``: each switch off alone and all at once,
   three-row batches, the row engine, a budget that spills every
   operator, a shape hit after a literal-moved twin) answers as batch mode
   does — one test per (statement, arm), so ``-k`` picks an arm. Batch
   mode's answer is computed once per statement and kept for its arms.

A final coverage test enforces the floors the battery exists for: at
least 200 statements total, at least 150 of them oracle-compared, and at
least 8 adapted TPC-H queries all passing every applicable check.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import ARMS, Rows, reference_answer, same_answers

from .battery_lib import load_statements

STATEMENTS = load_statements()
SOURCES = [s.source for s in STATEMENTS]

# Filled in as the parametrized tests run; the coverage test reads it.
_ORACLE_OUTCOMES: dict[str, str] = {}  # source -> "compared" | "skipped"
_REFERENCES: dict[str, Rows] = {}  # source -> batch mode's answer


def reference(db, statement) -> Rows:
    if statement.source not in _REFERENCES:
        _REFERENCES[statement.source] = reference_answer(db, statement.sql)
    return _REFERENCES[statement.source]


@pytest.mark.parametrize("statement", STATEMENTS, ids=SOURCES)
def test_statement(statement, battery_db, oracle):
    explain = battery_db.sql("EXPLAIN " + statement.sql)
    plan_text = "\n".join(row[0] for row in explain.rows)
    assert "-- physical" in plan_text, f"no physical plan for {statement.source}"
    for marker in statement.plan_markers:
        assert marker in plan_text, (
            f"{statement.source}: plan marker {marker!r} missing from:\n{plan_text}"
        )

    checked = same_answers(
        battery_db, statement.sql, (), oracle=None if statement.no_oracle else oracle,
        reference=reference(battery_db, statement),
    )
    _ORACLE_OUTCOMES[statement.source] = "compared" if checked else "skipped"


@pytest.mark.parametrize("arm", ARMS, ids=[arm.name for arm in ARMS])
@pytest.mark.parametrize("statement", STATEMENTS, ids=SOURCES)
def test_arm(statement, arm, battery_db):
    same_answers(battery_db, statement.sql, [arm], reference=reference(battery_db, statement))


def test_battery_coverage(battery_db):
    """The floors: battery breadth is a regression surface, not a sample."""
    total = len(STATEMENTS)
    assert total >= 200, f"battery shrank to {total} statements (floor: 200)"

    if not _ORACLE_OUTCOMES:
        pytest.skip("per-statement tests did not run in this invocation")
    compared = sum(1 for v in _ORACLE_OUTCOMES.values() if v == "compared")
    assert compared >= 150, (
        f"only {compared} statements oracle-compared (floor: 150) — "
        "too many statements drifted outside sqlite's dialect"
    )

    tpch = {s.tpch for s in STATEMENTS if s.tpch}
    assert len(tpch) >= 8, f"only {len(tpch)} TPC-H adaptations: {sorted(tpch)}"
    assert "Q13" in tpch, "the Q13 adaptation (LEFT JOIN + CTE) is required"
