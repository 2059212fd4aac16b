"""The statement pipeline driven stage by stage from outside the engine.

``Database.sql`` and ``Session.sql`` run parse -> bind -> optimize ->
compile -> (pin) -> execute -> present as one call. For the read
workloads the traced run also calls each stage's public entry point
itself, one span per stage, so that where a SELECT's milliseconds go is
measured and not inferred. The rows that come out are checked like any
other answer, so this copy of the pipeline cannot silently drift from the
engine's.
"""

from __future__ import annotations

import stats
from tracer import Tracer

PLAN_STAGES = ("sql.parse", "sql.bind", "planner.optimize", "planner.compile")


def run_select(db, sql: str, tracer: Tracer) -> list[tuple]:
    """Run one SELECT the way ``Database.sql`` does, stage by stage,
    recording one span per stage under the tracer's current statement id.
    Returns the presented rows."""
    from repro.governance import governed
    from repro.planner.schema_infer import infer_output_dtypes
    from repro.sql.parser import parse_statement
    from repro.sql.runner import make_binder

    with tracer.span("sql.parse"):
        statement = parse_statement(sql)
    with tracer.span("governance.context"):
        context = db.new_query_context(sql=sql)
    with governed(context):
        with tracer.span("sql.bind"):
            plan = make_binder(db).bind_select(statement)
        with tracer.span("planner.optimize"):
            optimized = db.optimizer.optimize(plan)
        with tracer.span("planner.compile"):
            dtypes_by_name = infer_output_dtypes(plan, db.catalog)
            physical = db.optimizer.compile(optimized, optimize=False)
        with tracer.span("exec.run"):
            raw = list(physical.rows())
        with tracer.span("db.present"):
            dtypes = [dtypes_by_name[name] for name in physical.columns]
            rows = [tuple(d.present(v) for d, v in zip(dtypes, row)) for row in raw]
    return rows


def statement_totals(tracer: Tracer) -> dict[int, float]:
    """Statement id -> ms summed over the stages."""
    totals: dict[int, float] = {}
    for span in tracer.spans:
        totals[span.statement] = totals.get(span.statement, 0.0) + span.ms
    return totals


def stage_metrics(values: dict[str, float], tracer: Tracer) -> None:
    """Fill the sql/planner/exec timing rows from a staged replay's spans."""
    total = sum(statement_totals(tracer).values())
    planning = sum(sum(tracer.durations(name)) for name in PLAN_STAGES)
    running = tracer.durations("exec.run")
    values["sql.parse_ms_p50"] = stats.median(tracer.durations("sql.parse"))
    values["sql.bind_ms_p50"] = stats.median(tracer.durations("sql.bind"))
    values["planner.optimize_ms_p50"] = stats.median(tracer.durations("planner.optimize"))
    values["planner.compile_ms_p50"] = stats.median(tracer.durations("planner.compile"))
    values["planner.plan_share"] = planning / total
    values["exec.run_ms_p50"] = stats.median(running)
    values["exec.run_share"] = sum(running) / total
    values["governance.context_ms_p50"] = stats.median(tracer.durations("governance.context"))
