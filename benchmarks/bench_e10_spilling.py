"""E10 — Hash join and hash aggregation under memory pressure (spilling).

The paper's enhanced operators degrade gracefully when the memory grant
is exhausted: the join goes Grace-style (partition both sides to disk),
the aggregate switches to local aggregation + partitioned partials. We
sweep the statement's ``query_memory_budget`` (the bytes its operators
may reserve together before they spill) from ample to tiny.

Expected shape: results stay identical; cost degrades by a bounded factor
(not a cliff), growing as the budget shrinks.
"""

from __future__ import annotations

import pytest

from conftest import save_report, scaled
from repro.bench.harness import ReportTable, query_stats, same_rows, time_call
from repro.bench.star_schema import build_star_schema

JOIN_SQL = (
    "SELECT c.c_segment, COUNT(*) AS n FROM store_sales s "
    "JOIN customer c ON s.ss_customer_id = c.c_id GROUP BY c.c_segment"
)
AGG_SQL = (
    "SELECT ss_customer_id, SUM(ss_net_paid) AS revenue "
    "FROM store_sales GROUP BY ss_customer_id"
)

# Budgets in bytes: ample -> starved. The 2 KiB floor is below any
# build-side or aggregate-state footprint, so the last point spills at
# every REPRO_BENCH_SCALE (the engine's spill counters assert this).
BUDGETS = [64 * 1024 * 1024, 256 * 1024, 64 * 1024, 16 * 1024, 2 * 1024]


@pytest.fixture(scope="module")
def star():
    from repro.storage.config import StoreConfig

    config = StoreConfig(rowgroup_size=32_768, bulk_load_threshold=1000)
    return build_star_schema(
        scaled(80_000), storage="columnstore", seed=9, config=config
    )


def run_sweep(star) -> list[dict]:
    db = star.db
    baseline_join = db.sql(JOIN_SQL).rows
    baseline_agg = db.sql(AGG_SQL).rows
    results = []
    for budget in BUDGETS:
        join_result = db.sql(JOIN_SQL, query_memory_budget=budget)
        agg_result = db.sql(AGG_SQL, query_memory_budget=budget)
        # To 4 digits: spilling changes summation order by design, so value
        # equality, not float equality, is the correctness contract.
        same_rows(join_result.rows, baseline_join, 4, "spilling changed join results")
        same_rows(agg_result.rows, baseline_agg, 4, "spilling changed agg results")
        join_timing = time_call(lambda: db.sql(JOIN_SQL, query_memory_budget=budget), repeat=2)
        agg_timing = time_call(lambda: db.sql(AGG_SQL, query_memory_budget=budget), repeat=2)
        # Engine counters confirm whether this budget actually spilled.
        join_stats = query_stats(db, JOIN_SQL, query_memory_budget=budget)
        agg_stats = query_stats(db, AGG_SQL, query_memory_budget=budget)
        results.append(
            {
                "budget": budget,
                "join_ms": join_timing.seconds * 1000,
                "agg_ms": agg_timing.seconds * 1000,
                "join_spill_bytes": join_stats["counters"].get("exec.spill.bytes_written", 0),
                "agg_spill_bytes": agg_stats["counters"].get("exec.spill.bytes_written", 0),
            }
        )
    return results


def test_e10_spilling(benchmark, report_dir, star):
    results = benchmark.pedantic(run_sweep, args=(star,), rounds=1, iterations=1)
    report = ReportTable(
        f"E10: operators under shrinking memory budgets ({star.fact_rows:,} fact rows)",
        ["query_memory_budget", "star join ms", "grouped agg ms",
         "join slowdown", "agg slowdown", "spill bytes (join/agg)"],
    )
    base = results[0]
    for r in results:
        budget_label = (
            f"{r['budget'] // (1024 * 1024)} MiB"
            if r["budget"] >= 1024 * 1024
            else f"{r['budget'] // 1024} KiB"
        )
        report.add_row(
            budget_label,
            round(r["join_ms"], 1),
            round(r["agg_ms"], 1),
            f"{r['join_ms'] / base['join_ms']:.2f}x",
            f"{r['agg_ms'] / base['agg_ms']:.2f}x",
            f"{int(r['join_spill_bytes']):,} / {int(r['agg_spill_bytes']):,}",
        )
    report.add_note("identical results verified at every budget before timing")
    report.add_note("spill bytes from the exec.spill.bytes_written engine counter")
    save_report(report_dir, "e10_spilling.txt", report.render())

    starved = results[-1]
    assert starved["join_ms"] > 0 and starved["agg_ms"] > 0
    # Graceful: bounded degradation, not a failure or a 100x cliff.
    assert starved["join_ms"] < base["join_ms"] * 30
    assert starved["agg_ms"] < base["agg_ms"] * 30
    # The ample budget must run in memory; the starved budget must spill —
    # asserted on the engine's own spill counters, not on timing.
    assert base["join_spill_bytes"] == 0 and base["agg_spill_bytes"] == 0
    assert starved["join_spill_bytes"] > 0
    assert starved["agg_spill_bytes"] > 0
