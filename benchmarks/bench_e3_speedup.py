"""E3 — The headline figure: columnstore+batch vs rowstore+row, 22 queries.

The abstract's claim: batch mode on column stores improves typical data-
warehouse queries "routinely by 10X and in some cases by a 100X or more"
over row-mode row-store execution. This benchmark runs the full 22-query
star-schema suite on identical data in both configurations, verifying the
results match before timing.

Expected shape: batch+columnstore wins every query; median speedup around
an order of magnitude; join- and string-heavy queries at the high end.
(Absolute factors are compressed relative to the paper: our baseline is
interpreted Python rather than compiled row-mode C++, and our batch mode
is NumPy rather than hand-tuned SIMD — see EXPERIMENTS.md.)
"""

from __future__ import annotations

import statistics

from conftest import save_report
from repro.bench.harness import ROW_ENGINE, ReportTable, same_rows, time_query
from repro.bench.queries import QUERY_SUITE


def run_suite(star_columnstore, star_rowstore) -> list[dict]:
    results = []
    for query in QUERY_SUITE:
        same_rows(
            star_rowstore.db.sql(query.sql, mode="row").rows,
            star_columnstore.db.sql(query.sql, mode="batch").rows,
            ROW_ENGINE.digits,
            f"{query.qid}: rowstore+row differs from columnstore+batch",
        )
        batch = time_query(star_columnstore.db, query.sql, mode="batch", repeat=2)
        row = time_query(star_rowstore.db, query.sql, mode="row", repeat=1)
        results.append(
            {
                "qid": query.qid,
                "description": query.description,
                "batch_ms": batch.seconds * 1000,
                "row_ms": row.seconds * 1000,
                "speedup": row.seconds / max(batch.seconds, 1e-9),
            }
        )
    return results


def test_e3_speedup_per_query(benchmark, report_dir, star_columnstore, star_rowstore):
    results = benchmark.pedantic(
        run_suite, args=(star_columnstore, star_rowstore), rounds=1, iterations=1
    )
    report = ReportTable(
        f"E3: per-query speedup, columnstore+batch vs rowstore+row "
        f"({star_columnstore.fact_rows:,} fact rows)",
        ["query", "description", "batch ms", "row ms", "speedup"],
    )
    for r in results:
        report.add_row(
            r["qid"],
            r["description"][:42],
            round(r["batch_ms"], 1),
            round(r["row_ms"], 1),
            f"{r['speedup']:.1f}x",
        )
    speedups = [r["speedup"] for r in results]
    report.add_note(
        f"median speedup {statistics.median(speedups):.1f}x, "
        f"min {min(speedups):.1f}x, max {max(speedups):.1f}x"
    )
    save_report(report_dir, "e3_speedup.txt", report.render())

    assert all(s > 1.0 for s in speedups), "batch+columnstore must win every query"
    assert statistics.median(speedups) >= 4.0
    assert max(speedups) >= 15.0


def test_e3_single_star_join_batch(benchmark, star_columnstore):
    """Micro: the representative star join (Q06) in batch mode."""
    from repro.bench.queries import query_by_id

    sql = query_by_id("Q06").sql
    benchmark.pedantic(
        lambda: star_columnstore.db.sql(sql, mode="batch"), rounds=3, iterations=1
    )


def test_e3_single_star_join_row(benchmark, star_rowstore):
    """Micro: the same star join (Q06) on the row-mode baseline."""
    from repro.bench.queries import query_by_id

    sql = query_by_id("Q06").sql
    benchmark.pedantic(
        lambda: star_rowstore.db.sql(sql, mode="row"), rounds=1, iterations=1
    )
