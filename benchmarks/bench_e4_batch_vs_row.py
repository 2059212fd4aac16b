"""E4 — Batch vs row execution isolated on identical (columnstore) storage.

Separates the two contributions the paper combines: E3 mixes storage
format and execution model; here both engines read the SAME columnstore,
so the measured gap is the vectorization benefit alone (row mode pays
per-tuple interpretation over decompressed row groups — the paper's
"row mode over a columnstore" plan shape).

Expected shape: batch wins everywhere, but by less than E3's combined gap.
"""

from __future__ import annotations

import statistics

from conftest import save_report
from repro.bench.harness import ROW_ENGINE, ReportTable, same_answers, time_query
from repro.bench.queries import query_by_id

QUERY_IDS = ["Q01", "Q02", "Q04", "Q06", "Q08", "Q12", "Q17", "Q21"]


def run_comparison(star_columnstore) -> list[dict]:
    db = star_columnstore.db
    results = []
    for qid in QUERY_IDS:
        query = query_by_id(qid)
        same_answers(db, query.sql, [ROW_ENGINE])
        batch = time_query(db, query.sql, mode="batch", repeat=2)
        row = time_query(db, query.sql, mode="row", repeat=1)
        results.append(
            {
                "qid": qid,
                "batch_ms": batch.seconds * 1000,
                "row_ms": row.seconds * 1000,
                "speedup": row.seconds / max(batch.seconds, 1e-9),
            }
        )
    return results


def test_e4_execution_model_isolated(benchmark, report_dir, star_columnstore):
    results = benchmark.pedantic(
        run_comparison, args=(star_columnstore,), rounds=1, iterations=1
    )
    report = ReportTable(
        "E4: batch vs row execution over the SAME columnstore "
        f"({star_columnstore.fact_rows:,} fact rows)",
        ["query", "batch ms", "row-over-columnstore ms", "speedup"],
    )
    for r in results:
        report.add_row(
            r["qid"], round(r["batch_ms"], 1), round(r["row_ms"], 1),
            f"{r['speedup']:.1f}x",
        )
    speedups = [r["speedup"] for r in results]
    report.add_note(
        f"median {statistics.median(speedups):.1f}x — execution-model share "
        "of the E3 end-to-end gap"
    )
    save_report(report_dir, "e4_batch_vs_row.txt", report.render())

    assert all(s > 1.0 for s in speedups)
    assert statistics.median(speedups) >= 3.0
