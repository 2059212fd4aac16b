"""E7 — Updatable columnstore: delta-store overhead and the tuple mover.

The 2014 enhancement makes column stores updatable via delta stores. Two
costs follow: trickle inserts are slower than bulk loads (each row is
written into the delta store one at a time), and queries read more as
more data sits uncompressed in delta stores — until the tuple mover
compresses it.

Expected shape: every delta row is scanned as a delta row, and none is
after the tuple mover (asserted on the scan counters). Query time grows
with the delta fraction only as far as gathering uncompressed columns
costs more than decoding segments; the report prints the ratios, it does
not assert them.
"""

from __future__ import annotations

import pytest

from conftest import save_report, scaled
from repro.bench.harness import ReportTable, query_stats, time_call
from repro.bench.star_schema import STORE_SALES_SCHEMA, build_star_schema, generate_star_data
from repro.storage.config import StoreConfig

BASE_ROWS = scaled(60_000)
QUERY = (
    "SELECT ss_store_id, COUNT(*) AS n, SUM(ss_net_paid) AS revenue "
    "FROM store_sales GROUP BY ss_store_id"
)
DELTA_FRACTIONS = [0.0, 0.05, 0.1, 0.25, 0.5]


def build_with_delta_fraction(fraction: float):
    """A fact table with the given fraction of rows in delta stores."""
    config = StoreConfig(rowgroup_size=16_384, bulk_load_threshold=1000)
    star = build_star_schema(BASE_ROWS, storage="columnstore", seed=4, config=config)
    if fraction > 0:
        extra = int(BASE_ROWS * fraction / (1 - fraction))
        data = generate_star_data(extra, seed=99)["store_sales"]
        presented = [
            tuple(
                col.dtype.present(v)
                for col, v in zip(STORE_SALES_SCHEMA.columns, row)
            )
            for row in data
        ]
        star.db.insert("store_sales", presented)  # trickle path
    return star


def _measure(star) -> dict:
    index = star.db.table("store_sales").columnstore
    counters = query_stats(star.db, QUERY)["counters"]
    timing = time_call(lambda: star.db.sql(QUERY), repeat=3)
    return {
        "fraction": index.fraction_in_delta,
        "delta_rows": index.delta_rows,
        "delta_rows_scanned": counters.get("storage.scan.delta_rows_scanned", 0),
        "query_ms": timing.seconds * 1000,
        "star": star,
    }


def run_delta_sweep() -> list[dict]:
    results = [_measure(build_with_delta_fraction(f)) for f in DELTA_FRACTIONS]
    # Tuple mover on the worst case.
    worst = results[-1]["star"]
    worst.db.run_tuple_mover("store_sales", include_open=True)
    results.append({**_measure(worst), "after_mover": True})
    return results


def test_e7_delta_store_overhead(benchmark, report_dir):
    results = benchmark.pedantic(run_delta_sweep, rounds=1, iterations=1)
    report = ReportTable(
        f"E7: query cost vs fraction of rows in delta stores "
        f"({BASE_ROWS:,}+ fact rows)",
        ["config", "% in delta", "delta rows", "delta rows scanned", "group-by query ms"],
    )
    for r in results:
        label = "after tuple mover" if r.get("after_mover") else "trickle-loaded"
        report.add_row(
            label,
            f"{r['fraction'] * 100:.1f}%",
            r["delta_rows"],
            int(r["delta_rows_scanned"]),
            round(r["query_ms"], 1),
        )
    no_delta = results[0]["query_ms"]
    half_delta = results[len(DELTA_FRACTIONS) - 1]["query_ms"]
    after_mover = results[-1]["query_ms"]
    report.add_note(
        f"50%-delta / no-delta query time: {half_delta / no_delta:.2f}x; "
        f"after tuple mover / 50%-delta: {after_mover / half_delta:.2f}x"
    )
    report.add_note(
        "delta stores are append-only column buffers: a scan gathers the "
        "columns it reads; compressed groups decode per segment"
    )
    save_report(report_dir, "e7_delta_overhead.txt", report.render())

    # Counts, not clocks: every delta row is scanned once, as a delta row,
    # and the tuple mover leaves none behind.
    for r in results:
        assert r["delta_rows_scanned"] == r["delta_rows"]
    assert results[len(DELTA_FRACTIONS) - 1]["delta_rows"] > 0
    assert results[-1]["delta_rows"] == 0


def test_e7_trickle_insert_throughput(benchmark):
    """Micro: trickle-insert rate into the open delta store."""
    star = build_with_delta_fraction(0.0)
    rows = generate_star_data(2000, seed=7)["store_sales"]
    presented = [
        tuple(col.dtype.present(v) for col, v in zip(STORE_SALES_SCHEMA.columns, row))
        for row in rows
    ]

    def trickle():
        star.db.insert("store_sales", presented)
        return len(presented)

    assert benchmark.pedantic(trickle, rounds=3, iterations=1) == 2000
