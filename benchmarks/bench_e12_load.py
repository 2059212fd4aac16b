"""E12 (ablation) — Bulk load vs trickle insert throughput.

The paper's bulk-insert path compresses large batches straight into row
groups, bypassing delta stores; small inserts go through the B-tree delta
store. This ablation loads the same rows both ways, each through the one
way storage changes rows, an autocommit scope: the bulk load is one
statement, and the trickle is one statement per row (undo record, a
PENDING stamp, and a commit that installs it at a fresh epoch).

Expected shape: bulk load achieves much higher rows/second; after a
tuple-mover pass the trickle-loaded index converges to the same
compressed state (size within noise of the bulk-loaded one).
"""

from __future__ import annotations

from conftest import save_report, scaled
from repro.bench.harness import ReportTable, fmt_bytes, time_call
from repro.bench.star_schema import STORE_SALES_SCHEMA, generate_star_data
from repro.storage.columnstore import ColumnStoreIndex
from repro.storage.config import StoreConfig
from repro.storage.tuple_mover import TupleMover
from repro.txn import autocommit

ROWS = scaled(60_000)


def make_rows():
    return generate_star_data(ROWS, seed=13)["store_sales"]


def run_comparison() -> dict:
    rows = make_rows()
    config = StoreConfig(rowgroup_size=16_384, bulk_load_threshold=1000)

    def bulk():
        index = ColumnStoreIndex(STORE_SALES_SCHEMA, config)
        with autocommit(index.mvcc) as txn:
            index.bulk_load(rows, txn)
        return index

    def trickle():
        index = ColumnStoreIndex(STORE_SALES_SCHEMA, config)
        for row in rows:
            with autocommit(index.mvcc) as txn:
                index.insert(row, txn)
        return index

    bulk_timing = time_call(bulk, repeat=2)
    trickle_timing = time_call(trickle, repeat=1)

    bulk_index = bulk()
    trickle_index = trickle()
    trickle_size_before = trickle_index.size_bytes
    mover_timing = time_call(
        lambda: TupleMover(trickle_index).run(include_open=True), repeat=1
    )
    return {
        "bulk_s": bulk_timing.seconds,
        "trickle_s": trickle_timing.seconds,
        "mover_s": mover_timing.seconds,
        "bulk_size": bulk_index.size_bytes,
        "trickle_size_before": trickle_size_before,
        "trickle_size_after": trickle_index.size_bytes,
        "bulk_rows": bulk_index.live_rows,
        "trickle_rows": trickle_index.live_rows,
    }


def test_e12_load_paths(benchmark, report_dir):
    r = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    report = ReportTable(
        f"E12 (ablation): bulk load vs trickle insert ({ROWS:,} rows)",
        ["path", "load time s", "rows/s", "resulting size"],
    )
    report.add_row(
        "bulk load (direct compress)",
        round(r["bulk_s"], 2),
        int(ROWS / r["bulk_s"]),
        fmt_bytes(r["bulk_size"]),
    )
    report.add_row(
        "trickle insert (delta stores)",
        round(r["trickle_s"], 2),
        int(ROWS / r["trickle_s"]),
        fmt_bytes(r["trickle_size_before"]),
    )
    report.add_row(
        "trickle + tuple mover",
        round(r["trickle_s"] + r["mover_s"], 2),
        int(ROWS / (r["trickle_s"] + r["mover_s"])),
        fmt_bytes(r["trickle_size_after"]),
    )
    report.add_note("tuple mover converges trickle-loaded data to compressed form")
    report.add_note(
        "trickle = one autocommit scope per row (undo record, PENDING stamp, "
        "commit at a fresh epoch); bulk load = one scope"
    )
    save_report(report_dir, "e12_load_paths.txt", report.render())

    assert r["bulk_rows"] == r["trickle_rows"] == ROWS
    assert r["bulk_s"] < r["trickle_s"], "bulk load must be faster"
    assert r["trickle_size_before"] > r["bulk_size"], "delta stores are bigger"
    assert r["trickle_size_after"] < r["trickle_size_before"] / 2
