"""E11 (ablation) — Vertipaq-style row reordering before compression.

Rows inside a row group may be stored in any order, so the loader sorts
low-cardinality columns first to manufacture long runs for RLE. This
ablation compresses identical data with reordering on vs off.

Expected shape: reordering shrinks encoded size whenever the data is not
already run-friendly; the win is largest on shuffled categorical data.
"""

from __future__ import annotations

import numpy as np

from conftest import save_report, scaled
from repro.bench.datagen import DATASET_SPECS, make_dataset
from repro.bench.harness import ReportTable, fmt_bytes
from repro.storage.columnstore import ColumnStoreIndex
from repro.storage.config import StoreConfig
from repro.txn import autocommit

ROWS = scaled(80_000)


def sizes_for(name: str) -> dict:
    dataset = make_dataset(name, ROWS, seed=31)
    # Shuffle first: reordering should EARN its keep, not inherit
    # generator ordering.
    rng = np.random.default_rng(77)
    perm = rng.permutation(ROWS)
    shuffled = {k: v[perm] for k, v in dataset.columns.items()}

    def load(reorder: bool) -> int:
        index = ColumnStoreIndex(
            dataset.table_schema, StoreConfig(reorder_rows=reorder)
        )
        with autocommit(index.mvcc) as txn:
            index.bulk_load_columns({k: v.copy() for k, v in shuffled.items()}, txn)
        return index.size_bytes

    with_reorder = load(True)
    without_reorder = load(False)
    return {
        "name": name,
        "with": with_reorder,
        "without": without_reorder,
        "win": without_reorder / with_reorder,
    }


def run_ablation() -> list[dict]:
    return [sizes_for(spec.name) for spec in DATASET_SPECS]


def test_e11_row_reordering(benchmark, report_dir):
    results = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    report = ReportTable(
        f"E11 (ablation): row reordering before compression ({ROWS:,} shuffled rows)",
        ["dataset", "size with reorder", "size without", "reorder win"],
    )
    for r in results:
        report.add_row(
            r["name"], fmt_bytes(r["with"]), fmt_bytes(r["without"]),
            f"{r['win']:.2f}x",
        )
    report.add_note("input shuffled first so ordering must be re-created")
    save_report(report_dir, "e11_reordering.txt", report.render())

    by_name = {r["name"]: r for r in results}
    assert by_name["low_ndv_ints"]["win"] > 1.5, "categorical data must win big"
    assert by_name["long_runs"]["win"] > 1.5
    wins = sum(1 for r in results if r["win"] >= 0.99)
    assert wins >= len(results) - 1, "reordering should (almost) never hurt"
