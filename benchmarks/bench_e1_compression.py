"""E1 — Columnstore compression vs PAGE row compression ("Table 1").

The paper reports compression ratios of columnstore indexes against raw
and PAGE-compressed row storage across customer databases. We reproduce
the comparison over the six synthetic dataset regimes of
:mod:`repro.bench.datagen` (see DESIGN.md's substitution table).

Expected shape: columnstore beats PAGE compression on every dataset, with
the largest wins on low-NDV / long-run data.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import save_report, scaled
from repro.bench.datagen import DATASET_SPECS, make_dataset
from repro.bench.harness import ReportTable, fmt_bytes
from repro.rowstore.compression import table_page_compressed_size
from repro.rowstore.table import RowStoreTable
from repro.storage.columnstore import ColumnStoreIndex
from repro.storage.config import StoreConfig
from repro.txn import autocommit

ROWS = scaled(100_000)


def measure_dataset(name: str) -> dict:
    dataset = make_dataset(name, ROWS, seed=11)
    index = ColumnStoreIndex(dataset.table_schema, StoreConfig())
    with autocommit(index.mvcc) as txn:
        index.bulk_load_columns(dataset.columns, txn)

    heap = RowStoreTable(dataset.table_schema)
    with autocommit(None) as txn:  # a heap keeps no versions
        for row in dataset.rows():
            heap.insert(row, txn)

    raw = heap.used_bytes
    page_compressed = table_page_compressed_size(heap)
    columnstore = index.size_bytes
    return {
        "name": name,
        "raw": raw,
        "page": page_compressed,
        "columnstore": columnstore,
        "page_ratio": raw / page_compressed,
        "cs_ratio": raw / columnstore,
    }


def run_experiment() -> list[dict]:
    return [measure_dataset(spec.name) for spec in DATASET_SPECS]


def test_e1_compression_table(benchmark, report_dir):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    report = ReportTable(
        f"E1: compression ratios over raw row storage ({ROWS:,} rows/dataset)",
        ["dataset", "raw size", "PAGE ratio", "columnstore ratio", "CS vs PAGE"],
    )
    for r in results:
        report.add_row(
            r["name"],
            fmt_bytes(r["raw"]),
            round(r["page_ratio"], 2),
            round(r["cs_ratio"], 2),
            round(r["cs_ratio"] / r["page_ratio"], 2),
        )
    report.add_note("paper's Table-1 analogue: COLUMNSTORE vs PAGE compression")
    save_report(report_dir, "e1_compression.txt", report.render())

    # Shape assertions (the claims this experiment exercises).
    for r in results:
        assert r["cs_ratio"] > r["page_ratio"], (
            f"{r['name']}: columnstore ({r['cs_ratio']:.2f}x) must beat "
            f"PAGE ({r['page_ratio']:.2f}x)"
        )
    by_name = {r["name"]: r for r in results}
    assert by_name["low_ndv_ints"]["cs_ratio"] > by_name["high_ndv_ints"]["cs_ratio"]
    assert by_name["long_runs"]["cs_ratio"] > 10


@pytest.mark.parametrize("spec", DATASET_SPECS, ids=lambda s: s.name)
def test_e1_segment_compression_speed(benchmark, spec):
    """Micro: cost of compressing one row group of each dataset."""
    dataset = make_dataset(spec.name, min(ROWS, 1 << 17), seed=3)

    def compress_once():
        index = ColumnStoreIndex(dataset.table_schema, StoreConfig())
        with autocommit(index.mvcc) as txn:
            index.bulk_load_columns(dataset.columns, txn)
        return index.size_bytes

    size = benchmark.pedantic(compress_once, rounds=2, iterations=1)
    assert size > 0
