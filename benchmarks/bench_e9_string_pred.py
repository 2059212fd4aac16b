"""E9 — String predicates evaluated on encoded (dictionary) data.

The paper improved string filtering by evaluating predicates against the
dictionary (once per distinct value) instead of row by row on decoded
strings. We compare the scan with encoded-space evaluation on vs off for
equality, IN, and LIKE predicates over dictionary-encoded columns.

Expected shape: encoded evaluation wins, most for expensive predicates
(LIKE's regex) and low-NDV columns.
"""

from __future__ import annotations

import pytest

from conftest import save_report, scaled
from repro.bench.datagen import make_dataset
from repro.bench.harness import ReportTable, time_call
from repro.exec.expressions import Comparison, InList, Like, col, lit
from repro.exec.operators.scan import ColumnStoreScan
from repro.storage.columnstore import ColumnStoreIndex
from repro.storage.config import StoreConfig
from repro.txn import autocommit

ROWS = scaled(150_000)

PREDICATES = [
    ("equality", lambda: Comparison("=", col("country"), lit("DE"))),
    ("IN (3 values)", lambda: InList(col("country"), ["DE", "JP", "BR"])),
    ("LIKE on url", lambda: Like(col("url"), "/products/category-1%")),
    ("LIKE on agent", lambda: Like(col("agent"), "%rv:1.%")),
]


@pytest.fixture(scope="module")
def index():
    dataset = make_dataset("skewed_strings", ROWS, seed=8)
    store = ColumnStoreIndex(dataset.table_schema, StoreConfig(rowgroup_size=32_768))
    with autocommit(store.mvcc) as txn:
        store.bulk_load_columns(dataset.columns, txn)
    return store


def scan_rows(index, predicate, encoded: bool, out_col: str = "country") -> int:
    scan = ColumnStoreScan(
        index, [out_col], predicate=predicate, encoded_eval=encoded
    )
    return sum(batch.active_count for batch in scan.batches())


def run_sweep(index) -> list[dict]:
    results = []
    for label, make_predicate in PREDICATES:
        predicate = make_predicate()
        rows_on = scan_rows(index, predicate, True)
        rows_off = scan_rows(index, predicate, False)
        assert rows_on == rows_off, "encoded evaluation must not change results"
        timing_on = time_call(lambda: scan_rows(index, predicate, True), repeat=3)
        timing_off = time_call(lambda: scan_rows(index, predicate, False), repeat=3)
        results.append(
            {
                "label": label,
                "rows": rows_on,
                "on_ms": timing_on.seconds * 1000,
                "off_ms": timing_off.seconds * 1000,
            }
        )
    return results


def test_e9_run_space_int_predicates(benchmark, report_dir):
    """Companion: per-run evaluation on RLE value-encoded int columns."""
    import numpy as np

    from repro import schema as make_schema, types
    from repro.exec.expressions import Between

    n = scaled(200_000)
    sch = make_schema(("batch_id", types.INT, False), ("payload", types.INT, False))
    store = ColumnStoreIndex(
        sch, StoreConfig(rowgroup_size=65_536, bulk_load_threshold=10, reorder_rows=False)
    )
    run = 500
    with autocommit(store.mvcc) as txn:
        store.bulk_load_columns(
            {
                "batch_id": np.repeat(np.arange(n // run, dtype=np.int32), run)[:n],
                "payload": (np.arange(n, dtype=np.int64) * 977).astype(np.int32),
            },
            txn,
        )
    predicate = Between(col("batch_id"), lit(10), lit(40))

    def run_both():
        on = time_call(lambda: scan_rows(store, predicate, True, "payload"), repeat=5)
        off = time_call(lambda: scan_rows(store, predicate, False, "payload"), repeat=5)
        assert scan_rows(store, predicate, True, "payload") == scan_rows(
            store, predicate, False, "payload"
        )
        return on.seconds * 1000, off.seconds * 1000

    on_ms, off_ms = benchmark.pedantic(run_both, rounds=1, iterations=1)
    report = ReportTable(
        f"E9b: per-run (RLE) predicate evaluation ({n:,} rows, runs of {run})",
        ["predicate", "run-space ms", "decode-then-eval ms", "win"],
    )
    report.add_row("BETWEEN over run column", round(on_ms, 2), round(off_ms, 2),
                   f"{off_ms / max(on_ms, 1e-9):.2f}x")
    report.add_note(
        "int predicates are cheap either way under NumPy (RLE decode is one "
        "np.repeat); the big encoded-space wins are the per-evaluation-"
        "expensive predicates of E9 (LIKE over dictionaries)"
    )
    save_report(report_dir, "e9b_run_space.txt", report.render())
    # For cheap vectorized predicates the honest claim is PARITY (see the
    # note above): assert run-space evaluation stays within noise of the
    # decode path rather than inventing a win the substrate cannot show.
    assert on_ms <= off_ms * 1.6


def test_e9_encoded_string_predicates(benchmark, report_dir, index):
    results = benchmark.pedantic(run_sweep, args=(index,), rounds=1, iterations=1)
    report = ReportTable(
        f"E9: string predicates on encoded vs decoded data ({ROWS:,} rows)",
        ["predicate", "matching rows", "encoded-space ms", "decode-then-eval ms", "win"],
    )
    for r in results:
        report.add_row(
            r["label"],
            r["rows"],
            round(r["on_ms"], 2),
            round(r["off_ms"], 2),
            f"{r['off_ms'] / max(r['on_ms'], 1e-9):.1f}x",
        )
    report.add_note("encoded space: one predicate evaluation per distinct value")
    save_report(report_dir, "e9_string_predicates.txt", report.render())

    for r in results:
        assert r["on_ms"] < r["off_ms"], f"{r['label']}: encoded eval must win"
    like_win = results[3]["off_ms"] / results[3]["on_ms"]
    assert like_win > 3.0, f"LIKE should win big, got {like_win:.1f}x"
