"""E2 — Archival compression (COLUMNSTORE_ARCHIVE): extra ratio and scan cost.

The paper's archival option runs encoded segments through an LZ77 codec
(XPRESS) for cold data; here that is DEFLATE, one zlib stream per segment
(LZ77 plus Huffman coding). Expected shape: a meaningful extra size reduction (the
paper cites ~1.3x-2x overall on top of columnstore compression) paid for
with slower scans.
"""

from __future__ import annotations

import time

from conftest import save_report, scaled
from repro.bench.datagen import DATASET_SPECS, make_dataset
from repro.bench.harness import ReportTable
from repro.storage.blob import serialize_segment
from repro.storage.columnstore import ColumnStoreIndex
from repro.storage.config import StoreConfig
from repro.txn import autocommit

ROWS = scaled(40_000)


def _scan_all(index: ColumnStoreIndex) -> float:
    start = time.perf_counter()
    for group in index.directory.row_groups():
        for column in index.schema.names:
            group.decode_column(column)
    return time.perf_counter() - start


def _stored_bytes(index: ColumnStoreIndex) -> int:
    """Bytes of every segment blob, as a save writes them."""
    return sum(
        len(serialize_segment(segment))
        for group in index.directory.row_groups()
        for segment in group.segments.values()
    )


def _set_archival(index: ColumnStoreIndex, enabled: bool) -> None:
    with autocommit(index.mvcc) as txn:
        index.install_row_groups(index.plan_archival(enabled), txn)


def run_experiment() -> list[dict]:
    results = []
    for spec in DATASET_SPECS:
        dataset = make_dataset(spec.name, ROWS, seed=23)
        index = ColumnStoreIndex(dataset.table_schema, StoreConfig())
        with autocommit(index.mvcc) as txn:
            index.bulk_load_columns(dataset.columns, txn)
        plain_size, plain_stored = index.size_bytes, _stored_bytes(index)
        plain_scan = min(_scan_all(index) for _ in range(3))
        _set_archival(index, True)
        archive_size, archive_stored = index.size_bytes, _stored_bytes(index)
        archive_scan = min(_scan_all(index) for _ in range(3))
        results.append(
            {
                "name": spec.name,
                "plain": plain_size,
                "archive": archive_size,
                "plain_stored": plain_stored,
                "archive_stored": archive_stored,
                "extra_ratio": plain_size / archive_size,
                "plain_scan_ms": plain_scan * 1000,
                "archive_scan_ms": archive_scan * 1000,
                "scan_slowdown": archive_scan / max(plain_scan, 1e-9),
            }
        )
    return results


def test_e2_archival_table(benchmark, report_dir):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    report = ReportTable(
        f"E2: archival compression on top of columnstore encoding ({ROWS:,} rows)",
        ["dataset", "plain KiB", "archive KiB", "extra ratio", "stored KiB (plain)",
         "stored KiB (archive)", "scan ms (plain)", "scan ms (archive)", "scan slowdown"],
    )
    for r in results:
        report.add_row(
            r["name"],
            round(r["plain"] / 1024, 1),
            round(r["archive"] / 1024, 1),
            round(r["extra_ratio"], 2),
            round(r["plain_stored"] / 1024, 1),
            round(r["archive_stored"] / 1024, 1),
            round(r["plain_scan_ms"], 2),
            round(r["archive_scan_ms"], 2),
            round(r["scan_slowdown"], 2),
        )
    report.add_note("archive = one zlib stream (DEFLATE, level 6) per encoded segment, "
                    "in place of the paper's XPRESS")
    report.add_note("plain / archive KiB: ColumnStoreIndex.size_bytes, the segments' "
                    "encoded_size_bytes (payloads, dictionaries, NULL masks, 64 bytes "
                    "of metadata each)")
    report.add_note("stored KiB: the sum of the segment blobs a save writes "
                    "(serialize_segment), plain and archived")
    save_report(report_dir, "e2_archival.txt", report.render())

    mean_extra = sum(r["extra_ratio"] for r in results) / len(results)
    assert mean_extra >= 1.15, f"archive extra ratio too small: {mean_extra:.2f}"
    slower = sum(1 for r in results if r["scan_slowdown"] > 1.0)
    assert slower >= len(results) - 1, "archive scans should be slower"


def test_e2_archive_roundtrip_speed(benchmark):
    """Micro: archiving one loaded index (compression throughput)."""
    dataset = make_dataset("skewed_strings", min(ROWS, 20_000), seed=5)
    index = ColumnStoreIndex(dataset.table_schema, StoreConfig())
    with autocommit(index.mvcc) as txn:
        index.bulk_load_columns(dataset.columns, txn)

    def archive_cycle():
        _set_archival(index, True)
        size = index.size_bytes
        _set_archival(index, False)
        return size

    assert benchmark.pedantic(archive_cycle, rounds=2, iterations=1) > 0
