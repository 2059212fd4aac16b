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

E12b — ``Database.bulk_load``, the path a user calls: the rows are
coerced column by column (DESIGN.md "Bulk load, column by column") and
compressed; on a durable database the segment blobs go into the pool and
the load logs one ROW_GROUPS record naming them (DESIGN.md "Write-ahead
log"). Timed in memory and durable, at reduced scale (16,384-row groups)
and at 1,048,576 rows (one paper-sized row group), and the durable
directory reopened without a checkpoint (replay reads the blobs back).
The report states counts — row groups, segment bytes, log bytes — and one
ratio: the in-memory ``Database.bulk_load`` rows/s over
``ColumnStoreIndex.bulk_load`` rows/s on the same rows already coerced
(what coercion and the statement cost on top of compression). No
wall-clock ratio is asserted; the log is asserted to be at most 1.1x the
segment bytes (it names the blobs, it does not hold the rows).

``python benchmarks/bench_e12_load.py --smoke`` asserts E12b's counts
exactly on a small load (what CI runs); without ``--smoke`` it rewrites
``benchmarks/reports/e12b_database_load.txt`` (~1 minute, ~1.5 GB peak).
"""

from __future__ import annotations

import argparse
import tempfile
import time
from pathlib import Path

from conftest import save_report, scaled
from repro import Database
from repro.bench.harness import ReportTable, fmt_bytes, time_call
from repro.bench.star_schema import STORE_SALES_SCHEMA, generate_star_data
from repro.storage.blob import serialize_segment
from repro.storage.columnstore import ColumnStoreIndex
from repro.storage.config import StoreConfig
from repro.storage.tuple_mover import TupleMover
from repro.txn import autocommit

ROWS = scaled(60_000)
PAPER_ROWS = 1_048_576
SMOKE_ROWS = 20_000
SMOKE_ROWGROUP = 4_096
# E12b's counts on the smoke load (seed 13): row groups, segment bytes,
# log bytes (CREATE TABLE + ROW_GROUPS records), in memory and durable alike.
SMOKE_COUNTS = {"row_groups": 5, "segment_bytes": 218_297, "log_bytes": 6_403}
# The log names the blobs the load wrote: well under their bytes.
LOG_SHARE = 1.1


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
    def move_all():
        with autocommit(trickle_index.mvcc) as txn:
            return TupleMover(trickle_index).run(trickle_index.plan_move(include_open=True), txn)

    mover_timing = time_call(move_all, repeat=1)
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


# --------------------------------------------------------------------- #
# E12b: Database.bulk_load
# --------------------------------------------------------------------- #
def database_load(rows: list[tuple], rowgroup: int, directory: Path | None = None) -> dict:
    """One ``Database.bulk_load`` of ``rows`` into ``store_sales``: in
    memory, or durable in ``directory``. Its seconds and counts."""
    config = StoreConfig(rowgroup_size=rowgroup, bulk_load_threshold=1)
    if directory is None:
        db = Database(config)
    else:
        db = Database.open(str(directory), default_config=config)
    db.create_table("store_sales", STORE_SALES_SCHEMA)
    start = time.perf_counter()
    db.bulk_load("store_sales", rows)
    seconds = time.perf_counter() - start
    groups = db.table("store_sales").columnstore.directory
    found = {
        "seconds": seconds,
        "row_groups": len(groups),
        "segment_bytes": sum(
            len(serialize_segment(segment))
            for group in groups.row_groups()
            for segment in group.segments.values()
        ),
    }
    if directory is not None:
        found["log_bytes"] = db.durability.wal.status()["bytes"]
        db.close()
        start = time.perf_counter()
        Database.open(str(directory)).close()
        found["reopen_seconds"] = time.perf_counter() - start
    return found


def storage_load_seconds(rows: list[tuple], rowgroup: int) -> float:
    """``ColumnStoreIndex.bulk_load_physical`` of the same rows, coerced
    into columns first (untimed): compression alone, no statement."""
    physical = STORE_SALES_SCHEMA.coerce_columns(rows)
    config = StoreConfig(rowgroup_size=rowgroup, bulk_load_threshold=1)
    index = ColumnStoreIndex(STORE_SALES_SCHEMA, config)
    start = time.perf_counter()
    with autocommit(index.mvcc) as txn:
        index.bulk_load_physical(physical, txn)
    return time.perf_counter() - start


def database_arms(n_rows: int, rowgroup: int, repeat: int = 1) -> dict:
    """In memory and durable, best of ``repeat`` each, and the storage
    floor; the counts of each arm's last run."""
    rows = generate_star_data(n_rows, seed=13)["store_sales"]
    arms: dict[str, dict] = {}
    with tempfile.TemporaryDirectory() as scratch:
        for name, directory in (("in memory", None), ("durable", Path(scratch))):
            runs = []
            for attempt in range(repeat):
                where = None if directory is None else directory / f"db{attempt}"
                runs.append(database_load(rows, rowgroup, where))
            arms[name] = dict(runs[-1], seconds=min(run["seconds"] for run in runs))
            if directory is not None:
                arms[name]["reopen_seconds"] = min(run["reopen_seconds"] for run in runs)
    arms["storage"] = {
        "seconds": min(storage_load_seconds(rows, rowgroup) for _ in range(repeat))
    }
    return arms


def check_smoke(arms: dict) -> None:
    memory, durable = arms["in memory"], arms["durable"]
    assert memory["row_groups"] == durable["row_groups"] == SMOKE_COUNTS["row_groups"], arms
    assert memory["segment_bytes"] == durable["segment_bytes"] == SMOKE_COUNTS["segment_bytes"], arms
    assert durable["log_bytes"] == SMOKE_COUNTS["log_bytes"], arms
    assert durable["log_bytes"] <= LOG_SHARE * durable["segment_bytes"], arms


def smoke() -> dict:
    arms = database_arms(SMOKE_ROWS, SMOKE_ROWGROUP)
    check_smoke(arms)
    return arms


def test_e12b_database_load_counts():
    """What CI runs (also reachable as ``--smoke``): no clock."""
    smoke()


def full_report() -> str:
    report = ReportTable(
        "E12b: Database.bulk_load of store_sales rows (coerce column by column + compress; "
        "durable: + log), best of 3",
        ["rows", "row group", "arm", "seconds", "rows/s", "row groups", "segment bytes",
         "log bytes", "reopen s"],
    )
    ratios = []
    for n_rows, rowgroup in ((ROWS, 16_384), (PAPER_ROWS, PAPER_ROWS)):
        arms = database_arms(n_rows, rowgroup, repeat=3)
        for name, arm in arms.items():
            report.add_row(
                f"{n_rows:,}", f"{rowgroup:,}", name, round(arm["seconds"], 3),
                int(n_rows / arm["seconds"]), arm.get("row_groups", "-"),
                arm.get("segment_bytes", "-"), arm.get("log_bytes", "-"),
                round(arm["reopen_seconds"], 3) if "reopen_seconds" in arm else "-",
            )
        ratios.append((n_rows, arms["storage"]["seconds"] / arms["in memory"]["seconds"]))
    for n_rows, ratio in ratios:
        report.add_note(
            f"{n_rows:,} rows: in-memory Database.bulk_load runs at {ratio:.2f}x the rows/s "
            "of ColumnStoreIndex.bulk_load_physical on the same rows already coerced"
        )
    report.add_note("storage = ColumnStoreIndex.bulk_load_physical of rows coerced beforehand "
                    "(compression alone); log bytes = the WAL after CREATE TABLE + ROW_GROUPS; "
                    "reopen = Database.open of the durable directory, no checkpoint taken "
                    "(best of 3)")
    return report.render()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--smoke", action="store_true", help="small load, exact counts only")
    args = parser.parse_args()
    if args.smoke:
        arms = smoke()
        for name in ("in memory", "durable"):
            print(name, {k: v for k, v in arms[name].items() if k != "seconds"})
        print("E12b smoke: exact counts hold")
    else:
        text = full_report()
        (Path(__file__).parent / "reports" / "e12b_database_load.txt").write_text(text + "\n")
        print(text)


if __name__ == "__main__":
    main()
