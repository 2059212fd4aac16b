"""E17 — Transaction overhead: explicit BEGIN/COMMIT vs auto-commit.

Two questions about the transaction layer's cost model:

1. What does statement-level atomicity cost when nothing fails? Every
   auto-commit statement runs against a throwaway undo context; the
   bookkeeping must be cheap relative to the storage work itself.
2. What does batching statements into explicit transactions buy under
   per-commit durability? In-transaction statements append WAL records
   but defer the fsync to COMMIT, so a BEGIN..COMMIT block of K
   statements should pay ~1 fsync instead of K — the same amortization
   group commit buys, but under application control and with all-or-
   nothing semantics.

We also measure ROLLBACK: undoing a K-statement transaction walks its
physical undo log backwards, so rollback time should scale with the
amount of work being discarded, not with database size.

Expected shape: txn-batched throughput >> auto-commit throughput under
per-commit durability, with fsyncs ~= number of COMMITs; rollback cost
linear in statements rolled back. Only counters are asserted (from the
engine's ``storage.wal.*`` / ``txn.*`` registry, and the row count after
every rollback); the throughput and rollback-scaling ratios are printed.
"""

from __future__ import annotations

import time

import pytest

from conftest import save_report, scaled
from repro.bench.harness import ReportTable
from repro.db.database import Database
from repro.observability import MetricsRegistry
from repro.observability.registry import set_registry
from repro.storage.config import StoreConfig

_CONFIG = StoreConfig(rowgroup_size=4096, bulk_load_threshold=1000)

BATCH_SIZES = (1, 16, 64)  # 1 == auto-commit


def _row(i: int):
    return [(i, f"g{i % 7}", float(i % 100))]


def run_batch_sweep(tmp_path, statements: int) -> list[dict]:
    """The same insert stream, auto-committed vs batched in explicit
    transactions of K statements, under per-commit durability."""
    results = []
    for batch in BATCH_SIZES:
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            db = Database.open(
                str(tmp_path / f"batch_{batch}"),
                durability="per-commit",
                default_config=_CONFIG,
            )
            db.sql("CREATE TABLE s (id INT NOT NULL, grp VARCHAR, v FLOAT)")
            start = time.perf_counter()
            if batch == 1:
                for i in range(statements):
                    db.insert("s", _row(i))
            else:
                for base in range(0, statements, batch):
                    with db.transaction():
                        for i in range(base, min(base + batch, statements)):
                            db.insert("s", _row(i))
            elapsed = time.perf_counter() - start
            assert db.sql("SELECT COUNT(*) AS n FROM s").scalar() == statements
            db.close()
            counters = registry.snapshot()
        finally:
            set_registry(previous)
        results.append(
            {
                "batch": batch,
                "statements": statements,
                "seconds": elapsed,
                "stmt_per_s": statements / elapsed,
                "fsyncs": counters.get("storage.wal.fsyncs", 0),
                "commits": counters.get("txn.commits", 0),
            }
        )
    return results


def run_rollback_sweep(tmp_path, sizes: list[int]) -> list[dict]:
    """ROLLBACK cost vs the number of statements being discarded."""
    results = []
    db = Database(_CONFIG)
    db.sql("CREATE TABLE s (id INT NOT NULL, grp VARCHAR, v FLOAT)")
    db.insert("s", [(10_000_000 + i, "base", 0.0) for i in range(100)])
    for size in sizes:
        db.begin()
        for i in range(size):
            db.insert("s", _row(i))
        start = time.perf_counter()
        db.rollback()
        elapsed = time.perf_counter() - start
        assert db.sql("SELECT COUNT(*) AS n FROM s").scalar() == 100
        results.append(
            {"size": size, "seconds": elapsed, "undo_per_s": size / elapsed}
        )
    return results


@pytest.fixture(scope="module")
def statements() -> int:
    return max(192, scaled(1000) // 2)


def test_e17_txn_overhead(benchmark, report_dir, tmp_path, statements):
    def run():
        batches = run_batch_sweep(tmp_path / "batch", statements)
        rollbacks = run_rollback_sweep(
            tmp_path / "rb", [statements // 4, statements // 2, statements]
        )
        return batches, rollbacks

    batches, rollbacks = benchmark.pedantic(run, rounds=1, iterations=1)

    report = ReportTable(
        f"E17: txn batching vs auto-commit, per-commit durability "
        f"({statements} statements)",
        ["batch", "stmt/s", "fsyncs", "fsyncs/stmt", "speedup"],
    )
    base = batches[0]  # auto-commit
    for r in batches:
        report.add_row(
            "auto-commit" if r["batch"] == 1 else f"txn({r['batch']})",
            f"{r['stmt_per_s']:,.0f}",
            int(r["fsyncs"]),
            f"{r['fsyncs'] / r['statements']:.3f}",
            f"{r['stmt_per_s'] / base['stmt_per_s']:.2f}x",
        )
    by_batch = {r["batch"]: r for r in batches}
    auto, big = by_batch[1], by_batch[BATCH_SIZES[-1]]
    report.add_note("fsync counts from storage.wal.* / txn.* engine counters")
    report.add_note(
        f"txn({big['batch']}) / auto-commit throughput: "
        f"{big['stmt_per_s'] / auto['stmt_per_s']:.2f}x"
    )

    rb_report = ReportTable(
        "E17: ROLLBACK cost vs statements discarded",
        ["statements", "rollback ms", "undo/s"],
    )
    for r in rollbacks:
        rb_report.add_row(
            r["size"], round(r["seconds"] * 1000, 2), f"{r['undo_per_s']:,.0f}"
        )
    small, large = rollbacks[0], rollbacks[-1]
    growth = (large["seconds"] / large["size"]) / (small["seconds"] / small["size"])
    rb_report.add_note("in-memory database: isolates undo-walk cost")
    rb_report.add_note(
        f"per-statement rollback time, {large['size']} vs {small['size']} statements: "
        f"{growth:.2f}x"
    )
    save_report(
        report_dir,
        "e17_txn.txt",
        report.render() + "\n\n" + rb_report.render(),
    )

    # Auto-commit under per-commit durability fsyncs every statement.
    assert auto["fsyncs"] >= auto["statements"] - 1
    # A K-statement transaction pays ~1 fsync per COMMIT, not per
    # statement (plus a bounded number for DDL / close).
    assert big["fsyncs"] <= big["commits"] + 4, (
        f"txn({big['batch']}) issued {big['fsyncs']} fsyncs for "
        f"{big['commits']} commits"
    )
