"""E16 — Write-ahead log: durability cost and recovery-replay time.

Two questions the paper's transactional integration raises:

1. What does trickle-insert durability cost? We run the same insert
   stream under the three durability modes and report statements/second.
   Group commit must amortize — its fsync count (from the engine's
   ``storage.wal.*`` counters, not timing) must be well below one per
   commit; the report prints what that buys in throughput.
2. What does recovery cost? Every record of the log tail written after a
   checkpoint is replayed, and only those; the report prints how the
   per-record replay time scales with the tail's length.

Expected shape: ``off`` >= ``group`` >> ``per-commit`` throughput, with
group within a small factor of off; replay time linear in log length.
Only the counts are asserted: how much an fsync weighs against the rest
of a statement depends on the host, so a ratio of clocks is reported.
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

MODES = ("off", "group", "per-commit")


def _rows(start: int, count: int):
    return [(start + i, f"g{i % 7}", float(i % 100)) for i in range(count)]


def run_durability_sweep(tmp_path, statements: int) -> list[dict]:
    results = []
    for mode in MODES:
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            db = Database.open(
                str(tmp_path / f"mode_{mode}"),
                durability=mode,
                group_commit_size=16,
                default_config=_CONFIG,
            )
            db.sql("CREATE TABLE s (id INT NOT NULL, grp VARCHAR, v FLOAT)")
            start = time.perf_counter()
            for i in range(statements):
                db.insert("s", _rows(i, 1))
            elapsed = time.perf_counter() - start
            db.close()
            counters = registry.snapshot()
        finally:
            set_registry(previous)
        results.append(
            {
                "mode": mode,
                "statements": statements,
                "seconds": elapsed,
                "stmt_per_s": statements / elapsed,
                "commits": counters.get("storage.wal.commits", 0),
                "fsyncs": counters.get("storage.wal.fsyncs", 0),
                "bytes": counters.get("storage.wal.bytes_appended", 0),
            }
        )
    return results


def run_replay_sweep(tmp_path, tail_lengths: list[int]) -> list[dict]:
    results = []
    for tail in tail_lengths:
        target = tmp_path / f"replay_{tail}"
        db = Database.open(str(target), durability="off", default_config=_CONFIG)
        db.sql("CREATE TABLE s (id INT NOT NULL, grp VARCHAR, v FLOAT)")
        db.save(str(target))  # checkpoint: the log tail starts empty
        for i in range(tail):
            db.insert("s", _rows(i * 2, 2))
        db.wal.flush()
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            start = time.perf_counter()
            recovered = Database.open(str(target), default_config=_CONFIG)
            elapsed = time.perf_counter() - start
            replayed = registry.snapshot().get("storage.wal.replay.records", 0)
        finally:
            set_registry(previous)
        assert replayed == tail
        assert (
            recovered.sql("SELECT COUNT(*) AS n FROM s").scalar() == tail * 2
        )
        results.append(
            {"tail": tail, "seconds": elapsed, "records_per_s": tail / elapsed}
        )
    return results


@pytest.fixture(scope="module")
def statements() -> int:
    return max(200, scaled(1000) // 2)


def test_e16_wal_durability_and_replay(benchmark, report_dir, tmp_path, statements):
    def run():
        durability = run_durability_sweep(tmp_path / "dur", statements)
        replay = run_replay_sweep(
            tmp_path / "rep", [statements // 4, statements // 2, statements]
        )
        return durability, replay

    durability, replay = benchmark.pedantic(run, rounds=1, iterations=1)

    report = ReportTable(
        f"E16: trickle-insert durability cost ({statements} statements)",
        ["durability", "stmt/s", "commits", "fsyncs", "fsyncs/commit", "slowdown"],
    )
    base = durability[0]  # "off"
    by_mode = {r["mode"]: r for r in durability}
    for r in durability:
        report.add_row(
            r["mode"],
            f"{r['stmt_per_s']:,.0f}",
            int(r["commits"]),
            int(r["fsyncs"]),
            f"{r['fsyncs'] / max(1, r['commits']):.3f}",
            f"{base['stmt_per_s'] / r['stmt_per_s']:.2f}x",
        )
    group, per_commit = by_mode["group"], by_mode["per-commit"]
    report.add_note("fsync counts from the storage.wal.* engine counters")
    report.add_note(
        f"group / per-commit throughput: "
        f"{group['stmt_per_s'] / per_commit['stmt_per_s']:.2f}x"
    )

    replay_report = ReportTable(
        "E16: recovery-replay time vs log-tail length",
        ["replayed records", "replay ms", "records/s"],
    )
    for r in replay:
        replay_report.add_row(
            r["tail"], round(r["seconds"] * 1000, 1), f"{r['records_per_s']:,.0f}"
        )
    small, large = replay[0], replay[-1]
    growth = (large["seconds"] / large["tail"]) / (small["seconds"] / small["tail"])
    replay_report.add_note("each point: checkpoint, then a trickle-insert tail")
    replay_report.add_note(
        f"per-record replay time, {large['tail']} vs {small['tail']} records: {growth:.2f}x"
    )
    save_report(
        report_dir,
        "e16_wal.txt",
        report.render() + "\n\n" + replay_report.render(),
    )

    # Group commit amortizes: far fewer fsyncs than commits ...
    assert group["fsyncs"] < group["commits"] / 4
    # ... while per-commit mode fsyncs every statement. (Replay counts are
    # asserted per point in run_replay_sweep: every tail record, no more.)
    assert per_commit["fsyncs"] >= per_commit["commits"] - 1
